"""Transition-system construction, falsification, and export."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridabs as ga
import gridabs.abstraction as abstraction
import gridabs.simulate as simulate
from gridabs.abstraction import (CompositionViolation, EnumerationCap, Transition,
                                 Window, WellPosednessViolation,
                                 agent_transition, build_transition_system,
                                 certify_window_input_bound, compose_plan,
                                 enumerate_configurations,
                                 from_json, to_dot, to_json, verify_transition)
from gridabs.admissibility import FeasibilityError
from gridabs.controller import ControllerBank, sample_feedback_bound
from gridabs.dynamics import project_configuration
from gridabs.geometry import CellConfiguration, row_norm
from gridabs.integrate import knot_times
from gridabs.simulate import INPUT_ATOL, InputBoundViolation


def test_window_enumeration():
    window = Window(((-1, 1), (0, 2)))
    assert window.dimension == 2
    assert window.size == 9
    cells = list(window.cells())
    assert len(cells) == 9
    assert (-1, 0) in window
    assert (2, 0) not in window
    with pytest.raises(ValueError):
        Window(((1, -1),))


def test_agent_transition_is_the_reference_endpoint(ref_model, ref_grid, ref_params):
    config = CellConfiguration(agent=1, cells=((0, 0), (1, 1), (-1, 0)))
    target, controller = agent_transition(ref_model, ref_grid, ref_params, config,
                                          substeps=32)
    assert target == ref_grid.cell_of(controller.endpoint[0])
    assert controller.agent == config.agent
    np.testing.assert_array_equal(controller.cell_array, [config.cells])


def test_agent_transition_needs_admissible_params(ref_model, ref_grid):
    bad = ga.check_discretization(ref_model, 0.004, 0.005)
    config = CellConfiguration(agent=0, cells=((0, 0), (0, 0)))
    with pytest.raises(FeasibilityError):
        agent_transition(ref_model, ref_grid, bad, config)


def test_build_counts_every_configuration(ref_model, ref_grid, ref_params,
                                          ref_window):
    end = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                  substeps=32)
    middle = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                     substeps=32)
    assert len(end.transitions) == 81
    assert len(middle.transitions) == 729
    assert len(set(t.action for t in middle.transitions)) == 729
    for t in middle.transitions[:40]:
        assert t.source == t.action[0]
        assert len(t.reference_points) == 3
    # every configuration has a successor
    for ts in (end, middle):
        for t in ts.transitions:
            post = ts.post_set(t.source, t.action)
            assert t.target in post and len(post) >= 1


def test_post_set_rejects_mismatched_source(ref_model, ref_grid, ref_params,
                                            ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    t = ts.transitions[0]
    with pytest.raises(ValueError):
        ts.post_set((1, 1) if t.source != (1, 1) else (0, 0), t.action)


def test_enumeration_cap(ref_model, ref_grid, ref_params, ref_window, monkeypatch):
    monkeypatch.setattr(abstraction, "MAX_ACTIONS", 100)
    with pytest.raises(EnumerationCap):
        build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                substeps=16)
    monkeypatch.setattr(abstraction, "MAX_ACTIONS", 81)
    assert len(enumerate_configurations(ref_window, 1)) == 81
    monkeypatch.setattr(abstraction, "MAX_ACTIONS", 80)
    with pytest.raises(EnumerationCap):
        enumerate_configurations(ref_window, 1)


def test_enumeration_cap_comes_before_any_cell_is_listed():
    # a 1000x1000 window lists a million cell tuples, about 100 MB
    window = Window(((0, 999), (0, 999)))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCap, match="window of 1000000 cells"):
            enumerate_configurations(window, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("chunk", [1, 7, 216])
def test_enumeration_chunks_follow_the_product_order(degree, chunk, ref_grid, monkeypatch):
    window = Window(((2, 4), (-3, -2)))
    configs = enumerate_configurations(window, degree)
    assert configs.dtype == np.int64 and configs.shape == (6 ** (degree + 1), degree + 1, 2)
    product = list(itertools.product(window.cells(), repeat=degree + 1))
    assert [tuple(map(tuple, cfg)) for cfg in configs.tolist()] == product

    # the build cuts the reference points into batches of at most ``chunk``
    # consecutive rows
    chunks = []

    def stub_endpoints(model, params, agent, refs, substeps):
        chunks.append(refs)
        return refs[:, 0]

    monkeypatch.setattr(abstraction, "reference_endpoints", stub_endpoints)
    monkeypatch.setattr(abstraction, "BUILD_ROWS", chunk)
    refs = ref_grid.cell_center(configs)
    targets, marginal = abstraction._reference_targets(None, ref_grid, None, 0, refs, 1)
    np.testing.assert_array_equal(targets, configs[:, 0])
    assert not marginal.any()
    assert all(c.shape[1:] == (degree + 1, 2) for c in chunks)
    assert all(1 <= len(c) <= chunk for c in chunks)
    np.testing.assert_array_equal(ref_grid.cell_indices(np.concatenate(chunks)), configs)


def test_enumeration_cap_comes_before_any_bank(ref_model, ref_grid, ref_params, ref_window,
                                              monkeypatch):
    sizes = record_batch_sizes(monkeypatch)
    monkeypatch.setattr(abstraction, "MAX_ACTIONS", 728)
    with pytest.raises(EnumerationCap):
        build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                substeps=16)
    assert sizes == []


def test_verify_transition_accepts_constructed_one(ref_model, ref_grid, ref_params,
                                                   ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                 substeps=32)
    transition = ts.transitions[200]
    check = verify_transition(ref_model, ref_grid, ref_params, transition,
                              ref_window, trials=60, seed=2, substeps=32)
    assert check.trials == 60
    assert check.min_margin > 0.0
    assert check.min_margin <= check.max_margin
    assert sum(check.histogram_counts) == check.trials


def test_verify_transition_histogram_of_near_equal_margins(ref_model, ref_grid, ref_params,
                                                          ref_window):
    # every trial lands on the reference endpoint, so the margins agree to a
    # few ulps: too narrow a range for numpy to cut ten distinct bins
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=64)
    check = verify_transition(ref_model, ref_grid, ref_params, ts.transitions[17],
                              ref_window, trials=100, seed=17, substeps=64)
    edges = np.array(check.histogram_edges)
    assert sum(check.histogram_counts) == check.trials == 100
    assert len(check.histogram_counts) == 10 and len(edges) == 11
    assert np.all(np.diff(edges) >= 0.0)
    assert edges[0] == check.min_margin
    assert edges[-1] >= check.max_margin


def test_verify_transition_histogram_of_equal_margins(ref_model, ref_grid, ref_params,
                                                     ref_window):
    # one trial: every bin edge is its margin, the last bin holds the trial
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=32)
    check = verify_transition(ref_model, ref_grid, ref_params, ts.transitions[40],
                              ref_window, trials=1, seed=2, substeps=32)
    assert check.min_margin == check.max_margin > 0.0
    assert check.histogram_edges == (check.min_margin,) * 11
    assert check.histogram_counts == (0,) * 9 + (1,)


def test_verify_transition_rejects_tampered_target(ref_model, ref_grid, ref_params,
                                                   ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=32)
    t = ts.transitions[10]
    wrong = (t.target[0] + 3, t.target[1])
    tampered = Transition(t.agent, t.source, t.action, wrong, t.reference_points)
    with pytest.raises(ValueError):
        verify_transition(ref_model, ref_grid, ref_params, tampered, ref_window,
                          trials=10, seed=0, substeps=32)


def test_verify_transition_checks_the_input_budget(ref_model, ref_grid, ref_params,
                                                   ref_window, monkeypatch):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    # a negative slack puts every logged |k| over the budget
    monkeypatch.setattr(simulate, "INPUT_ATOL", -1.0)
    with pytest.raises(InputBoundViolation):
        verify_transition(ref_model, ref_grid, ref_params, ts.transitions[10], ref_window,
                          trials=10, seed=0, substeps=16)


def test_compose_plan_checks_the_input_budget(ref_model, ref_grid, ref_params, monkeypatch):
    source = ((0, 0), (1, 0), (0, 1))
    targets = tuple(agent_transition(ref_model, ref_grid, ref_params,
                                     project_configuration(ref_model.network, source, i),
                                     substeps=16)[0] for i in range(3))
    # a negative slack puts every logged |k| over the budget; the plan still lands
    monkeypatch.setattr(simulate, "INPUT_ATOL", -1.0)
    with pytest.raises(InputBoundViolation):
        compose_plan(ref_model, ref_grid, ref_params, source, targets, samples=8,
                     seed=1, substeps=16)


def pushed_endpoints(monkeypatch, moves):
    """Make the closed loop shift the final state of (run, agent) by a vector."""
    integrate = abstraction.integrate_closed_loop_batch

    def shifted(*args, **kwargs):
        trajectory, reports = integrate(*args, **kwargs)
        for (b, i), delta in moves.items():
            trajectory.states[-1, b, i] += delta
        return trajectory, reports

    monkeypatch.setattr(abstraction, "integrate_closed_loop_batch", shifted)


def pushed_agent_endpoints(monkeypatch, moves):
    """Make the one-agent loop shift the final state of a run by a vector."""
    integrate = abstraction.integrate_agent_batch

    def shifted(*args, **kwargs):
        runs = integrate(*args, **kwargs)
        for b, delta in moves.items():
            runs.endpoints[b] += delta
        return runs

    monkeypatch.setattr(abstraction, "integrate_agent_batch", shifted)


def test_verify_transition_reports_the_first_miss(ref_model, ref_grid, ref_params,
                                                  ref_window, monkeypatch):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                 substeps=16)
    t = ts.transitions[300]
    step = np.array([ref_grid.side, 0.0])
    pushed_agent_endpoints(monkeypatch, {9: step, 4: -2.0 * step})
    with pytest.raises(WellPosednessViolation, match="trial 4: agent 1") as info:
        verify_transition(ref_model, ref_grid, ref_params, t, ref_window,
                          trials=12, seed=3, substeps=16)
    witness = info.value.witness
    assert witness["trial"] == 4
    assert witness["declared"] == t.target
    assert witness["landed"] == (t.target[0] - 2, t.target[1])
    assert witness["landed"] == ref_grid.cell_of(witness["endpoint"])


def test_compose_plan_reports_the_first_miss(ref_model, ref_grid, ref_params,
                                             monkeypatch):
    source = ((0, 0), (1, 0), (0, 1))
    targets = tuple(agent_transition(ref_model, ref_grid, ref_params,
                                     project_configuration(ref_model.network, source, i),
                                     substeps=16)[0] for i in range(3))
    step = np.array([0.0, ref_grid.side])
    pushed_endpoints(monkeypatch, {(5, 0): step, (3, 2): step, (3, 1): -step})
    with pytest.raises(CompositionViolation, match="run 3: agent 1") as info:
        compose_plan(ref_model, ref_grid, ref_params, source, targets, samples=8,
                     seed=1, substeps=16)
    witness = info.value.witness
    assert (witness["run"], witness["agent"]) == (3, 1)
    assert witness["landed"] == (targets[1][0], targets[1][1] - 1)
    assert witness["declared"] == targets[1]


def test_compose_plan_lands_all_agents(ref_model, ref_grid, ref_params):
    source = ((0, 0), (1, 0), (0, 1))
    targets = []
    for i in range(3):
        cfg = project_configuration(ref_model.network, source, i)
        targets.append(agent_transition(ref_model, ref_grid, ref_params, cfg,
                                        substeps=32)[0])
    controllers, report = compose_plan(ref_model, ref_grid, ref_params, source,
                                       tuple(targets), samples=30, seed=1,
                                       substeps=32)
    assert len(controllers) == 3
    assert all(report.containment_ok)
    assert max(report.endpoint_deviation) <= 1e-10


def test_compose_plan_rejects_unreachable_target(ref_model, ref_grid, ref_params):
    source = ((0, 0), (1, 0), (0, 1))
    targets = [(5, 5), (1, 0), (0, 1)]
    with pytest.raises(ValueError):
        compose_plan(ref_model, ref_grid, ref_params, source, tuple(targets),
                     samples=5, seed=0, substeps=16)


def test_certificate_holds_on_admissible_window(ref_model, ref_grid, ref_params,
                                                ref_window):
    cert = certify_window_input_bound(ref_model, ref_grid, ref_params, 0,
                                      ref_window, samples=200, seed=0,
                                      substeps=16)
    assert cert.ok
    assert cert.configurations == 81
    assert cert.max_magnitude <= ref_model.input_bound + 1e-12
    assert cert.worst_witness["magnitude"] == pytest.approx(cert.max_magnitude)


def test_certificate_fails_below_admissible_period(ref_model, ref_grid, ref_window):
    bad = ga.check_discretization(ref_model, 0.004, 0.005)
    cert = certify_window_input_bound(ref_model, ref_grid, bad, 1, ref_window,
                                      samples=1500, seed=0,
                                      reference_policy="random", substeps=16)
    assert not cert.ok
    assert cert.max_magnitude > ref_model.input_bound


def nan_beyond(model, own_x):
    """``model`` with fields that are NaN where the agent's own x exceeds ``own_x``."""
    def wrap(evaluate):
        def field(own, nbrs):
            return np.where(own[..., :1] > own_x, np.nan, evaluate(own, nbrs))
        return field
    return ga.DynamicsModel(model.network, [wrap(e) for e in model.evaluators],
                            model.feedback_bound, model.neighbor_lipschitz,
                            model.self_lipschitz, model.input_bound)


@pytest.mark.parametrize("own_x, window, configurations", [
    (0.0015, ((0, 0), (0, 0)), 1),       # NaN in part of cell (0, 0), centered at 0.0014
    (-np.inf, ((0, 1), (0, 0)), 4),      # NaN everywhere
])
def test_certificate_flags_a_nan_field(ref_model, ref_grid, ref_params, own_x, window,
                                       configurations):
    # a NaN magnitude fails every comparison with the budget, so it must not pass
    cert = certify_window_input_bound(nan_beyond(ref_model, own_x), ref_grid, ref_params,
                                      0, Window(window), samples=2000, seed=0, substeps=32)
    assert not cert.ok
    assert np.isnan(cert.max_magnitude)
    # the first NaN configuration stays the worst
    assert cert.worst_configuration == ((0, 0), (0, 0))
    assert np.isnan(cert.worst_witness["magnitude"])
    assert len(cert.violations) == configurations
    assert all(np.isnan(magnitude) for _, magnitude in cert.violations)


def per_configuration_certificate(model, grid, params, agent, window, samples, seed,
                                  reference_policy, substeps):
    """The certificate as one size-1 bank per configuration, same draws in order."""
    rng = np.random.default_rng(seed)
    degree = model.network.degree(agent)
    best, worst_cfg, worst_witness, violations, checked = -1.0, None, None, [], 0
    for cfg in itertools.product(window.cells(), repeat=degree + 1):
        refs = None
        if reference_policy == "random":
            refs = np.array([[grid.sample_in_cell(z, rng, 1)[0] for z in cfg]])
        bank = ControllerBank(model, grid, params, agent, [cfg], refs, substeps)
        magnitude, witness = sample_feedback_bound(bank, samples=samples,
                                                   seed=int(rng.integers(2**31)))
        checked += 1
        if magnitude > best:
            best, worst_cfg, worst_witness = magnitude, cfg, witness
        if magnitude > model.input_bound + INPUT_ATOL:
            violations.append((cfg, magnitude))
    return checked, best, worst_cfg, worst_witness, tuple(violations)


def assert_same_certificate(cert, expected):
    checked, best, worst_cfg, worst_witness, violations = expected
    assert cert.configurations == checked
    assert cert.max_magnitude == best
    assert cert.worst_configuration == worst_cfg
    assert cert.worst_witness.keys() == worst_witness.keys()
    for key, value in worst_witness.items():
        np.testing.assert_array_equal(cert.worst_witness[key], value, strict=True)
    assert cert.violations == violations


@pytest.mark.parametrize("policy", ["center", "random"])
def test_chunked_certificate_matches_per_configuration_loop(ref_model, ref_grid, ref_params,
                                                            ref_window, policy):
    # agent 1 has 729 configurations: twelve chunks, the last one partial
    assert 729 % abstraction.CERTIFY_CHUNK != 0
    cert = certify_window_input_bound(ref_model, ref_grid, ref_params, 1, ref_window,
                                      samples=40, seed=3, reference_policy=policy,
                                      substeps=8)
    expected = per_configuration_certificate(ref_model, ref_grid, ref_params, 1,
                                             ref_window, 40, 3, policy, 8)
    assert_same_certificate(cert, expected)
    assert cert.ok


@pytest.mark.parametrize("period, samples, seed, substeps, violations", [
    (0.005, 2000, 17, 32, 645),   # the acceptance suite's negative control
    (0.0075, 100, 1, 8, 12),      # first violation in the third chunk
])
def test_chunked_certificate_reports_every_violation(
        ref_model, ref_grid, ref_window, period, samples, seed, substeps, violations):
    bad = ga.check_discretization(ref_model, 0.004, period)
    cert = certify_window_input_bound(ref_model, ref_grid, bad, 1, ref_window,
                                      samples=samples, seed=seed,
                                      reference_policy="random", substeps=substeps)
    expected = per_configuration_certificate(ref_model, ref_grid, bad, 1, ref_window,
                                             samples, seed, "random", substeps)
    assert_same_certificate(cert, expected)
    assert cert.configurations == 729
    assert len(cert.violations) == violations


def test_certification_memory_does_not_grow_with_the_window(ref_model, ref_grid,
                                                            ref_params):
    def peak(window):
        tracemalloc.start()
        try:
            cert = certify_window_input_bound(ref_model, ref_grid, ref_params, 0, window,
                                              samples=50, seed=0, substeps=256)
            return cert.configurations, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(Window(((0, 0), (0, 0))))  # one-time allocations of a first call
    small_count, small = peak(Window(((-1, 1), (-1, 1))))
    large_count, large = peak(Window(((-2, 2), (-2, 2))))
    assert (small_count, large_count) == (81, 625)
    assert large <= 1.25 * small


def record_batch_sizes(monkeypatch):
    """Sizes of the batches of reference endpoints the build integrates, in order."""
    sizes = []
    integrate = abstraction.reference_endpoints

    def recording_endpoints(model, params, agent, refs, substeps):
        sizes.append(len(refs))
        return integrate(model, params, agent, refs, substeps)

    monkeypatch.setattr(abstraction, "reference_endpoints", recording_endpoints)
    return sizes


def undeclared(model):
    """``model`` without its translation-invariance declaration: full enumeration."""
    return ga.DynamicsModel(model.network, model.evaluators, model.feedback_bound,
                            model.neighbor_lipschitz, model.self_lipschitz,
                            model.input_bound)


def test_chunked_build_matches_one_bank(ref_model, ref_grid, ref_params, ref_window,
                                        monkeypatch):
    sizes = record_batch_sizes(monkeypatch)
    default = abstraction.BUILD_ROWS
    for model, one_bank, chunks in [
            # 729 configurations: seven chunks of 100 and a partial one of 29
            (undeclared(ref_model), [729], [100] * 7 + [29]),
            # 361 offset classes: three chunks of 100 and a partial one of 61
            (ref_model, [361], [100] * 3 + [61])]:
        monkeypatch.setattr(abstraction, "BUILD_ROWS", default)
        sizes.clear()
        whole = build_transition_system(model, ref_grid, ref_params, 1, ref_window,
                                        substeps=16)
        assert sizes == one_bank
        monkeypatch.setattr(abstraction, "BUILD_ROWS", 100)
        sizes.clear()
        chunked = build_transition_system(model, ref_grid, ref_params, 1, ref_window,
                                          substeps=16)
        assert sizes == chunks
        assert to_json(chunked) == to_json(whole)
        assert to_dot(chunked) == to_dot(whole)


@pytest.mark.parametrize("builtin", [ga.saturated_consensus, ga.smooth_consensus])
@pytest.mark.parametrize("origin", [(0.0, 0.0), (1e6, -1e6)])
@pytest.mark.parametrize("width, classes", [(3, (25, 361, 25)), (5, (81, 3721, 81))])
def test_relative_build_equals_the_full_build(path_network, ref_grid, monkeypatch, builtin,
                                              origin, width, classes):
    model = builtin(path_network, gain=0.5, input_bound=0.5)
    grid = ga.GridDecomposition(2, ref_grid.side, origin)
    params = ga.check_discretization(model, grid.diameter(), 0.02)
    window = Window(((-1, width - 2), (-2, width - 3)))
    sizes = record_batch_sizes(monkeypatch)
    for agent in range(3):
        sizes.clear()
        relative = build_transition_system(model, grid, params, agent, window, substeps=32)
        # one batch of the offset classes, and no marginal class integrated again
        assert sizes == [classes[agent]]
        full = build_transition_system(undeclared(model), grid, params, agent, window,
                                       substeps=32)
        assert sizes[1:] == [width ** (2 * (model.network.degree(agent) + 1))]
        assert relative == full


def drifting(model, drift):
    """``model`` plus the constant field ``drift``: M grows by |drift|, L1 and L2
    stay, and each field still depends on the state differences only."""
    drift = np.asarray(drift, dtype=float)

    def shifted(evaluate):
        return lambda own, nbrs: evaluate(own, nbrs) + drift

    return ga.DynamicsModel(model.network, [shifted(e) for e in model.evaluators],
                            model.feedback_bound + float(np.linalg.norm(drift)),
                            model.neighbor_lipschitz, model.self_lipschitz,
                            model.input_bound, translation_invariant=True)


@pytest.fixture(scope="module")
def drift_setup(ref_model, ref_grid):
    """The reference model drifting by (0.3, 0), at the midpoint of its period interval."""
    model = drifting(ref_model, (0.3, 0.0))
    lo, hi = ga.admissible_period_interval(model, ref_grid.diameter())
    return model, ga.check_discretization(model, ref_grid.diameter(), 0.5 * (lo + hi))


def test_drifting_model_is_admissible_and_keeps_its_constants(drift_setup):
    model, params = drift_setup
    assert params.admissible
    assert ga.validate_constants(model, trials=2000, seed=0).ok


@pytest.mark.parametrize("origin", [(0.0, 0.0), (1e6, -1e6)])
def test_relative_build_equals_the_full_build_where_targets_move(drift_setup, ref_grid,
                                                                 ref_window, origin):
    model, params = drift_setup
    grid = ga.GridDecomposition(2, ref_grid.side, origin)
    for agent in range(3):
        relative = build_transition_system(model, grid, params, agent, ref_window,
                                           substeps=32)
        moves = relative.target_cells - relative.action_cells[:, 0]
        # targets leave their sources, so the comparison sees the class offsets
        assert np.any(moves != 0)
        assert relative == build_transition_system(undeclared(model), grid, params, agent,
                                                    ref_window, substeps=32)
        # one period of drift carries every agent two cells along +x
        assert np.all(moves == (2, 0))


@pytest.fixture(scope="module")
def spread_setup(path_network):
    """Smooth consensus on cells of a tenth of the largest admissible diameter, at
    0.9 of the longest period: agent 1's targets on a 5x5 window move by
    different offsets from class to class."""
    model = ga.smooth_consensus(path_network, gain=0.1, input_bound=0.198, scale=1.0)
    side = 0.1 * ga.diameter_upper_bound(model) / np.sqrt(2.0)
    diameter = ga.GridDecomposition(2, side).diameter()
    period = 0.9 * ga.admissible_period_interval(model, diameter)[1]
    params = ga.check_discretization(model, diameter, period)
    return model, side, params, Window(((-2, 2), (-2, 2)))


@pytest.mark.parametrize("origin", [(0.0, 0.0), (1e6, -1e6)])
def test_relative_build_equals_the_full_build_where_offsets_differ(spread_setup, origin):
    model, side, params, window = spread_setup
    grid = ga.GridDecomposition(2, side, origin)
    relative = build_transition_system(model, grid, params, 1, window, substeps=32)
    moves = relative.target_cells - relative.action_cells[:, 0]
    # classes move by different offsets, so a row given another class's offset shows
    assert len(set(map(tuple, moves.tolist()))) > 1
    assert relative == build_transition_system(undeclared(model), grid, params, 1, window,
                                                substeps=32)
    # both builds share the gather; the controllers integrate every row on their own
    bank = ControllerBank(model, grid, params, 1, relative.action_cells, substeps=32)
    np.testing.assert_array_equal(relative.target_cells, bank.target_cells())


def test_verify_transition_accepts_transitions_of_differing_offsets(spread_setup):
    model, side, params, window = spread_setup
    grid = ga.GridDecomposition(2, side)
    ts = build_transition_system(model, grid, params, 1, window, substeps=64)
    moved = np.flatnonzero(np.any(ts.target_cells != ts.action_cells[:, 0], axis=1))
    for k in moved[::len(moved) // 4][:4]:
        transition = ts.transitions[k]
        check = verify_transition(model, grid, params, transition, window, trials=100,
                                  seed=0, substeps=64)
        assert check.min_margin > 0.0 and not check.marginal


def test_verify_transition_accepts_moved_transitions(drift_setup, ref_grid, ref_window):
    model, params = drift_setup
    for agent in range(3):
        ts = build_transition_system(model, ref_grid, params, agent, ref_window,
                                     substeps=64)
        transition = ts.transitions[len(ts.transitions) // 2]
        assert transition.target != transition.source
        check = verify_transition(model, ref_grid, params, transition, ref_window,
                                  trials=100, seed=agent, substeps=64)
        assert check.min_margin > 0.0 and not check.marginal


def constructive_neighbors_run(model, grid, params, transition, window, trials, seed,
                               substeps):
    """The joint loop of constructive neighbors: the agent of ``transition`` under its
    rebuilt controller, every other agent under a controller with reference points
    drawn in its cells, and the cells of the agents outside the action drawn from
    the window. Returns the agent's bank, its starts and endpoints (trials, n) and
    its largest logged |k|."""
    rng = np.random.default_rng(seed)
    net = model.network
    i = transition.agent
    cells = np.array(window.cells())
    assignment = cells[rng.integers(0, len(cells), size=(trials, net.agent_count))]
    assignment[:, [i, *net.neighbors[i]]] = transition.action
    banks = []
    for j in range(net.agent_count):
        if j == i:
            banks.append(agent_transition(model, grid, params,
                                          CellConfiguration(i, transition.action),
                                          transition.reference_points, substeps)[1])
            continue
        configs = assignment[:, [j, *net.neighbors[j]]]
        banks.append(ControllerBank(model, grid, params, j, configs,
                                    grid.uniform_in_cells(configs, rng), substeps))
    x0 = grid.uniform_in_cells(assignment, rng)
    trajectory, _ = simulate.integrate_closed_loop_batch(banks, x0)
    return (banks[i], x0[:, i], trajectory.states[-1, :, i],
            float(trajectory.input_magnitudes[..., i].max()))


@pytest.fixture(params=["reference", "drifting"])
def loop_setup(request, ref_model, ref_params):
    """(model, params): the reference model, or the drifting one whose transitions move."""
    if request.param == "drifting":
        return request.getfixturevalue("drift_setup")
    return ref_model, ref_params


@pytest.mark.parametrize("agent", [0, 1])
def test_the_one_agent_loop_lands_where_the_joint_loop_does(loop_setup, ref_grid, ref_window,
                                                            agent):
    model, params = loop_setup
    ts = build_transition_system(model, ref_grid, params, agent, ref_window, substeps=64)
    transition = ts.transitions[len(ts.transitions) // 3]
    bank, x0, joint, _ = constructive_neighbors_run(model, ref_grid, params, transition,
                                                    ref_window, trials=50, seed=agent,
                                                    substeps=64)
    signals = abstraction._neighbor_signals(ref_grid, params, bank.cell_array[0, 1:],
                                            bank.dense.times, 50, np.random.default_rng(5))
    runs = simulate.integrate_agent_batch(bank, x0, signals)
    # the landing ignores the neighbors: both loops end on the reference endpoint
    assert np.max(row_norm(runs.endpoints - joint)) <= 2e-8


@pytest.mark.parametrize("agent, index, seed", [(0, 40, 3), (1, 364, 4)])
def test_prescribed_neighbors_push_the_input_at_least_as_far(ref_model, ref_grid, ref_params,
                                                             ref_window, agent, index, seed):
    ts = build_transition_system(ref_model, ref_grid, ref_params, agent, ref_window,
                                 substeps=64)
    transition = ts.transitions[index]
    check = verify_transition(ref_model, ref_grid, ref_params, transition, ref_window,
                              trials=200, seed=seed, substeps=64)
    joint_max = constructive_neighbors_run(ref_model, ref_grid, ref_params, transition,
                                           ref_window, trials=200, seed=seed,
                                           substeps=64)[3]
    assert joint_max <= check.max_input <= ref_model.input_bound


def test_verify_transition_rejects_starts_outside_the_source_cell(ref_model, ref_grid,
                                                                  ref_params, ref_window,
                                                                  monkeypatch):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    # a negative inset pushes the sampled corners out of the cell
    monkeypatch.setattr(ga.GridDecomposition, "corner_inset", -1e-3 * ref_grid.side)
    with pytest.raises(ValueError, match="run 0: agent 0 starts at"):
        verify_transition(ref_model, ref_grid, ref_params, ts.transitions[10], ref_window,
                          trials=10, seed=0, substeps=16)


def test_verify_transition_rejects_actions_outside_the_window(ref_model, ref_grid,
                                                              ref_params, ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                 substeps=16)
    transition = ts.transitions[0]
    assert transition.action == ((-1, -1),) * 3
    with pytest.raises(ValueError, match="outside the window"):
        verify_transition(ref_model, ref_grid, ref_params, transition,
                          Window(((-1, 1), (0, 1))), trials=10, seed=0, substeps=16)


@pytest.mark.parametrize("agent", [1, 2])
def test_the_input_violation_names_the_agent_under_test(ref_model, ref_grid, ref_params,
                                                        ref_window, monkeypatch, agent):
    ts = build_transition_system(ref_model, ref_grid, ref_params, agent, ref_window,
                                 substeps=16)
    # a negative slack puts every logged |k| over the budget
    monkeypatch.setattr(simulate, "INPUT_ATOL", -1.0)
    with pytest.raises(InputBoundViolation, match=f"agent {agent} applied") as info:
        verify_transition(ref_model, ref_grid, ref_params, ts.transitions[10], ref_window,
                          trials=10, seed=0, substeps=16)
    assert info.value.agent == agent


@pytest.mark.parametrize("origin", [(0.0, 0.0), (1e6, -1e6)])
@pytest.mark.parametrize("builtin", [ga.saturated_consensus, ga.smooth_consensus, None],
                         ids=["saturated_consensus", "smooth_consensus", "drifting"])
def test_build_targets_are_the_controllers_targets(path_network, ref_grid, ref_window,
                                                   request, monkeypatch, builtin, origin):
    grid = ga.GridDecomposition(2, ref_grid.side, origin)
    if builtin is None:
        model, params = request.getfixturevalue("drift_setup")
    else:
        model = builtin(path_network, gain=0.5, input_bound=0.5)
        params = ga.check_discretization(model, grid.diameter(), 0.02)
    integrate = abstraction.reference_endpoints
    batches = []

    def recording_endpoints(model, params, agent, refs, substeps):
        endpoint = integrate(model, params, agent, refs, substeps)
        batches.append((refs, endpoint))
        return endpoint

    monkeypatch.setattr(abstraction, "reference_endpoints", recording_endpoints)
    moved = False
    for agent in range(3):
        for m in (model, undeclared(model)):
            batches.clear()
            ts = build_transition_system(m, grid, params, agent, ref_window, substeps=32)
            bank = ControllerBank(m, grid, params, agent, ts.action_cells, substeps=32)
            np.testing.assert_array_equal(ts.target_cells, bank.target_cells())
            # each integrated row, found by its reference points, ends where the
            # bank's member ends, bit for bit
            row_of = {r.tobytes(): k for k, r in enumerate(ts.reference_points)}
            rows = [row_of[r.tobytes()] for refs, _ in batches for r in refs]
            endpoints = np.concatenate([e for _, e in batches])
            assert endpoints.shape == (len(rows), 2)
            np.testing.assert_array_equal(endpoints.view(np.int64),
                                          bank.endpoint[rows].view(np.int64))
            moved |= bool(np.any(ts.target_cells != ts.action_cells[:, 0]))
    # only the drifting model's targets leave their sources
    assert moved == (builtin is None)


def test_marginal_classes_are_integrated_row_by_row(ref_model, ref_grid, ref_params,
                                                   ref_window, monkeypatch):
    full = build_transition_system(undeclared(ref_model), ref_grid, ref_params, 1,
                                   ref_window, substeps=16)
    sizes = record_batch_sizes(monkeypatch)
    # every endpoint is within one side of a face: every class is marginal, and the
    # 729 - 361 rows that are not a class's first are integrated again
    monkeypatch.setattr(abstraction, "MARGINAL_REL", 1.0)
    relative = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                       substeps=16)
    assert sizes == [361, 368]
    assert relative == full


def test_an_agent_without_neighbors_is_one_class(ref_grid, ref_window, monkeypatch):
    model = ga.saturated_consensus(ga.AgentNetwork.from_edges(2, 3, [(0, 1)]), gain=0.5,
                                   input_bound=0.4)
    lo, hi = ga.admissible_period_interval(model, ref_grid.diameter())
    params = ga.check_discretization(model, ref_grid.diameter(), 0.5 * (lo + hi))
    sizes = record_batch_sizes(monkeypatch)
    relative = build_transition_system(model, ref_grid, params, 2, ref_window, substeps=8)
    assert sizes == [1]
    assert relative == build_transition_system(undeclared(model), ref_grid, params, 2,
                                                ref_window, substeps=8)


def test_verify_transition_of_an_agent_without_neighbors(ref_grid, ref_window):
    model = ga.saturated_consensus(ga.AgentNetwork.from_edges(2, 3, [(0, 1)]), gain=0.5,
                                   input_bound=0.4)
    lo, hi = ga.admissible_period_interval(model, ref_grid.diameter())
    params = ga.check_discretization(model, ref_grid.diameter(), 0.5 * (lo + hi))
    ts = build_transition_system(model, ref_grid, params, 2, ref_window, substeps=12)
    check = verify_transition(model, ref_grid, params, ts.transitions[3], ref_window,
                              trials=20, seed=1, substeps=12)
    assert check.min_margin > 0.0 and 0.0 < check.max_input <= model.input_bound


@pytest.mark.parametrize("substeps, strided", [(256, 32), (16, 2), (12, 2), (5, 1)])
def test_neighbor_signals_stay_in_the_inflated_cells(ref_grid, ref_params, substeps,
                                                     strided):
    cells = np.array([[0, 0], [3, -2]])
    times = knot_times(0.0, ref_params.period, substeps)
    signals = abstraction._neighbor_signals(ref_grid, ref_params, cells, times, 40,
                                            np.random.default_rng(6))
    # waypoints at every strided knot of the bank, the last knot included
    np.testing.assert_array_equal(signals.times, np.append(times[:-1:strided], times[-1]))
    assert len(signals.times) <= abstraction.SIGNAL_SEGMENTS + 1
    assert not np.any(signals.derivs)
    queries = np.linspace(0.0, ref_params.period, 1001)
    states = np.stack([signals.at(t) for t in queries])
    assert states.shape == (1001, 40, 2, 2)
    assert np.all(ref_grid.inflated_contains(cells, ref_params.reach_radius, states))
    # the waypoints reach beyond the cells, into the inflation
    assert np.any(ref_grid.distance_to_cell(cells, states) > 0.5 * ref_params.reach_radius)


def test_build_memory_does_not_grow_with_substeps(ref_model, ref_grid, ref_params,
                                                  ref_window, monkeypatch):
    # batches of 64 rows split the 361 offset classes at either count
    monkeypatch.setattr(abstraction, "BUILD_ROWS", 64)

    def peak(substeps):
        tracemalloc.start()
        try:
            ts = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                         substeps=substeps)
            return len(ts.transitions), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # one-time allocations of a first call
    coarse_count, coarse = peak(16)
    fine_count, fine = peak(128)
    assert coarse_count == fine_count == 729
    assert fine <= 1.25 * coarse


def test_build_rejects_a_non_finite_reference_endpoint(ref_model, ref_grid, ref_params,
                                                       ref_window):
    def nan_field(own, nbrs):
        return np.full_like(own, np.nan)

    nan_model = ga.DynamicsModel(ref_model.network, (nan_field,) * 3,
                                 ref_model.feedback_bound, ref_model.neighbor_lipschitz,
                                 ref_model.self_lipschitz, ref_model.input_bound)
    with pytest.raises(ValueError, match="non-finite"):
        build_transition_system(nan_model, ref_grid, ref_params, 0, ref_window, substeps=4)


def test_json_round_trip(ref_model, ref_grid, ref_params, ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    text = to_json(ts)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["agent"] == 0
    assert len(parsed["transitions"]) == 81
    back = from_json(text)
    assert back == ts
    assert to_json(back) == text
    empty = abstraction.TransitionSystem.from_transitions(0, ref_window, [])
    assert from_json(to_json(empty)) == empty != ts


def small_json_system():
    """A two-transition agent-1 system as parsed JSON."""
    rows = [Transition(1, (0, 0), ((0, 0), (1, 0), (-1, 1)), (0, 1),
                       ((0.5, 0.5), (1.5, 0.5), (-0.5, 1.5))),
            Transition(1, (1, 0), ((1, 0), (1, 0), (0, 0)), (1, 0),
                       ((1.5, 0.5), (1.5, 0.5), (0.5, 0.5)))]
    ts = abstraction.TransitionSystem.from_transitions(1, Window(((-1, 1), (-1, 1))), rows)
    return json.loads(to_json(ts))


@pytest.mark.parametrize("tamper", [
    lambda recs: recs[1].update(source=[0, 0]),
    lambda recs: recs[0]["reference_point"].pop(),
    lambda recs: recs[1].update(action=recs[1]["action"][:2],
                                reference_point=recs[1]["reference_point"][:2]),
], ids=["source-not-first-action-cell", "reference-count", "action-lengths-differ"])
def test_from_json_rejects_malformed_records(tamper):
    obj = small_json_system()
    from_json(json.dumps(obj))
    tamper(obj["transitions"])
    with pytest.raises(ValueError):
        from_json(json.dumps(obj))


def test_post_set_of_an_unrecorded_action_is_empty():
    ts = from_json(json.dumps(small_json_system()))
    assert ts.post_set((0, 0), ((0, 0), (1, 0), (-1, 1))) == {(0, 1)}
    assert ts.post_set((0, 0), ((0, 0), (1, 0), (-1, 0))) == set()
    assert ts.post_set((0, 0), ((0, 0), (1, 0))) == set()
    assert ts.post_set((0, 0), ((0, 0), (1, 0), (-1, 1), (0, 0))) == set()
    assert ts.post_set((0, 0), ((0, 0), (1, 0), (-1,))) == set()


def test_post_set_of_an_empty_system_is_empty(ref_window):
    empty = abstraction.TransitionSystem.from_transitions(0, ref_window, [])
    for ts in (empty, from_json(to_json(empty))):
        assert ts.post_set((0, 0), ((0, 0),)) == set()
        assert ts.post_set((0, 0), ((0, 0), (1, 0))) == set()


def test_transition_rows_read_the_arrays(ref_model, ref_grid, ref_params, ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    rows = ts.transitions
    assert len(rows) == 81
    listed = list(rows)
    assert [t.action for t in listed] == list(itertools.product(ref_window.cells(), repeat=2))
    for k, t in enumerate(listed):
        assert t.action == tuple(map(tuple, ts.action_cells[k].tolist()))
        assert t.target == tuple(ts.target_cells[k].tolist())
        assert t.reference_points == tuple(map(tuple, ts.reference_points[k].tolist()))
    assert rows[-1] == listed[-1] and rows[-81] == listed[0]
    assert rows[10:40:3] == tuple(listed[10:40:3])
    assert rows[::-1] == tuple(reversed(listed))
    for k in (81, -82):
        with pytest.raises(IndexError):
            rows[k]


def test_build_retains_only_its_arrays(ref_model, ref_grid, ref_params):
    # 46,656 agent-1 transitions: three int64/float64 rows of 48 + 16 + 48 bytes
    build_transition_system(ref_model, ref_grid, ref_params, 1, Window(((0, 0), (0, 0))),
                            substeps=16)  # one-time allocations of a first call
    tracemalloc.start()
    try:
        ts = build_transition_system(ref_model, ref_grid, ref_params, 1,
                                     Window(((-3, 2), (-2, 3))), substeps=16)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ts.transitions) == 46656
    assert retained <= 160 * 46656


FINITE = st.floats(allow_nan=False, allow_infinity=False)

# floats whose text is easy to get wrong: signed zeros, subnormals, the extremes
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -4.94e-322, 2.2250738585072014e-308, 1e16, -1e-05, 0.1,
               1.7976931348623157e308)


@st.composite
def transition_systems(draw, floats=FINITE):
    """Small windows of one or two axes with a few arbitrary transitions."""
    dim = draw(st.integers(1, 2))
    ranges = []
    for _ in range(dim):
        lo = draw(st.integers(-3, 3))
        ranges.append((lo, lo + draw(st.integers(0, 2))))
    window = Window(tuple(ranges))
    agent = draw(st.integers(0, 5))
    any_cell = st.tuples(*[st.integers(-5, 5)] * dim)
    point = st.tuples(*[floats] * dim)
    degree = draw(st.integers(0, 2))
    transitions = []
    for _ in range(draw(st.integers(0, 6))):
        source = draw(st.sampled_from(window.cells()))
        action = (source, *draw(st.lists(any_cell, min_size=degree, max_size=degree)))
        transitions.append(Transition(
            agent=agent, source=source, action=action, target=draw(any_cell),
            reference_points=draw(st.lists(point, min_size=degree + 1,
                                           max_size=degree + 1))))
    return abstraction.TransitionSystem.from_transitions(agent, window, transitions)


@settings(max_examples=200, deadline=None)
@given(ts=transition_systems())
def test_json_round_trip_of_any_small_system(ts):
    assert from_json(to_json(ts)) == ts


@settings(max_examples=100, deadline=None)
@given(ts=transition_systems())
def test_actions_and_post_sets_agree_with_the_rows(ts):
    rows = list(ts.transitions)
    assert ts.actions == tuple(dict.fromkeys(t.action for t in rows))
    for t in rows:
        assert ts.post_set(t.source, t.action) == {u.target for u in rows
                                                   if u.action == t.action}


def reference_to_json(ts):
    """The ``json.dumps`` encoding that `to_json` writes from row templates."""
    obj = {
        "agent": ts.agent,
        "window": [list(r) for r in ts.window.ranges],
        "states": [list(z) for z in ts.states],
        "transitions": [
            {"source": action[0], "action": action, "target": target,
             "reference_point": refs}
            for action, target, refs in zip(ts.action_cells.tolist(), ts.target_cells.tolist(),
                                            ts.reference_points.tolist())
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def reference_to_dot(ts):
    """The f-string DOT export that `to_dot` writes from row templates."""
    lines = [f"digraph agent_{ts.agent} {{"]
    for z in ts.states:
        lines.append(f'  "{z}";')
    for action, target in zip(ts.action_cells.tolist(), ts.target_cells.tolist()):
        action = tuple(map(tuple, action))
        lines.append(f'  "{action[0]}" -> "{tuple(target)}" [label="{action}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(ts=transition_systems(st.one_of(st.sampled_from(EDGE_FLOATS), FINITE)))
def test_template_writers_equal_the_reference_writers(ts):
    assert to_json(ts) == reference_to_json(ts)
    assert to_dot(ts) == reference_to_dot(ts)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_template_writers_on_edge_floats(dim, degree):
    values = itertools.cycle(EDGE_FLOATS)
    rows = [Transition(4, (k,) * dim, ((k,) * dim,) + ((-k,) * dim,) * degree, (k + 1,) * dim,
                       [[next(values) for _ in range(dim)] for _ in range(degree + 1)])
            for k in range(-2, 3)]
    ts = abstraction.TransitionSystem.from_transitions(4, Window(((-2, 2),) * dim), rows)
    text = to_json(ts)
    assert text == reference_to_json(ts)
    assert to_dot(ts) == reference_to_dot(ts)
    # the text keeps the sign of zero
    assert np.signbit(from_json(text).reference_points).tolist() == \
        np.signbit(ts.reference_points).tolist()


def assert_same_text(text, expected):
    """``text == expected``; a mismatch names the first differing character, since
    pytest's diff of two long one-line strings takes minutes."""
    if text != expected:
        k = next((k for k, (a, b) in enumerate(zip(text, expected)) if a != b),
                 min(len(text), len(expected)))
        pytest.fail(f"texts differ at character {k}: {text[k - 30:k + 30]!r} "
                    f"!= {expected[k - 30:k + 30]!r}")


def test_writers_keep_signed_zeros_among_repeated_values():
    rng = np.random.default_rng(5)
    cells = rng.integers(-1, 2, (4000, 3, 2))
    refs = np.array([0.0, -0.0, 0.5, -1.25])[rng.integers(0, 4, cells.shape)]
    refs[:2, 0, 0] = 0.0, -0.0
    ts = abstraction.TransitionSystem(2, Window(((-1, 1), (-1, 1))), cells, cells[:, 1], refs)
    text = to_json(ts)
    assert_same_text(text, reference_to_json(ts))
    assert_same_text(to_dot(ts), reference_to_dot(ts))
    assert np.array_equal(np.signbit(from_json(text).reference_points), np.signbit(refs))


def test_writers_where_no_reference_point_repeats(ref_model, ref_grid, ref_params, ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window, substeps=16)
    refs = ref_grid.uniform_in_cells(ts.action_cells, np.random.default_rng(3))
    drawn = abstraction.TransitionSystem(1, ref_window, ts.action_cells, ts.target_cells, refs)
    assert len(np.unique(refs)) == refs.size == 729 * 3 * 2
    assert_same_text(to_json(drawn), reference_to_json(drawn))
    assert_same_text(to_dot(drawn), reference_to_dot(drawn))


def test_json_export_memory_stays_near_its_output(ref_model, ref_grid, ref_params):
    # the 15,625-row agent-1 system of a 5x5 window
    ts = build_transition_system(ref_model, ref_grid, ref_params, 1,
                                 Window(((-2, 2), (-2, 2))), substeps=16)
    to_json(ts)  # one-time allocations of a first call
    tracemalloc.start()
    try:
        text = to_json(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_reference_points_are_rejected(bad):
    rows = [Transition(0, (0,), ((0,), (1,)), (0,), ((0.5,), (bad,)))]
    with pytest.raises(ValueError, match="non-finite"):
        abstraction.TransitionSystem.from_transitions(0, Window(((0, 1),)), rows)
    obj = small_json_system()
    obj["transitions"][1]["reference_point"][2][0] = bad
    text = json.dumps(obj)  # json.dumps writes Infinity and NaN, json.loads reads them
    with pytest.raises(ValueError, match="non-finite"):
        from_json(text)


def test_dot_export_mentions_states_and_edges(ref_model, ref_grid, ref_params,
                                              ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    dot = to_dot(ts)
    assert dot.startswith("digraph")
    t = ts.transitions[0]
    assert f'"{t.source}"' in dot
    assert "->" in dot


def test_plan_controllers_need_admissible_params(ref_model, ref_grid):
    bad = ga.check_discretization(ref_model, ref_grid.diameter(), 0.005)
    cells = ((0, 0), (1, 0), (0, 1))
    with pytest.raises(FeasibilityError, match="not admissible"):
        abstraction.plan_controllers(ref_model, ref_grid, bad, cells, cells, substeps=16)
