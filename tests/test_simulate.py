"""Closed-loop integration against the reference trajectories."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import gridabs as ga
from gridabs import simulate
from gridabs.controller import ControllerBank
from gridabs.dynamics import project_configuration
from gridabs.geometry import DISTANCE_ATOL, CellConfiguration, box_distance, row_norm
from gridabs.integrate import DenseTrajectory, rk4_path
from gridabs.simulate import (INPUT_ATOL, AgentRuns, InputBoundViolation, IntegrationError,
                              Trajectory, check_input_bound, exceeds_input_bound,
                              integrate_agent_batch, integrate_closed_loop,
                              integrate_closed_loop_batch)


def make_controllers(model, grid, params, cells, rng=None, substeps=64):
    out = []
    for i in range(model.network.agent_count):
        cfg = project_configuration(model.network, cells, i)
        refs = None
        if rng is not None:
            refs = np.array([[grid.sample_in_cell(z, rng)[0] for z in cfg.cells]])
        out.append(ControllerBank(model, grid, params, cfg.agent, [cfg.cells],
                                  reference_points=refs, substeps=substeps))
    return out


@pytest.fixture()
def joint_setup(ref_model, ref_grid, ref_params):
    cells = ((0, 0), (1, 0), (1, 1))
    controllers = make_controllers(ref_model, ref_grid, ref_params, cells)
    rng = np.random.default_rng(8)
    x0 = np.stack([ref_grid.sample_in_cell(z, rng)[0] for z in cells])
    return cells, controllers, x0


def test_endpoints_match_reference(joint_setup, ref_model, ref_grid):
    cells, controllers, x0 = joint_setup
    trajectory, report = integrate_closed_loop(controllers, x0)
    for i, c in enumerate(controllers):
        np.testing.assert_allclose(trajectory.states[-1, i], c.endpoint[0], atol=1e-12)
        assert ref_grid.cell_of(trajectory.states[-1, i]) == tuple(c.target_cells()[0].tolist())
    assert max(report.endpoint_deviation) <= 1e-12
    assert max(report.interpolation_deviation) <= 1e-12
    assert all(report.containment_ok)
    assert max(report.max_input) <= ref_model.input_bound + 1e-12


def test_interpolation_identity_holds_along_the_run(joint_setup):
    cells, controllers, x0 = joint_setup
    _, report = integrate_closed_loop(controllers, x0)
    residuals = report.interpolation_deviation
    assert residuals.shape == (3,)
    assert residuals.max() <= 1e-12


def test_initial_state_must_match_declared_cell(joint_setup):
    cells, controllers, x0 = joint_setup
    shifted = x0.copy()
    shifted[0] += 10.0
    with pytest.raises(ValueError):
        integrate_closed_loop(controllers, shifted)


def test_start_check_names_the_first_stray_run(joint_setup):
    cells, controllers, x0 = joint_setup
    batch = np.repeat(x0[None], 4, axis=0)
    batch[3, 0] += 10.0
    batch[2, 2] += 10.0
    batch[2, 1] += 10.0
    with pytest.raises(ValueError, match=r"run 2: agent 1 starts at"):
        integrate_closed_loop_batch(controllers, batch)


def test_neighbor_declarations_must_agree(ref_model, ref_grid, ref_params):
    cells = ((0, 0), (1, 0), (1, 1))
    controllers = make_controllers(ref_model, ref_grid, ref_params, cells)
    # agent 0 declares a neighbor cell that agent 1 does not occupy
    wrong = CellConfiguration(agent=0, cells=((0, 0), (-1, -1)))
    controllers[0] = ControllerBank(ref_model, ref_grid, ref_params, wrong.agent,
                                    [wrong.cells], substeps=64)
    rng = np.random.default_rng(8)
    x0 = np.stack([ref_grid.sample_in_cell(z, rng)[0] for z in cells])
    with pytest.raises(ValueError):
        integrate_closed_loop(controllers, x0)


def test_controllers_must_be_banks(joint_setup):
    cells, controllers, x0 = joint_setup
    controllers[1] = object()
    with pytest.raises(TypeError):
        integrate_closed_loop(controllers, x0)


def test_controllers_must_share_the_period(ref_model, ref_grid, ref_params):
    cells = ((0, 0), (1, 0), (1, 1))
    controllers = make_controllers(ref_model, ref_grid, ref_params, cells)
    other = dataclasses.replace(ref_params, period=0.025)
    cfg = project_configuration(ref_model.network, cells, 2)
    controllers[2] = ControllerBank(ref_model, ref_grid, other, cfg.agent, [cfg.cells],
                                    substeps=64)
    rng = np.random.default_rng(8)
    x0 = np.stack([ref_grid.sample_in_cell(z, rng)[0] for z in cells])
    with pytest.raises(ValueError):
        integrate_closed_loop(controllers, x0)


def test_controllers_must_share_the_model(ref_model, ref_grid, ref_params):
    # the plant is the banks' model, so a bank built from another model is refused
    cells = ((0, 0), (1, 0), (1, 1))
    controllers = make_controllers(ref_model, ref_grid, ref_params, cells)
    other = ga.smooth_consensus(ref_model.network, 0.5, 0.5, scale=3.0)
    controllers[1] = make_controllers(other, ref_grid, ref_params, cells)[1]
    rng = np.random.default_rng(8)
    x0 = np.stack([ref_grid.sample_in_cell(z, rng)[0] for z in cells])
    with pytest.raises(ValueError, match="disagree on the model"):
        integrate_closed_loop(controllers, x0)


def test_trajectory_shapes(ref_model, ref_grid, ref_params):
    cells = ((0, 0), (1, 0), (1, 1))
    controllers = make_controllers(ref_model, ref_grid, ref_params, cells, substeps=32)
    rng = np.random.default_rng(8)
    x0 = np.stack([ref_grid.sample_in_cell(z, rng)[0] for z in cells])
    trajectory, _ = integrate_closed_loop(controllers, x0)
    assert trajectory.times.shape == (33,)
    assert trajectory.states.shape == (33, 3, 2)
    assert trajectory.input_magnitudes.shape == (33, 3)
    assert trajectory.times[0] == 0.0
    assert trajectory.times[-1] == controllers[0].period


def test_input_bound_checker_flags_tight_budget(joint_setup, ref_model, ref_params):
    cells, controllers, x0 = joint_setup
    trajectory, report = integrate_closed_loop(controllers, x0)
    maxima = check_input_bound(trajectory, ref_model)
    np.testing.assert_allclose(maxima, report.max_input, rtol=1e-12)
    # the budget lives on the model: the same constants with half the logged maximum
    squeezed = ga.DynamicsModel(ref_model.network, None, ref_model.feedback_bound,
                                ref_model.neighbor_lipschitz, ref_model.self_lipschitz,
                                input_bound=0.5 * max(maxima))
    with pytest.raises(InputBoundViolation) as info:
        check_input_bound(trajectory, squeezed)
    assert info.value.magnitude > squeezed.input_bound
    assert 0.0 <= info.value.time <= ref_params.period


def test_finite_magnitudes_compare_with_the_budget_plus_its_slack(ref_model):
    v = ref_model.input_bound
    assert not exceeds_input_bound(v + INPUT_ATOL, v)
    assert exceeds_input_bound(np.nextafter(v + INPUT_ATOL, np.inf), v)
    assert exceeds_input_bound(np.nan, v)


def test_a_nan_magnitude_breaks_the_budget(ref_model):
    # a NaN fails every comparison; the checker must not read that as "within budget"
    times = np.array([0.0, 0.01, 0.02])
    mags = np.array([[0.1, 0.2, 0.1], [0.1, 0.2, np.nan], [0.1, np.nan, 0.3]])
    trajectory = Trajectory(times=times, states=np.zeros((3, 3, 2)), input_magnitudes=mags,
                            contained=np.ones((3, 3), dtype=bool))
    with pytest.raises(InputBoundViolation,
                       match=r"^agent 2 applied \|input\| that is not a number at t = 0\.01$"):
        check_input_bound(trajectory, ref_model)
    runs = AgentRuns(agent=1, times=times, endpoints=np.zeros((1, 2)),
                     input_magnitudes=mags[:, 1:2, None])
    with pytest.raises(InputBoundViolation, match="not a number") as info:
        check_input_bound(runs, ref_model)
    assert info.value.agent == 1 and info.value.time == 0.02


def test_non_finite_state_raises_at_its_knot(ref_model, ref_grid, ref_params):
    # the field is NaN unless every neighbor sits on its cell center: the
    # frozen-neighbor references stay finite, the closed loop does not
    cells = ((0, 0), (1, 0), (1, 1))
    net = ref_model.network
    centers = np.array([ref_grid.cell_center(z) for z in cells])

    def evaluator(i):
        frozen = centers[list(net.neighbors[i])]

        def evaluate(own, nbrs):
            at_centers = np.all(nbrs == frozen, axis=(-2, -1))
            return np.where(at_centers[..., None], 0.0 * own, np.nan)
        return evaluate

    model = ga.DynamicsModel(net, [evaluator(i) for i in range(3)], ref_model.feedback_bound,
                             ref_model.neighbor_lipschitz, ref_model.self_lipschitz,
                             ref_model.input_bound)
    controllers = make_controllers(model, ref_grid, ref_params, cells, substeps=16)
    assert all(np.all(np.isfinite(c.dense.states)) for c in controllers)
    x0 = centers + 0.1 * ref_grid.side
    with pytest.raises(IntegrationError, match=r"^non-finite state after t = 0\.00125$"):
        integrate_closed_loop(controllers, x0)


def random_banks(model, grid, params, runs, rng, substeps):
    """Banks of ``runs`` random joint configurations and starts inside them."""
    cells = [tuple(tuple(int(v) for v in rng.integers(-1, 2, 2)) for _ in range(3))
             for _ in range(runs)]
    banks = []
    for i in range(3):
        member_cells = [project_configuration(model.network, cells[b], i).cells
                        for b in range(runs)]
        refs = np.array([[grid.sample_in_cell(z, rng)[0] for z in mc]
                         for mc in member_cells])
        banks.append(ControllerBank(model, grid, params, i, member_cells, refs,
                                    substeps=substeps))
    x0 = np.stack([np.stack([grid.sample_in_cell(cells[b][i], rng)[0]
                             for i in range(3)]) for b in range(runs)])
    return banks, x0


def test_batch_matches_single_runs(ref_model, ref_grid, ref_params):
    B = 6
    banks, x0 = random_banks(ref_model, ref_grid, ref_params, B,
                             np.random.default_rng(15), 32)
    batched, report = integrate_closed_loop_batch(banks, x0)
    assert batched.states.shape == (33, B, 3, 2)
    assert report.max_input.shape == (B, 3)
    for b in range(B):
        singles = [ControllerBank(
            ref_model, ref_grid, ref_params, i, banks[i].cell_array[b][None],
            reference_points=banks[i].reference_points[b][None], substeps=32)
            for i in range(3)]
        single, _ = integrate_closed_loop(singles, x0[b])
        np.testing.assert_allclose(batched.states[:, b], single.states, atol=1e-14)


def test_batched_report_reduces_each_run(ref_model, ref_grid, ref_params):
    B = 5
    banks, x0 = random_banks(ref_model, ref_grid, ref_params, B,
                             np.random.default_rng(16), 32)
    trajectory, report = integrate_closed_loop_batch(banks, x0)
    for field in dataclasses.fields(report):
        assert getattr(report, field.name).shape == (B, 3)
    for b in range(B):
        np.testing.assert_array_equal(report.max_input[b],
                                      trajectory.input_magnitudes[:, b].max(axis=0))
        np.testing.assert_array_equal(report.containment_ok[b],
                                      trajectory.contained[:-1, b].all(axis=0))
        for i, bank in enumerate(banks):
            assert report.endpoint_deviation[b, i] == row_norm(
                trajectory.states[-1, b, i] - bank.endpoint[b])


def merged(reports):
    """The list fold of per-run reports that `MonitorReport.worst` replaces."""
    return ga.MonitorReport(
        max_input=np.max([r.max_input for r in reports], axis=0),
        containment_ok=np.min([r.containment_ok for r in reports], axis=0).astype(bool),
        endpoint_deviation=np.max([r.endpoint_deviation for r in reports], axis=0),
        interpolation_deviation=np.max([r.interpolation_deviation for r in reports], axis=0))


def test_worst_equals_the_fold_of_per_run_reports(ref_model, ref_grid, ref_params):
    banks, x0 = random_banks(ref_model, ref_grid, ref_params, 6,
                             np.random.default_rng(17), 32)
    _, report = integrate_closed_loop_batch(banks, x0)
    # one run's containment lost, so the AND has a False to keep
    report.containment_ok[2, 1] = False
    rows = [ga.MonitorReport(*(getattr(report, f.name)[b] for f in dataclasses.fields(report)))
            for b in range(6)]
    worst, reference = report.worst(), merged(rows)
    for field in dataclasses.fields(report):
        got, want = getattr(worst, field.name), getattr(reference, field.name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert not worst.containment_ok[1]


def test_closed_loop_is_deterministic(joint_setup):
    cells, controllers, x0 = joint_setup
    a, _ = integrate_closed_loop(controllers, x0)
    b, _ = integrate_closed_loop(controllers, x0)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.input_magnitudes, b.input_magnitudes)


def plain_closed_loop(model, banks, x0, substeps):
    """RK4 states with the full feedback evaluated afresh at every stage."""
    net = model.network
    starts = [x0[:, i].copy() for i in range(net.agent_count)]

    def rate(t, y):
        u = np.empty_like(y)
        for i, bank in enumerate(banks):
            own, nbrs = y[:, i], y[:, list(net.neighbors[i])]
            u[:, i] = (model.evaluator(i)(own, nbrs)
                       + bank.feedback(t, own, nbrs, starts[i]))
        return u

    return rk4_path(rate, x0, 0.0, banks[0].period, substeps)[1]


def undeclared(model):
    """``model`` without its translation-invariance declaration."""
    return ga.DynamicsModel(model.network, model.evaluators, model.feedback_bound,
                            model.neighbor_lipschitz, model.self_lipschitz,
                            model.input_bound)


def nonlinear_models(path_network):
    # nonlinear at cell scale, so a reference value taken at the wrong time
    # would move the endpoint far beyond roundoff; declared translation
    # invariant and not
    model = ga.smooth_consensus(path_network, gain=0.001, input_bound=0.02, scale=20.0)
    return model, undeclared(model)


# substeps that are and are not a multiple of a block's steps; 1,500 runs split
# the substeps into blocks of 2 steps
@pytest.mark.parametrize("substeps, runs", [(32, 32), (1, 4), (13, 4), (256, 4), (13, 1500)])
def test_stage_reuse_is_bit_identical(path_network, ref_grid, substeps, runs):
    for model in nonlinear_models(path_network):
        params = ga.check_discretization(model, ref_grid.diameter(), 0.02)
        banks, x0 = random_banks(model, ref_grid, params, runs, np.random.default_rng(21),
                                 substeps)
        trajectory, report = integrate_closed_loop_batch(banks, x0)
        states = plain_closed_loop(model, banks, x0, substeps)
        np.testing.assert_array_equal(trajectory.states, states)
        for i, bank in enumerate(banks):
            np.testing.assert_array_equal(report.endpoint_deviation[:, i],
                                          row_norm(states[-1, :, i] - bank.endpoint))
        if substeps == 32:
            assert report.endpoint_deviation.max() <= 1e-12
        # the monitors log the full feedback at the knot states, not at a stage
        for i, bank in enumerate(banks):
            nbrs = list(path_network.neighbors[i])
            mags = [np.linalg.norm(bank.feedback(t, y[:, i], y[:, nbrs], x0[:, i]), axis=-1)
                    for t, y in zip(trajectory.times, states)]
            np.testing.assert_array_equal(trajectory.input_magnitudes[:, :, i], mags)
            lo = ref_grid.cell_lo(bank.cell_array[:, 0])
            inside = (box_distance(lo, lo + ref_grid.side, states[:, :, i])
                      <= params.reach_radius + DISTANCE_ATOL)
            np.testing.assert_array_equal(trajectory.contained[:, :, i], inside)


def counted(model, calls):
    """The same model with evaluators that count their calls."""
    def wrap(evaluate):
        def counting(own, nbrs):
            calls["eval"] += 1
            return evaluate(own, nbrs)
        return counting
    return ga.DynamicsModel(model.network, [wrap(e) for e in model.evaluators],
                            model.feedback_bound, model.neighbor_lipschitz,
                            model.self_lipschitz, model.input_bound)


def counting_dense_queries(monkeypatch, calls):
    at = DenseTrajectory.at

    def counting_at(self, t):
        calls["at"] += 1
        return at(self, t)

    monkeypatch.setattr(DenseTrajectory, "at", counting_at)


def blocks_of(steps, runs):
    """Blocks of time-only stage values that ``runs`` runs take for ``steps`` steps."""
    per_block = max(1, simulate._BLOCK_ROWS // (2 * runs))
    return -(-steps // per_block)


# per agent: evaluator calls per RK4 step and at the first knot, then
# evaluator calls and dense queries per block of stage times
@pytest.mark.parametrize("steps, evals, first_evals, block_evals, block_queries",
                         [(32, 4, 1, 2, 1)])
def test_stage_values_are_evaluated_once(ref_model, ref_grid, ref_params, monkeypatch,
                                         steps, evals, first_evals, block_evals,
                                         block_queries):
    """Per agent: one evaluator call at each of the four stages of an RK4 step,
    which gives both the plant and the frozen field, and one at the first knot.
    Per agent and block of stage times: the drift's frozen field at all of the
    times and the reference field at the half steps (2 evaluations), and the
    reference at the half steps (1 dense query). The knots read the banks'
    stored reference and its field, and so does the residual check. The
    default bound holds the 32 steps of 5 runs in one block; 40 rows, in 8."""
    calls = {"eval": 0, "at": 0}
    model = counted(ref_model, calls)
    banks, x0 = random_banks(model, ref_grid, ref_params, 5, np.random.default_rng(4),
                             steps)
    counting_dense_queries(monkeypatch, calls)
    for block_rows, blocks in [(simulate._BLOCK_ROWS, 1), (40, 8)]:
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
        assert blocks_of(steps, 5) == blocks
        calls.update(eval=0, at=0)
        integrate_closed_loop_batch(banks, x0)
        assert calls["eval"] == 3 * (evals * steps + first_evals + block_evals * blocks)
        assert calls["at"] == 3 * block_queries * blocks


@pytest.mark.parametrize("substeps", [0, -1])
def test_closed_loop_needs_at_least_one_step(ref_model, ref_grid, ref_params, substeps):
    # the closed loop steps on its banks' grid, which is built with them
    with pytest.raises(ValueError, match="at least one step"):
        make_controllers(ref_model, ref_grid, ref_params, ((0, 0), (1, 0), (1, 1)),
                         substeps=substeps)


def test_controllers_must_share_the_substeps(ref_model, ref_grid, ref_params):
    cells = ((0, 0), (1, 0), (1, 1))
    controllers = make_controllers(ref_model, ref_grid, ref_params, cells, substeps=32)
    controllers[1:] = make_controllers(ref_model, ref_grid, ref_params, cells,
                                       substeps=64)[1:]
    rng = np.random.default_rng(8)
    x0 = np.stack([ref_grid.sample_in_cell(z, rng)[0] for z in cells])
    with pytest.raises(ValueError, match="substeps"):
        integrate_closed_loop(controllers, x0)


def agent_runs_setup(model, grid, params, runs, rng, substeps):
    """Agent 1's bank on cells ((0, 0), (1, 0), (1, 1)), ``runs`` starts in its cell
    and neighbor signals through random points of the neighbor cells at every 8th
    knot and the last one, with zero derivatives."""
    bank = make_controllers(model, grid, params, ((0, 0), (1, 0), (1, 1)), rng,
                            substeps)[1]
    cells = bank.cell_array[0]
    x0 = grid.sample_in_cell(cells[0], rng, runs)
    times = np.append(bank.dense.times[:-1:8], bank.dense.times[-1])
    points = grid.uniform_in_cells(np.broadcast_to(cells[1:], (len(times), runs, 2, 2)), rng)
    return bank, x0, DenseTrajectory(times, points, np.zeros_like(points))


def test_agent_loop_keeps_endpoints_and_magnitudes(ref_model, ref_grid, ref_params):
    bank, x0, signals = agent_runs_setup(ref_model, ref_grid, ref_params, 5,
                                         np.random.default_rng(3), 32)
    runs = integrate_agent_batch(bank, x0, signals)
    assert runs.agent == 1 and runs.agents == (1,)
    assert runs.endpoints.shape == (5, 2)
    assert runs.input_magnitudes.shape == (33, 5, 1)
    np.testing.assert_array_equal(runs.times, bank.dense.times)
    assert np.max(row_norm(runs.endpoints - bank.endpoint)) <= 1e-12
    np.testing.assert_array_equal(check_input_bound(runs, ref_model),
                                  runs.input_magnitudes.max(axis=0))
    squeezed = ga.DynamicsModel(ref_model.network, None, ref_model.feedback_bound,
                                ref_model.neighbor_lipschitz, ref_model.self_lipschitz,
                                input_bound=0.5 * runs.input_magnitudes.max())
    with pytest.raises(InputBoundViolation, match="agent 1 applied") as info:
        check_input_bound(runs, squeezed)
    assert info.value.agent == 1


def test_agent_loop_equals_the_plain_loop_bit_for_bit(path_network, ref_grid):
    # substeps that are and are not a multiple of a block's steps; 600 runs
    # split the substeps into blocks of 6 steps
    cases = [(4, 1), (4, 13), (4, 32), (4, 256), (600, 13), (600, 256)]
    for model in nonlinear_models(path_network):
        params = ga.check_discretization(model, ref_grid.diameter(), 0.02)
        evaluate = model.evaluator(1)
        for runs, substeps in cases:
            bank, x0, signals = agent_runs_setup(model, ref_grid, params, runs,
                                                 np.random.default_rng(21), substeps)

            def rate(t, y):
                nbrs = signals.at(t)
                return evaluate(y, nbrs) + bank.feedback(t, y, nbrs, x0)

            states = rk4_path(rate, x0, 0.0, bank.period, substeps)[1]
            agent_runs = integrate_agent_batch(bank, x0, signals)
            np.testing.assert_array_equal(agent_runs.endpoints, states[-1])
            mags = [row_norm(bank.feedback(t, y, signals.at(t), x0))
                    for t, y in zip(agent_runs.times, states)]
            np.testing.assert_array_equal(agent_runs.input_magnitudes[..., 0], mags)


def test_agent_loop_evaluates_stage_values_once(ref_model, ref_grid, ref_params,
                                                monkeypatch):
    """Per RK4 step: one evaluator call at each of the four stages, which gives
    both the plant and the frozen field; one more at the first knot. Per block
    of stage times: the drift's frozen field at all of the times and the
    reference field at the half steps (2 evaluations), the bank's reference at
    the half steps and the neighbor signals at all of the times (2 dense
    queries). The default bound holds the 32 steps of 5 runs in one block; 40
    rows, in 8."""
    calls = {"eval": 0, "at": 0}
    model = counted(ref_model, calls)
    bank, x0, signals = agent_runs_setup(model, ref_grid, ref_params, 5,
                                         np.random.default_rng(4), 32)
    counting_dense_queries(monkeypatch, calls)
    for block_rows, blocks in [(simulate._BLOCK_ROWS, 1), (40, 8)]:
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
        assert blocks_of(32, 5) == blocks
        calls.update(eval=0, at=0)
        integrate_agent_batch(bank, x0, signals)
        assert calls["eval"] == 4 * 32 + 1 + 2 * blocks
        assert calls["at"] == 2 * blocks


def test_agent_loop_memory_does_not_grow_with_the_substeps(ref_model, ref_grid, ref_params):
    # the time-only stage values are held one row-bounded block at a time. The
    # logged magnitudes, (K+1, B, 1), grow with the substeps K, and so does the
    # table of stage times, by a few dozen bytes a step; holding every stage's
    # drift and signals at once would add tens of megabytes here.
    peaks = []
    for substeps in (256, 1024):
        bank, x0, signals = agent_runs_setup(ref_model, ref_grid, ref_params, 600,
                                             np.random.default_rng(9), substeps)
        tracemalloc.start()
        try:
            runs = integrate_agent_batch(bank, x0, signals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append(peak - runs.input_magnitudes.nbytes)
    assert peaks[1] <= peaks[0] + 256 * 1024, peaks


def test_agent_loop_checks_its_starts_and_signals(ref_model, ref_grid, ref_params):
    bank, x0, signals = agent_runs_setup(ref_model, ref_grid, ref_params, 4,
                                         np.random.default_rng(5), 16)
    with pytest.raises(ValueError, match="neighbor signals"):
        integrate_agent_batch(bank, x0[:3], signals)
    x0[[2, 3]] += 10.0
    with pytest.raises(ValueError, match=r"run 2: agent 1 starts at"):
        integrate_agent_batch(bank, x0, signals)
