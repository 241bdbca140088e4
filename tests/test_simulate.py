"""Closed-loop integration against the reference trajectories."""

import dataclasses

import numpy as np
import pytest

import gridabs as ga
from gridabs.controller import ControllerBank
from gridabs.dynamics import project_configuration
from gridabs.geometry import DISTANCE_ATOL, CellConfiguration, box_distance, row_norm
from gridabs.integrate import DenseTrajectory, rk4_path
from gridabs.simulate import (InputBoundViolation, IntegrationError, check_input_bound,
                              integrate_closed_loop, integrate_closed_loop_batch)


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


# the plain loop integrates on its own grid of ``loop_substeps`` steps
@pytest.mark.parametrize("bank_substeps, loop_substeps", [(32, 32)])
def test_stage_reuse_is_bit_identical(path_network, ref_grid, bank_substeps,
                                      loop_substeps):
    # nonlinear at cell scale, so a reference value taken at the wrong time
    # would move the endpoint far beyond roundoff
    model = ga.smooth_consensus(path_network, gain=0.001, input_bound=0.02, scale=20.0)
    params = ga.check_discretization(model, ref_grid.diameter(), 0.02)
    banks, x0 = random_banks(model, ref_grid, params, 4, np.random.default_rng(21),
                             bank_substeps)
    trajectory, report = integrate_closed_loop_batch(banks, x0)
    states = plain_closed_loop(model, banks, x0, loop_substeps)
    np.testing.assert_array_equal(trajectory.states, states)
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


# per agent: evaluator calls and dense queries per RK4 step, then those of the
# first knot (k1's three state-dependent evaluations; its reference is stored)
@pytest.mark.parametrize("bank_substeps, evals, queries, first_evals, first_queries",
                         [(32, 11, 1, 3, 0)])
def test_stage_values_are_evaluated_once(ref_model, ref_grid, ref_params, monkeypatch,
                                         bank_substeps, evals, queries, first_evals,
                                         first_queries):
    """Per agent and RK4 step: the plant and the coupling cancellation at each
    of the four stages, the half-step reference field and the drift at both
    distinct stage times, and one dense query. The knots read the banks'
    stored reference and its field, and so does the residual check."""
    steps = bank_substeps
    calls = {"eval": 0, "at": 0}
    model = counted(ref_model, calls)
    banks, x0 = random_banks(model, ref_grid, ref_params, 5, np.random.default_rng(4),
                             bank_substeps)
    at = DenseTrajectory.at

    def counting_at(self, t):
        calls["at"] += 1
        return at(self, t)

    monkeypatch.setattr(DenseTrajectory, "at", counting_at)
    calls.update(eval=0, at=0)
    integrate_closed_loop_batch(banks, x0)
    assert calls["eval"] == 3 * (evals * steps + first_evals)
    assert calls["at"] == 3 * (queries * steps + first_queries)


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
