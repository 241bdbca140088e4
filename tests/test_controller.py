"""Hybrid feedback construction and its sampled input bound."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridabs.controller import ControllerBank, sample_feedback_bound, sample_inflated_cell
from gridabs.geometry import CellConfiguration, GridDecomposition


@pytest.fixture()
def controller(ref_model, ref_grid, ref_params):
    config = CellConfiguration(agent=1, cells=((0, 0), (1, 0), (-1, 1)))
    return ControllerBank(ref_model, ref_grid, ref_params, config.agent, [config.cells],
                          substeps=64)


def test_reference_defaults_to_cell_centers(controller, ref_grid):
    np.testing.assert_allclose(controller.reference_points[0, 0],
                               ref_grid.cell_center((0, 0)))
    np.testing.assert_allclose(controller.reference_points[0, 1],
                               ref_grid.cell_center((1, 0)))
    np.testing.assert_array_equal(controller.dense.at(0.0)[0],
                                  controller.reference_points[0, 0])


def test_reference_points_must_lie_in_their_cells(ref_model, ref_grid, ref_params):
    config = CellConfiguration(agent=0, cells=((0, 0), (1, 0)))
    good = np.array([ref_grid.cell_center((0, 0)), ref_grid.cell_center((1, 0))])
    ControllerBank(ref_model, ref_grid, ref_params, config.agent, [config.cells],
                   reference_points=good[None], substeps=16)
    bad = good.copy()
    bad[1] = ref_grid.cell_center((2, 2))
    with pytest.raises(ValueError):
        ControllerBank(ref_model, ref_grid, ref_params, config.agent, [config.cells],
                       reference_points=bad[None], substeps=16)


def test_reference_follows_frozen_field(controller):
    # derivative of the stored trajectory equals the field with neighbors pinned
    t = 0.25 * controller.period
    dt = 1e-7
    lhs = (controller.dense.at(t + dt)[0] - controller.dense.at(t - dt)[0]) / (2 * dt)
    rhs = controller.frozen_field(controller.dense.at(t))[0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_feedback_terms_vanish_where_expected(controller):
    x_g = controller.reference_points[:, 0]
    nbr_refs = controller.reference_points[:, 1:]
    # no live deviation, start at the reference point: every term is zero
    np.testing.assert_allclose(
        controller.coupling_cancellation(x_g, nbr_refs), 0.0, atol=1e-15)
    np.testing.assert_allclose(controller.offset_homing(x_g), 0.0, atol=1e-15)
    np.testing.assert_allclose(
        controller.drift_compensation(0.0, x_g), 0.0, atol=1e-15)
    # drift compensation dies out at the end of the period for any start
    other = x_g + np.array([1e-3, -5e-4])
    np.testing.assert_allclose(
        controller.drift_compensation(controller.period, other), 0.0, atol=1e-15)


def test_homing_term_scales_with_offset(controller):
    start = controller.reference_points[0, 0] + np.array([2e-3, -1e-3])
    expected = -np.array([2e-3, -1e-3]) / controller.period
    np.testing.assert_allclose(controller.offset_homing(start[None])[0], expected,
                               rtol=1e-12)


def test_feedback_rejects_negative_time(controller):
    x = controller.reference_points[:, 0]
    nbrs = controller.reference_points[:, 1:]
    with pytest.raises(ValueError):
        controller.feedback(-0.001, x, nbrs, x)


@pytest.mark.parametrize("t", [-1, np.array(-0.001), np.array([0.0, -0.001]), np.nan,
                               np.array([0.01, np.nan])])
def test_drift_compensation_rejects_negative_int_and_array_times(controller, t):
    with pytest.raises(ValueError, match="nonnegative"):
        controller.drift_compensation(t, controller.reference_points[:, 0])


@pytest.mark.parametrize("t", [0, 0.37 * 0.02, 0.02, 1, 0.05])
def test_scalar_time_matches_the_array_path(controller, t):
    # a Python int or float, a 0-d array and a row of a column of times beside
    # knots and half steps, as the closed loop's blocks pass them, give the
    # same drift term bit for bit
    rng = np.random.default_rng(4)
    start = controller.reference_points[:, 0] + 1e-3 * rng.normal(size=2)
    drift = controller.drift_compensation(t, start)
    np.testing.assert_array_equal(drift, controller.drift_compensation(np.array(t), start),
                                  strict=True)
    knots = controller.dense.times
    column = np.array([[0.5 * knots[1]], [t], [knots[2]]])
    np.testing.assert_array_equal(drift, controller.drift_compensation(column, start)[1],
                                  strict=True)


def test_feedback_clamps_beyond_period(controller):
    rng = np.random.default_rng(0)
    x = controller.reference_points[:, 0] + 1e-3 * rng.normal(size=2)
    nbrs = controller.reference_points[:, 1:] + 1e-3 * rng.normal(size=(2, 2))
    start = controller.reference_points[:, 0] + np.array([1e-3, 0.0])
    late = controller.feedback(controller.period * 2.0, x, nbrs, start)
    at_end = controller.feedback(controller.period, x, nbrs, start)
    np.testing.assert_array_equal(late, at_end)
    np.testing.assert_array_equal(controller.feedback(np.inf, x, nbrs, start), at_end)


def test_target_cell_matches_endpoint(controller, ref_grid):
    cells = controller.target_cells()
    assert cells.dtype == np.int64 and cells.shape == (1, 2)
    assert tuple(cells[0].tolist()) == ref_grid.cell_of(controller.endpoint[0])


@pytest.mark.parametrize("origin", [(0.0, 0.0), (1e6, -1e6)])
def test_bank_bookkeeping_matches_the_per_cell_helpers(ref_model, ref_params, origin):
    # default reference points and target cells come from whole-array
    # expressions; they equal the one-cell helpers bit for bit
    grid = GridDecomposition(2, 0.004 / np.sqrt(2.0), origin)
    rng = np.random.default_rng(8)
    configs = [tuple(tuple(int(v) for v in rng.integers(-6, 6, 2)) for _ in range(3))
               for _ in range(40)]
    bank = ControllerBank(ref_model, grid, ref_params, 1, configs, substeps=8)
    centers = np.array([[grid.cell_center(z) for z in cfg] for cfg in configs])
    assert bank.reference_points.tobytes() == centers.tobytes()
    assert bank.target_cells().tolist() == [list(grid.cell_of(p)) for p in bank.endpoint]
    refs = np.array([[grid.sample_in_cell(z, rng)[0] for z in cfg] for cfg in configs])
    bank = ControllerBank(ref_model, grid, ref_params, 1, configs, refs, substeps=8)
    assert bank.target_cells().tolist() == [list(grid.cell_of(p)) for p in bank.endpoint]


def seven_configurations(grid, rng):
    """Seven random agent-1 configurations near the origin and their reference points."""
    configs = []
    refs = []
    for _ in range(7):
        cells = [tuple(int(v) for v in rng.integers(-1, 2, 2)) for _ in range(3)]
        configs.append(tuple(cells))
        refs.append([grid.sample_in_cell(z, rng)[0] for z in cells])
    return configs, np.array(refs)


def test_bank_matches_individual_controllers(ref_model, ref_grid, ref_params,
                                             path_network):
    rng = np.random.default_rng(4)
    configs, refs = seven_configurations(ref_grid, rng)
    bank = ControllerBank(ref_model, ref_grid, ref_params, 1, configs, refs,
                          substeps=32)
    assert bank.size == 7
    singles = [ControllerBank(ref_model, ref_grid, ref_params, 1, [configs[b]],
                              reference_points=refs[b][None], substeps=32)
               for b in range(7)]
    np.testing.assert_array_equal(bank.endpoint,
                                  np.stack([s.endpoint[0] for s in singles]))
    np.testing.assert_array_equal(bank.target_cells(),
                                  np.concatenate([s.target_cells() for s in singles]),
                                  strict=True)

    x = refs[:, 0, :] + 1e-3 * rng.normal(size=(7, 2))
    nbrs = refs[:, 1:, :] + 1e-3 * rng.normal(size=(7, 2, 2))
    start = refs[:, 0, :] + 5e-4 * rng.normal(size=(7, 2))
    t = 0.3 * bank.period
    batched = bank.feedback(t, x, nbrs, start)
    stacked = np.stack([singles[b].feedback(t, x[b][None], nbrs[b][None], start[b][None])[0]
                        for b in range(7)])
    np.testing.assert_allclose(batched, stacked, atol=1e-15)


def test_drift_compensation_reads_the_stored_knots(ref_model, ref_grid, ref_params):
    rng = np.random.default_rng(6)
    configs, refs = seven_configurations(ref_grid, rng)
    bank = ControllerBank(ref_model, ref_grid, ref_params, 1, configs, refs, substeps=32)
    start = refs[:, 0, :] + 5e-4 * rng.normal(size=(7, 2))
    for view, own_start in ((bank, start), (bank.member(3), start[3:4])):
        knots = view.dense.times
        halves = knots[:-1] + 0.5 * np.diff(knots)
        # every knot, every half step, a lone first or last knot, a lone half
        # step, repeated knots, and a half step followed by repeated knots
        columns = (knots, halves, knots[:1], knots[-1:], halves[:1], knots[[0, 1, 1]],
                   np.array([halves[0], knots[1], knots[1], knots[2]]))
        for times in columns:
            drifts = []
            for t in times:
                drifts.append(view.drift_compensation(t, own_start))
                ref = view.dense.at(t)
                offset = (1.0 - t / view.period) * (own_start - view.reference_points[:, 0])
                expected = -(view.frozen_field(ref + offset) - view.frozen_field(ref))
                np.testing.assert_array_equal(drifts[-1], expected, strict=True)
            # a column of times gives each time's drift in one call
            np.testing.assert_array_equal(view.drift_compensation(times[:, None], own_start),
                                          np.stack(drifts), strict=True)
        # at the knots the queried reference and its field are the stored
        # dense output, states and derivatives
        remain = (1.0 - knots / view.period)[:, None, None]
        offsets = remain * (own_start - view.reference_points[:, 0])
        stored = -(view.frozen_field(view.dense.states + offsets) - view.dense.derivs)
        np.testing.assert_array_equal(view.drift_compensation(knots[:, None], own_start),
                                      stored, strict=True)


def test_a_block_of_stage_times_finds_its_knots_at_once(controller):
    # the closed loop's blocks hold the first knot, then half steps and knots
    # in turn, or half steps and knots from the start: one query of the dense
    # output gives each time's drift bit for bit
    knots = controller.dense.times
    stages = np.empty(2 * len(knots) - 1)
    stages[0::2] = knots
    stages[1::2] = knots[:-1] + 0.5 * np.diff(knots)
    start = controller.reference_points[:, 0] + np.array([4e-4, -3e-4])
    for block in (stages[:17], stages[17:33], stages[-16:]):
        drift = controller.drift_compensation(block[:, None], start)
        each = np.stack([controller.drift_compensation(t, start) for t in block])
        assert drift.shape == each.shape and drift.tobytes() == each.tobytes()


@pytest.mark.parametrize("random_refs", [False, True])
def test_bank_input_forms_agree(ref_model, ref_grid, ref_params, random_refs):
    configs, refs = seven_configurations(ref_grid, np.random.default_rng(6))
    refs = refs if random_refs else None
    cells = np.array(configs, dtype=np.int64)
    from_tuples = ControllerBank(ref_model, ref_grid, ref_params, 1, configs, refs,
                                 substeps=16)
    from_array = ControllerBank(ref_model, ref_grid, ref_params, 1, cells, refs,
                                substeps=16)
    pairs = [(from_tuples, from_array)]
    for b in (0, 4):
        single = ControllerBank(ref_model, ref_grid, ref_params, 1, [configs[b]],
                                None if refs is None else refs[b][None], substeps=16)
        pairs.append((from_array.member(b), single))
    for got, want in pairs:
        np.testing.assert_array_equal(got.cell_array, want.cell_array, strict=True)
        np.testing.assert_array_equal(got.reference_points, want.reference_points,
                                      strict=True)
        for name in ("times", "states", "derivs"):
            np.testing.assert_array_equal(getattr(got.dense, name),
                                          getattr(want.dense, name), strict=True)
        np.testing.assert_array_equal(got.target_cells(), want.target_cells(), strict=True)
    assert from_array.cell_array.dtype == np.int64


@pytest.mark.parametrize("cells", [
    [],
    np.empty((0, 3, 2), dtype=np.int64),
    [((0, 0), (1, 0))],
    [((0, 0, 0), (1, 0, 0), (0, 1, 0))],
    ((0, 0), (1, 0), (0, 1)),
], ids=["empty-list", "empty-array", "too-few-cells", "too-many-indices", "no-batch-axis"])
def test_bank_rejects_bad_cell_shapes(ref_model, ref_grid, ref_params, cells):
    with pytest.raises(ValueError):
        ControllerBank(ref_model, ref_grid, ref_params, 1, cells, substeps=16)


def test_bank_members_match_size_one_banks(ref_model, ref_grid, ref_params):
    rng = np.random.default_rng(4)
    configs, refs = seven_configurations(ref_grid, rng)
    bank = ControllerBank(ref_model, ref_grid, ref_params, 1, configs, refs,
                          substeps=32)
    S = 60
    t = rng.uniform(0.0, bank.period, S)
    for b in range(7):
        member = bank.member(b)
        single = ControllerBank(ref_model, ref_grid, ref_params, 1, [configs[b]],
                                reference_points=refs[b][None], substeps=32)
        assert member.size == 1
        np.testing.assert_array_equal(member.cell_array, single.cell_array, strict=True)
        np.testing.assert_array_equal(member.reference_points, single.reference_points,
                                      strict=True)
        np.testing.assert_array_equal(member.endpoint, single.endpoint, strict=True)
        np.testing.assert_array_equal(member.target_cells(), single.target_cells(),
                                      strict=True)
        assert np.shares_memory(member.dense.states, bank.dense.states)
        assert np.shares_memory(member.dense.derivs, bank.dense.derivs)

        x = refs[b, 0] + 1e-3 * rng.normal(size=(S, 2))
        nbrs = refs[b, 1:] + 1e-3 * rng.normal(size=(S, 2, 2))
        start = refs[b, 0] + 5e-4 * rng.normal(size=(S, 2))
        np.testing.assert_array_equal(member.feedback(t, x, nbrs, start),
                                      single.feedback(t, x, nbrs, start), strict=True)

        worst, witness = sample_feedback_bound(member, samples=300, seed=b)
        expected, expected_witness = sample_feedback_bound(single, samples=300, seed=b)
        assert worst == expected
        assert witness.keys() == expected_witness.keys()
        for key, value in expected_witness.items():
            np.testing.assert_array_equal(witness[key], value, strict=True)

    np.testing.assert_array_equal(bank.member(-1).cell_array, [configs[-1]])
    with pytest.raises(IndexError):
        bank.member(7)


def test_per_sample_times_match_scalar_loop(controller):
    rng = np.random.default_rng(9)
    S = 40
    t = rng.uniform(0.0, controller.period, S)
    x = controller.reference_points[0, 0] + 1e-3 * rng.normal(size=(S, 2))
    nbrs = controller.reference_points[0, 1:] + 1e-3 * rng.normal(size=(S, 2, 2))
    start = controller.reference_points[0, 0] + 1e-3 * rng.normal(size=(S, 2))
    many = controller.feedback(t, x, nbrs, start)
    each = np.stack([controller.feedback(t[k], x[k][None], nbrs[k][None], start[k][None])[0]
                     for k in range(S)])
    np.testing.assert_allclose(many, each, atol=1e-15)


def test_sample_inflated_cell_stays_in_region(ref_grid):
    rng = np.random.default_rng(12)
    radius = 0.03
    pts = sample_inflated_cell(ref_grid, (0, 0), radius, 500, rng)
    assert pts.shape == (500, 2)
    dists = np.array([ref_grid.distance_to_cell((0, 0), p) for p in pts])
    assert np.max(dists) <= radius + 1e-12
    # the boundary of the inflated region is actually exercised
    assert np.max(dists) >= 0.95 * radius


def test_sampled_feedback_stays_below_input_bound(controller, ref_model):
    worst, witness = sample_feedback_bound(controller, samples=1500, seed=5)
    assert worst <= ref_model.input_bound + 1e-12
    assert 0.0 < worst
    again, _ = sample_feedback_bound(controller, samples=1500, seed=5)
    assert worst == again
    assert set(witness) >= {"time", "state", "neighbors", "start"}
    replay = controller.feedback(witness["time"], witness["state"][None],
                                 witness["neighbors"][None], witness["start"][None])[0]
    assert np.linalg.norm(replay) == pytest.approx(worst, rel=1e-12)


def test_sampled_feedback_bound_needs_one_configuration(ref_model, ref_grid, ref_params):
    cells = ((0, 0), (1, 0), (-1, 1))
    bank = ControllerBank(ref_model, ref_grid, ref_params, 1, [cells, cells], substeps=16)
    with pytest.raises(ValueError, match="size 2"):
        sample_feedback_bound(bank, samples=10, seed=0)


def test_bound_witness_owns_its_arrays(controller):
    _, witness = sample_feedback_bound(controller, samples=1000, seed=5)
    # a view would keep every sample of the call alive
    for key in ("state", "neighbors", "start"):
        assert witness[key].base is None, key


def _at_or_near(points, draw, scale):
    """``points`` (runs, ...) with each run's block kept exactly or moved by drawn
    multiples of ``scale``."""
    exact = draw(arrays(np.bool_, len(points)))
    moves = draw(arrays(np.float64, points.shape, elements=st.floats(-1.0, 1.0)))
    moves[exact] = 0.0
    return points + moves * scale


# the controller fixture is only read, so one instance serves every example
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), runs=st.integers(1, 6))
def test_the_in_place_sum_is_the_sum_of_the_three_terms(controller, data, runs):
    # states at their reference points make the homing -0.0 and neighbors on
    # their frozen points the coupling term a signed zero; the sum into a
    # buffer (the closed loop's) and the fresh sum equal the terms added in
    # the order coupling, homing, drift, byte for byte
    draw = data.draw
    refs = controller.reference_points[0]
    scale = 0.3 * controller.grid.side
    own = _at_or_near(np.broadcast_to(refs[0], (runs, 2)), draw, scale)
    nbrs = _at_or_near(np.broadcast_to(refs[1:], (runs, 2, 2)), draw, scale)
    start = _at_or_near(np.broadcast_to(refs[0], (runs, 2)), draw, scale)
    t = draw(st.sampled_from([0.0, controller.period]) | st.floats(0.0, controller.period))
    expected = (controller.coupling_cancellation(own, nbrs)
                + controller.offset_homing(start)
                + controller.drift_compensation(t, start))
    fresh = controller.feedback(t, own, nbrs, start)
    buffer = np.full((runs, 2), np.nan)
    summed = controller.feedback(t, own, nbrs, start, controller.frozen_field(own, nbrs),
                                 controller.offset_homing(start),
                                 controller.drift_compensation(t, start), buffer)
    assert summed is buffer
    for got in (fresh, summed):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
