"""Hybrid feedback construction and its sampled input bound."""

import numpy as np
import pytest

from gridabs.controller import ControllerBank, sample_feedback_bound, sample_inflated_cell
from gridabs.geometry import CellConfiguration


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


def test_feedback_clamps_beyond_period(controller):
    rng = np.random.default_rng(0)
    x = controller.reference_points[:, 0] + 1e-3 * rng.normal(size=2)
    nbrs = controller.reference_points[:, 1:] + 1e-3 * rng.normal(size=(2, 2))
    start = controller.reference_points[:, 0] + np.array([1e-3, 0.0])
    late = controller.feedback(controller.period * 2.0, x, nbrs, start)
    at_end = controller.feedback(controller.period, x, nbrs, start)
    np.testing.assert_array_equal(late, at_end)


def test_target_cell_matches_endpoint(controller, ref_grid):
    assert controller.target_cells()[0] == ref_grid.cell_of(controller.endpoint[0])


def test_bank_matches_individual_controllers(ref_model, ref_grid, ref_params,
                                             path_network):
    rng = np.random.default_rng(4)
    configs = []
    refs = []
    for _ in range(7):
        cells = [tuple(int(v) for v in rng.integers(-1, 2, 2)) for _ in range(3)]
        configs.append(tuple(cells))
        refs.append([ref_grid.sample_in_cell(z, rng)[0] for z in cells])
    refs = np.array(refs)
    bank = ControllerBank(ref_model, ref_grid, ref_params, 1, configs, refs,
                          substeps=32)
    assert bank.size == 7
    singles = [ControllerBank(ref_model, ref_grid, ref_params, 1, [configs[b]],
                              reference_points=refs[b][None], substeps=32)
               for b in range(7)]
    np.testing.assert_array_equal(bank.endpoint,
                                  np.stack([s.endpoint[0] for s in singles]))
    assert bank.target_cells() == tuple(s.target_cells()[0] for s in singles)

    x = refs[:, 0, :] + 1e-3 * rng.normal(size=(7, 2))
    nbrs = refs[:, 1:, :] + 1e-3 * rng.normal(size=(7, 2, 2))
    start = refs[:, 0, :] + 5e-4 * rng.normal(size=(7, 2))
    t = 0.3 * bank.period
    batched = bank.feedback(t, x, nbrs, start)
    stacked = np.stack([singles[b].feedback(t, x[b][None], nbrs[b][None], start[b][None])[0]
                        for b in range(7)])
    np.testing.assert_allclose(batched, stacked, atol=1e-15)


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
