"""Grid decomposition and point-to-box geometry."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gridabs.geometry import (DISTANCE_ATOL, ORDERED_SUM_MAX, CellConfiguration,
                              GridDecomposition, box_distance, row_norm, sum_squares)


def test_cell_of_floor_indexing():
    grid = GridDecomposition(2, 0.5)
    assert grid.cell_of([0.0, 0.0]) == (0, 0)
    assert grid.cell_of([0.49, 0.51]) == (0, 1)
    assert grid.cell_of([-0.01, -0.5]) == (-1, -1)
    assert grid.cell_of([-0.51, 1.0]) == (-2, 2)


def test_cells_are_half_open():
    grid = GridDecomposition(2, 0.5)
    # lower faces belong to the cell, upper faces to the next one
    assert grid.cell_of([0.5, 0.0]) == (1, 0)
    assert grid.first_outside(np.array([0.0, 0.0]), (0, 0)) is None
    assert grid.first_outside(np.array([0.5, 0.25]), (0, 0)) == ()


def test_origin_shift():
    grid = GridDecomposition(2, 1.0, origin=[10.0, -3.0])
    assert grid.cell_of([10.2, -2.5]) == (0, 0)
    assert grid.cell_of([9.9, -3.1]) == (-1, -1)
    np.testing.assert_allclose(grid.cell_center((0, 0)), [10.5, -2.5])


def test_diameter_is_side_times_sqrt_dim():
    for n in (1, 2, 3, 5):
        grid = GridDecomposition(n, 0.25)
        assert grid.diameter() == pytest.approx(0.25 * np.sqrt(n), rel=1e-15)


FAR = 1e6


@settings(max_examples=300, deadline=None)
@given(origin=st.lists(st.floats(-FAR, FAR), min_size=2, max_size=2),
       side=st.floats(1e-3, 10.0),
       z=st.lists(st.integers(-10**4, 10**4), min_size=2, max_size=2))
@example(origin=[FAR, -FAR], side=0.0028284271247461903, z=[-1, 1])
def test_cells_own_their_lower_faces(origin, side, z):
    grid = GridDecomposition(2, side, origin=origin)
    assert grid.cell_of(grid.cell_lo(z)) == tuple(z)
    for k in range(2):
        up = list(z)
        up[k] += 1
        # the largest double below the next cell's lower face on axis k
        below = grid.cell_lo(up)
        below[k] = np.nextafter(below[k], -np.inf)
        assert grid.cell_of(below) == tuple(z)


def test_cell_box_round_trip():
    grid = GridDecomposition(3, 0.7, origin=[0.1, -0.2, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = tuple(int(v) for v in rng.integers(-4, 5, 3))
        pts = grid.sample_in_cell(z, rng, count=20)
        for p in pts:
            assert grid.cell_of(p) == z


def test_vectorized_cells_match_cell_of_and_cell_box():
    grid = GridDecomposition(2, 0.3, origin=[0.05, -1.0])
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2.0, 2.0, size=(4, 5, 2))
    idx = grid.cell_indices(pts)
    assert idx.shape == (4, 5, 2)
    for p, z in zip(pts.reshape(-1, 2), idx.reshape(-1, 2)):
        assert grid.cell_of(p) == tuple(int(c) for c in z)
        np.testing.assert_array_equal(grid.cell_lo(z.astype(int)),
                                      grid.cell_box(grid.cell_of(p)).lo)


@pytest.mark.parametrize("origin", [[0.0, 0.0], [1e6, -1e6]])
def test_cell_box_of_cell_arrays_equals_the_per_cell_boxes(origin):
    grid = GridDecomposition(2, 0.004 / np.sqrt(2.0), origin=origin)
    cells = np.random.default_rng(5).integers(-10**6, 10**6, size=(4, 3, 2))
    box = grid.cell_box(cells)
    assert box.lo.shape == box.hi.shape == (4, 3, 2)
    singles = [grid.cell_box(tuple(int(c) for c in z)) for z in cells.reshape(-1, 2)]
    # bit for bit, signed zeros included
    assert box.lo.tobytes() == np.array([b.lo for b in singles]).tobytes()
    assert box.hi.tobytes() == np.array([b.hi for b in singles]).tobytes()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: cell_box(z).hi is cell_lo(z) + side, "
                   "not the next cell's lower face cell_lo(z + 1)")
def test_cell_box_upper_face_is_the_next_cells_lower_face():
    # cell_indices places points against cell_lo(z + 1); the box must end there too
    rng = np.random.default_rng(2)
    for origin in rng.uniform(-1.0, 1.0, size=(20, 2)):
        grid = GridDecomposition(2, 0.004 / np.sqrt(2.0), origin=origin)
        cells = rng.integers(-10, 11, size=(100, 2))
        np.testing.assert_array_equal(grid.cell_box(cells).hi, grid.cell_lo(cells + 1))


def test_cell_box_of_one_cell():
    grid = GridDecomposition(2, 0.3, origin=[0.05, -1.0])
    lo = grid.origin + grid.side * np.array([3.0, -2.0])
    for z in [(3, -2), [3, -2], np.array([3, -2]), (np.int64(3), np.int32(-2))]:
        box = grid.cell_box(z)
        assert box.lo.tobytes() == lo.tobytes()
        assert box.hi.tobytes() == (lo + grid.side).tobytes()
    for bad in [(1, 2, 3), (1,), 4, np.zeros((5, 1), dtype=int), np.zeros((2, 3), dtype=int)]:
        with pytest.raises(ValueError):
            grid.cell_box(bad)


def test_box_distance_values():
    lo = np.zeros(2)
    hi = np.ones(2)
    assert box_distance(lo, hi, [0.5, 0.5]) == 0.0
    assert box_distance(lo, hi, [1.5, 0.5]) == pytest.approx(0.5)
    assert box_distance(lo, hi, [-0.3, 0.5]) == pytest.approx(0.3)
    assert box_distance(lo, hi, [2.0, 2.0]) == pytest.approx(np.sqrt(2.0))


def test_box_distance_matches_projection():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.1, 2.0, size=n)
        x = rng.normal(scale=3.0, size=n)
        proj = np.clip(x, lo, hi)
        assert box_distance(lo, hi, x) == pytest.approx(np.linalg.norm(x - proj), abs=1e-14)


def test_box_distance_broadcasts():
    lo = np.zeros(2)
    hi = np.ones(2)
    pts = np.stack([[0.5, 0.5], [2.0, 0.5], [0.5, -1.0]])
    out = box_distance(lo, hi, pts)
    np.testing.assert_allclose(out, [0.0, 1.0, 1.0])


def test_distance_to_cell_and_inflation():
    grid = GridDecomposition(2, 1.0)
    z = (2, -1)
    box = grid.cell_box(z)
    radius = 0.25
    # corner plus an outward diagonal step of exactly `radius`
    x = box.hi + radius * np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert grid.distance_to_cell(z, x) == pytest.approx(radius, abs=1e-15)
    assert grid.inflated_contains(z, radius, x)
    assert not grid.inflated_contains(z, radius - 1e-9, x)
    # tolerance keeps exact-boundary points inside
    assert grid.inflated_contains(z, radius - 0.5 * DISTANCE_ATOL, x)


def test_cell_corners_inset():
    grid = GridDecomposition(2, 1.0)
    corners = grid.cell_corners((0, 0))
    assert corners.shape == (4, 2)
    inset = grid.cell_corners((0, 0), inset=0.1)
    assert grid.first_outside(inset, (0, 0)) is None
    assert np.min(inset) == pytest.approx(0.1)
    assert np.max(inset) == pytest.approx(0.9)


def test_sample_in_cell_is_deterministic():
    grid = GridDecomposition(3, 0.3)
    a = grid.sample_in_cell((1, 2, -1), np.random.default_rng(7), count=10)
    b = grid.sample_in_cell((1, 2, -1), np.random.default_rng(7), count=10)
    np.testing.assert_array_equal(a, b)


def test_configuration_split():
    cfg = CellConfiguration(agent=1, cells=((0, 0), (1, 0), (-1, 2)))
    assert cfg.own == (0, 0)
    assert cfg.neighbor_cells == ((1, 0), (-1, 2))


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        GridDecomposition(0, 1.0)
    with pytest.raises(ValueError):
        GridDecomposition(2, 0.0)
    with pytest.raises(ValueError):
        GridDecomposition(2, 1.0, origin=[0.0])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# subnormals through 1e150, both signs and both zeros
COMPONENTS = st.one_of(st.sampled_from([-0.0, 0.0]),
                       st.floats(min_value=-1e150, max_value=1e150, allow_nan=False,
                                 allow_infinity=False, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, ORDERED_SUM_MAX))
def test_row_norm_equals_numpy_bit_for_bit(data, n):
    lead = data.draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    x = data.draw(arrays(np.float64, lead + (n,), elements=COMPONENTS))
    assert same_bits(sum_squares(x), np.sum(x * x, axis=-1))
    assert same_bits(row_norm(x), np.linalg.norm(x, axis=-1))


@pytest.mark.parametrize("n", [ORDERED_SUM_MAX + 1, 9, 12])
def test_long_rows_use_numpy(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(4000, n)) * 10.0 ** rng.uniform(-150, 150, size=(4000, n))
    in_order = x[:, 0] * x[:, 0]
    for k in range(1, n):
        in_order = in_order + x[:, k] * x[:, k]
    # numpy's pairwise order differs from adding in order on these rows ...
    assert np.any(in_order != np.sum(x * x, axis=-1))
    # ... and the helpers still return numpy's sums
    assert same_bits(sum_squares(x), np.sum(x * x, axis=-1))
    assert same_bits(row_norm(x), np.linalg.norm(x, axis=-1))


def test_vectorized_cell_checks_match_the_scalar_ones():
    grid = GridDecomposition(2, 0.3, origin=[0.05, -1.0])
    rng = np.random.default_rng(3)
    cells = rng.integers(-3, 4, size=(4, 5, 2))
    pts = grid.cell_lo(cells) + rng.uniform(-0.2, 0.5, size=(4, 5, 2))
    inside = [[grid.cell_of(p) == tuple(z) for p, z in zip(prow, zrow)]
              for prow, zrow in zip(pts, cells)]
    first = next(((a, b) for a in range(4) for b in range(5) if not inside[a][b]), None)
    assert first is not None and grid.first_outside(pts, cells) == first
    assert grid.first_outside(grid.cell_lo(cells) + 0.1, cells) is None
    assert grid.first_outside(pts[first], cells[first]) == ()
    radius = 0.1
    contained = grid.inflated_contains(cells, radius, pts)
    assert contained.shape == (4, 5)
    for a in range(4):
        for b in range(5):
            z = tuple(int(c) for c in cells[a, b])
            assert contained[a, b] == grid.inflated_contains(z, radius, pts[a, b])
            box = grid.cell_box(z)
            margin = min(float((pts[a, b] - box.lo).min()), float((box.hi - pts[a, b]).min()))
            assert box.face_margin(pts[a, b]) == margin
