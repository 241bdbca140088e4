"""The row-innermost kernels agree bit for bit with the broadcast formulas.

Each reference below is the formula the kernel had before it worked one
component at a time: it broadcasts an (n,) or (..., 1, n) operand against the
rows. Both put every entry through the same operations in the same order, so
the results must be identical, signed zeros included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import gridabs as ga
from gridabs.controller import ControllerBank, sample_inflated_cell
from gridabs.dynamics import AgentNetwork
from gridabs.geometry import box_distance
from gridabs.integrate import DenseTrajectory, knot_times

TINY = np.finfo(float).tiny

# both zeros, subnormals, and magnitudes whose squares stay finite
COMPONENTS = st.one_of(st.sampled_from([-0.0, 0.0]),
                       st.floats(min_value=-1e100, max_value=1e100, allow_nan=False,
                                 allow_infinity=False, allow_subnormal=True))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def saturated_reference(own, nbrs, gain):
    diffs = nbrs - own[..., None, :]
    r = np.sqrt(np.sum(diffs * diffs, axis=-1))[..., None]
    return (diffs * np.minimum(1.0, gain / np.maximum(r, TINY))).sum(axis=-2)


def smooth_reference(own, nbrs, gain, scale):
    diffs = nbrs - own[..., None, :]
    r2 = np.sum(diffs * diffs, axis=-1)[..., None]
    return scale * (diffs / np.sqrt(1.0 + r2 / gain**2)).sum(axis=-2)


def star(n, m):
    # agent 0 has neighbors 1..m; the last agent's edge keeps the degree positive
    return AgentNetwork(n, (tuple(range(1, m + 1)),) + ((),) * m + ((0,),))


def relayout(a, how):
    """The same values as ``a`` in another memory layout."""
    if how == "component-major":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
    if how == "strided":
        return np.repeat(a, 2, axis=-1)[..., ::2]
    return a


LAYOUTS = st.sampled_from(["C", "component-major", "strided"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), m=st.integers(0, 3),
       block=st.sampled_from(["rows", "size-1", "no lead"]),
       layouts=st.tuples(LAYOUTS, LAYOUTS), gain=st.floats(1e-3, 1e3),
       scale=st.floats(1e-3, 1e3))
def test_evaluators_match_the_broadcast_formula(data, n, m, block, layouts, gain, scale):
    lead = data.draw(array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5))
    block_lead = {"rows": lead, "size-1": (1,) * len(lead), "no lead": ()}[block]
    own = data.draw(arrays(np.float64, lead + (n,), elements=COMPONENTS))
    nbrs = data.draw(arrays(np.float64, block_lead + (m, n), elements=COMPONENTS))
    own_in, nbrs_in = relayout(own, layouts[0]), relayout(nbrs, layouts[1])
    net = star(n, m)
    saturated = ga.saturated_consensus(net, gain, 0.5 * gain)
    smooth = ga.smooth_consensus(net, gain, 0.5 * scale * gain, scale=scale)
    # the reference's gain / tiny overflows to inf at coincident points for
    # gain >= 4 (its clip factor is then 1); the evaluator must not overflow
    with np.errstate(over="ignore"):
        want = saturated_reference(own, nbrs, gain)
    assert same_bits(saturated.evaluator(0)(own_in, nbrs_in), want)
    assert same_bits(smooth.evaluator(0)(own_in, nbrs_in),
                     smooth_reference(own, nbrs, gain, scale))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_evaluators_match_the_broadcast_formula_on_random_rows(n, m):
    # generic mantissas, where any change in the order of a sum shows
    rng = np.random.default_rng(10 * n + m)
    own = rng.normal(size=(400, n)) * 10.0 ** rng.uniform(-3, 3, size=(400, n))
    nbrs = rng.normal(size=(400, m, n)) * 10.0 ** rng.uniform(-3, 3, size=(400, m, n))
    net = star(n, m)
    saturated = ga.saturated_consensus(net, 0.7, 0.3)
    smooth = ga.smooth_consensus(net, 0.7, 0.1, scale=1.3)
    for block in (nbrs, nbrs[:1], nbrs[0]):
        for layout in ("C", "component-major", "strided"):
            own_in, nbrs_in = relayout(own, layout), relayout(block, layout)
            assert same_bits(saturated.evaluator(0)(own_in, nbrs_in),
                             saturated_reference(own, block, 0.7))
            assert same_bits(smooth.evaluator(0)(own_in, nbrs_in),
                             smooth_reference(own, block, 0.7, 1.3))


def _bank(ref_model, ref_grid, ref_params, seed, substeps=16):
    rng = np.random.default_rng(seed)
    configs = [tuple(tuple(int(c) for c in rng.integers(-2, 3, size=2)) for _ in range(3))
               for _ in range(5)]
    refs = np.array([[ref_grid.sample_in_cell(z, rng, 1)[0] for z in cfg] for cfg in configs])
    return ControllerBank(ref_model, ref_grid, ref_params, 1, configs, refs, substeps)


def test_member_views_evaluate_like_the_broadcast_formula(ref_model, ref_grid, ref_params):
    bank = _bank(ref_model, ref_grid, ref_params, seed=3)
    rng = np.random.default_rng(4)
    y = 1e-3 * rng.normal(size=(257, 2))
    for b in range(bank.size):
        view = bank.member(b)
        frozen = view.reference_points[:, 1:]
        assert same_bits(view.frozen_field(y), saturated_reference(y, frozen, 0.5))
        assert same_bits(view.frozen_field(y[::-1].T.copy().T),
                         saturated_reference(y[::-1], frozen, 0.5))


def _hermite_reference(dense, t):
    # the vector query as it was: (Q, 1, ...) weights against gathered knots
    idx = np.clip(np.searchsorted(dense.times, t, side="right") - 1, 0, len(dense.times) - 2)
    width = dense.times[idx + 1] - dense.times[idx]
    theta = (t - dense.times[idx]) / width
    trail = (1,) * (dense.states.ndim - 1)
    theta = theta.reshape(theta.shape + trail)
    width = width.reshape(width.shape + trail)
    t2 = theta * theta
    t3 = t2 * theta
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * dense.states[idx]
            + (t3 - 2.0 * t2 + theta) * width * dense.derivs[idx]
            + (-2.0 * t3 + 3.0 * t2) * dense.states[idx + 1]
            + (t3 - t2) * width * dense.derivs[idx + 1])


def test_member_feedback_matches_the_broadcast_formula(ref_model, ref_grid, ref_params):
    # the per-sample path of sample_feedback_bound: a size-1 view, one time per sample
    bank = _bank(ref_model, ref_grid, ref_params, seed=5)
    rng = np.random.default_rng(6)
    samples = 301
    t = rng.uniform(0.0, bank.period, size=samples)
    t[:5] = bank.dense.times[:5]
    t[-1] = bank.period
    x = 2e-3 * rng.normal(size=(samples, 2))
    nbrs = 2e-3 * rng.normal(size=(samples, 2, 2))
    starts = 1e-3 * rng.normal(size=(samples, 2))
    for b in range(bank.size):
        view = bank.member(b)
        own_ref = view.reference_points[:, 0, :]
        frozen = view.reference_points[:, 1:, :]
        reference = _hermite_reference(view.dense, t)[:, 0, :]
        offset = (1.0 - t / view.period)[:, None] * (starts - own_ref)
        want = (-(saturated_reference(x, nbrs, 0.5) - saturated_reference(x, frozen, 0.5))
                + -(starts - own_ref) / view.period
                + -(saturated_reference(reference + offset, frozen, 0.5)
                    - saturated_reference(reference, frozen, 0.5)))
        assert same_bits(view.feedback(t, x, nbrs, starts), want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), side=st.floats(1e-3, 10.0),
       origin=st.floats(-1e6, 1e6))
def test_box_distance_matches_the_broadcast_formula(data, n, side, origin):
    grid = ga.GridDecomposition(n, side, origin=[origin] * n)
    lead = data.draw(array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5))
    cells = data.draw(arrays(np.int64, lead + (n,), elements=st.integers(-5, 5)))
    offsets = data.draw(arrays(np.float64, lead + (n,), elements=st.floats(-8.0, 8.0)))
    x = grid.cell_lo(cells) + side * offsets

    def reference(lo, hi, x):
        gap = np.maximum(np.maximum(lo - x, 0.0), x - hi)
        return np.sqrt(np.sum(gap * gap, axis=-1))

    lo = grid.cell_lo(cells)
    assert same_bits(box_distance(lo, lo + side, x), reference(lo, lo + side, x))
    assert same_bits(grid.distance_to_cell(cells, x), reference(lo, lo + side, x))
    # integer corners, and one box against every point
    assert same_bits(box_distance(cells, cells + 1, offsets),
                     reference(cells, cells + 1, offsets))
    box = grid.cell_box((0,) * n)
    assert same_bits(box_distance(box.lo, box.hi, x), reference(box.lo, box.hi, x))


def inflated_reference(grid, cell, radius, count, rng):
    """``sample_inflated_cell`` as it was, with ``rng.uniform`` on (n,) corners."""
    box = grid.cell_box(cell)
    n = grid.dimension
    if radius == 0.0:
        return rng.uniform(box.lo, box.hi, size=(count, n))
    out = np.empty((count, n))
    half = count // 2
    filled = 0
    for _ in range(100):
        if filled >= half:
            break
        need = half - filled
        cand = rng.uniform(box.lo - radius, box.hi + radius, size=(2 * need + 16, n))
        gap = np.maximum(np.maximum(box.lo - cand, 0.0), cand - box.hi)
        keep = cand[np.sqrt(np.sum(gap * gap, axis=-1)) <= radius]
        take = min(len(keep), need)
        out[filled:filled + take] = keep[:take]
        filled += take
    rest = count - filled
    y = rng.uniform(box.lo, box.hi, size=(rest, n))
    ax = rng.integers(0, n, size=rest)
    hi_side = rng.integers(0, 2, size=rest).astype(bool)
    y[np.arange(rest), ax] = np.where(hi_side, box.hi[ax], box.lo[ax])
    u = rng.normal(size=(rest, n))
    u /= np.maximum(np.sqrt(np.sum(u * u, axis=-1))[:, None], TINY)
    reach = radius * rng.uniform(0.5, 1.0, size=(rest, 1))
    pts = y + reach * u
    corners = grid.cell_corners(cell)
    k = min(len(corners), rest)
    if k:
        signs = np.array([[-1.0 if c == l else 1.0 for c, l in zip(corner, box.lo)]
                          for corner in corners[:k]])
        pts[:k] = corners[:k] + radius * signs / np.sqrt(n)
    out[filled:] = pts
    return out


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       count=st.sampled_from([0, 1, 2, 7, 64, 1001]),
       radius=st.sampled_from([0.0, 1e-6, 0.03, 2.5]),
       origin=st.sampled_from([0.0, 0.37, 1e6]), cell=st.integers(-4, 4))
def test_sampling_streams_match_rng_uniform(seed, n, count, radius, origin, cell):
    grid = ga.GridDecomposition(n, 0.0028, origin=[origin] * n)
    z = (cell,) * n
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_inflated_cell(grid, z, radius, count, got_rng)
    assert same_bits(got, inflated_reference(grid, z, radius, count, want_rng))
    box = grid.cell_box(z)
    got = grid.sample_in_cell(z, got_rng, count)
    assert same_bits(got, want_rng.uniform(box.lo, box.hi, size=(count, n)))
    # both generators were left in the same state
    assert got_rng.random() == want_rng.random()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       lead=array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
       origin=st.sampled_from([0.0, 0.37, 1e6, -1e6]))
def test_uniform_in_cells_matches_rng_uniform_and_per_cell_draws(seed, n, lead, origin):
    grid = ga.GridDecomposition(n, 0.0028, origin=[origin] * n)
    cells = np.random.default_rng(seed).integers(-4, 5, size=lead + (n,))
    got_rng, want_rng, loop_rng = (np.random.default_rng(seed) for _ in range(3))
    got = grid.uniform_in_cells(cells, got_rng)
    lo = grid.cell_lo(cells)
    assert same_bits(got, want_rng.uniform(lo, lo + grid.side))
    looped = [grid.sample_in_cell(z, loop_rng, 1)[0] for z in cells.reshape(-1, n)]
    assert same_bits(got, np.reshape(np.array(looped, dtype=float), got.shape))
    assert got_rng.random() == want_rng.random() == loop_rng.random()


KNOT_VALUES = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False,
                        allow_infinity=False, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), steps=st.integers(1, 40), t0=st.floats(-1e3, 1e3),
       span=st.floats(1e-3, 1e3))
def test_vector_queries_match_scalar_queries(data, steps, t0, span):
    times = knot_times(t0, t0 + span, steps)
    shape = times.shape + data.draw(array_shapes(min_dims=0, max_dims=2, max_side=4))
    states = data.draw(arrays(np.float64, shape, elements=KNOT_VALUES))
    derivs = data.draw(arrays(np.float64, shape, elements=KNOT_VALUES))
    dense = DenseTrajectory(times, states, derivs)
    lo, hi = dense.span
    inside = st.floats(min_value=lo, max_value=hi, allow_nan=False)
    query = np.array(data.draw(st.lists(inside, min_size=1, max_size=12))
                     + [times[data.draw(st.integers(0, steps))]])
    looped = np.stack([dense.at(t) for t in query])
    assert same_bits(dense.at(query), looped)
    assert same_bits(dense.at(query), _hermite_reference(dense, query))
    # a (3, Q) array of times gives (3, Q, ...) states
    assert same_bits(dense.at(np.stack([query] * 3)), np.stack([looped] * 3))


def test_member_vector_queries_match_scalar_queries(ref_model, ref_grid, ref_params):
    bank = _bank(ref_model, ref_grid, ref_params, seed=7)
    t = np.concatenate([bank.dense.times,
                        np.random.default_rng(8).uniform(0.0, bank.period, size=50)])
    assert same_bits(bank.dense.at(t), np.stack([bank.dense.at(s) for s in t]))
    for b in range(bank.size):
        dense = bank.member(b).dense
        assert not dense.states.flags.c_contiguous
        assert same_bits(dense.at(t), np.stack([dense.at(s) for s in t]))
