"""Fixed-step integrator and its dense output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gridabs.integrate import DenseTrajectory, knot_times, rk4_path, rk4_steps


def exp_field(t, y):
    return y


def test_endpoint_matches_exponential():
    times, states, derivs = rk4_path(exp_field, np.array([1.0]), 0.0, 1.0, 64)
    assert states[-1, 0] == pytest.approx(np.e, rel=1e-9)
    assert times.shape == (65,)
    assert states.shape == (65, 1)
    np.testing.assert_allclose(derivs, states)


def test_fourth_order_convergence():
    def field(t, y):
        return np.cos(t) * y

    exact = np.exp(np.sin(2.0))
    errs = []
    for steps in (8, 16, 32):
        _, states, _ = rk4_path(field, np.array([1.0]), 0.0, 2.0, steps)
        errs.append(abs(states[-1, 0] - exact))
    assert 8.0 < errs[0] / errs[1] < 32.0
    assert 8.0 < errs[1] / errs[2] < 32.0


def test_steps_yield_after_the_knot_evaluation():
    # the closed loop reads what its field computed at the knot just yielded
    last = {}

    def field(t, y):
        last.update(t=t, y=y, dy=exp_field(t, y))
        return last["dy"]

    y0 = np.array([1.0, -2.0])
    times = np.linspace(0.0, 1.0, 9)
    knots = 0
    for m, (y, dy) in enumerate(rk4_steps(field, y0, times)):
        assert last["t"] == times[m] and last["y"] is y and last["dy"] is dy
        knots += 1
    assert knots == 9
    assert y[0] == rk4_path(exp_field, y0, 0.0, 1.0, 8)[1][-1, 0]


def test_batched_states():
    y0 = np.arange(6.0).reshape(3, 2) + 1.0
    times, states, derivs = rk4_path(exp_field, y0, 0.0, 0.5, 16)
    assert states.shape == (17, 3, 2)
    np.testing.assert_allclose(states[-1], y0 * np.exp(0.5), rtol=1e-8)


def test_dense_hits_knots_exactly():
    times, states, derivs = rk4_path(exp_field, np.array([1.0, 2.0]), 0.0, 1.0, 10)
    dense = DenseTrajectory(times, states, derivs)
    for k in (0, 3, 10):
        np.testing.assert_array_equal(dense.at(times[k]), states[k])
    np.testing.assert_array_equal(dense.endpoint, states[-1])


def test_dense_reproduces_cubics_exactly():
    # Hermite interpolation is exact for polynomials up to degree three
    def field(t, y):
        return np.array([3.0 * t * t - 2.0 * t + 1.0])

    times, states, derivs = rk4_path(field, np.array([0.5]), 0.0, 2.0, 5)
    dense = DenseTrajectory(times, states, derivs)
    for t in np.linspace(0.0, 2.0, 23):
        expected = t ** 3 - t ** 2 + t + 0.5
        assert dense.at(t)[0] == pytest.approx(expected, abs=1e-13)


def test_dense_interpolation_error_is_fourth_order():
    worst = []
    for steps in (8, 16):
        times, states, derivs = rk4_path(exp_field, np.array([1.0]), 0.0, 1.0, steps)
        dense = DenseTrajectory(times, states, derivs)
        query = np.linspace(0.0, 1.0, 997)
        vals = dense.at(query)[:, 0]
        worst.append(np.max(np.abs(vals - np.exp(query))))
    assert worst[0] / worst[1] > 8.0


def test_dense_vector_query_shape():
    times, states, derivs = rk4_path(exp_field, np.ones((4, 3)), 0.0, 1.0, 8)
    dense = DenseTrajectory(times, states, derivs)
    out = dense.at(np.array([0.1, 0.55, 0.9]))
    assert out.shape == (3, 4, 3)


def test_dense_rejects_out_of_domain():
    times, states, derivs = rk4_path(exp_field, np.array([1.0]), 0.0, 1.0, 4)
    dense = DenseTrajectory(times, states, derivs)
    with pytest.raises(ValueError):
        dense.at(-0.1)
    with pytest.raises(ValueError):
        dense.at(1.1)
    # every comparison with NaN is false, so the span check must be one NaN fails
    for t in (np.nan, np.inf, np.array([0.5, np.nan]), np.array([0.5, np.inf])):
        with pytest.raises(ValueError, match="out of range"):
            dense.at(t)


def test_integration_is_bit_reproducible():
    def field(t, y):
        return np.sin(y) + np.cos(t)

    a = rk4_path(field, np.array([0.3, -0.7]), 0.0, 2.0, 50)
    b = rk4_path(field, np.array([0.3, -0.7]), 0.0, 2.0, 50)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_rejects_bad_step_count():
    with pytest.raises(ValueError):
        rk4_path(exp_field, np.array([1.0]), 0.0, 1.0, 0)


KNOT_VALUES = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False,
                        allow_infinity=False, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), steps=st.integers(1, 48),
       t0=st.floats(-1e3, 1e3), span=st.floats(1e-3, 1e3))
def test_dense_output_is_exact_at_every_knot(data, steps, t0, span):
    # the closed loop and its residual check read the stored knots in place
    # of querying them, which this makes the same thing
    times = knot_times(t0, t0 + span, steps)
    shape = times.shape + data.draw(array_shapes(min_dims=0, max_dims=3, max_side=4))
    states = data.draw(arrays(np.float64, shape, elements=KNOT_VALUES))
    derivs = data.draw(arrays(np.float64, shape, elements=KNOT_VALUES))
    dense = DenseTrajectory(times, states, derivs)
    nonzero = states != 0.0

    def exact(got, m=slice(None)):
        # bit for bit, except that a zero may come back with the other sign
        want = np.asarray(states[m])
        return (np.array_equal(got, want)
                and got[nonzero[m]].tobytes() == want[nonzero[m]].tobytes())

    for m, t in enumerate(times):
        assert exact(np.asarray(dense.at(t)), m)
    assert exact(dense.at(times))


def searched_interval(times, t):
    """The knot interval of ``t`` by binary search: the reference for the lookup."""
    return np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)


def assert_interval_lookup_is_exact(data, times):
    dense = DenseTrajectory(times, np.zeros_like(times), np.zeros_like(times))
    lo, hi = dense.span
    slack = 1e-9 * max(hi - lo, 1.0)
    inside = data.draw(arrays(np.float64, data.draw(st.integers(0, 20)),
                              elements=st.floats(lo, hi)))
    edges = np.array([lo, hi, lo - slack, hi + slack, lo - 0.5 * slack,
                      np.nextafter(hi, np.inf), np.nextafter(lo, -np.inf)])
    queries = np.concatenate([times, inside, edges])
    with np.errstate(divide="ignore", invalid="ignore"):  # repeated knots
        dense.at(queries)  # every query lies in the span or its slack
    clipped = np.clip(queries, lo, hi)
    expected = searched_interval(times, clipped)
    np.testing.assert_array_equal(dense._intervals(clipped, lo, hi)[0], expected)
    assert [dense._interval(float(t)) for t in clipped] == expected.tolist()
    knots = times.tolist()
    for t in queries.tolist():
        assert dense.knot(t) == (knots.index(t) if t in knots else None)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t0=st.floats(-1e6, 1e6), span=st.floats(1e-6, 1e3),
       steps=st.integers(1, 512))
def test_knot_interval_lookup_matches_the_search_on_uniform_knots(data, t0, span, steps):
    assert_interval_lookup_is_exact(data, knot_times(t0, t0 + span, steps))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), times=arrays(np.float64, st.integers(2, 40),
                                    elements=st.floats(-1e3, 1e3)))
def test_knot_interval_lookup_matches_the_search_on_other_knots(data, times):
    times = np.sort(times)
    assert_interval_lookup_is_exact(data, times)
