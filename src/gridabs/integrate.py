"""Fixed-step classical Runge-Kutta integration with cubic dense output.

The integrator is deliberately fixed-step: identical inputs and step counts
produce bit-identical results, and the stored knots live on the same uniform
grid the closed-loop simulation uses, so dense queries stay consistent with
the integration itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def stage_times(t, t_next):
    """Width h of the RK4 step from ``t`` to ``t_next`` and its two distinct stage
    times after ``t``: (h, t + 0.5*h, t + h); floats or arrays of steps alike.

    On knots that start at 0, as `knot_times` builds them, h is exact, so
    ``t + h`` is ``t_next`` itself.
    """
    h = t_next - t
    return h, t + 0.5 * h, t + h


def rk4_steps(field, y0, times):
    """Classical RK4 for dy/dt = field(t, y) through the knots ``times``.

    Yields (y, dy) at every knot, starting with (y0, field(times[0], y0)).
    ``dy`` is the last ``field`` call before each yield, so a field that
    keeps what it computed holds the values at the yielded knot. This is the
    package's one RK4 loop.
    """
    y = np.asarray(y0, dtype=float)
    dy = field(times[0], y)
    yield y, dy
    for t, t_next in zip(times[:-1], times[1:]):
        h, mid, end = stage_times(t, t_next)
        k2 = field(mid, y + 0.5 * h * dy)
        k3 = field(mid, y + 0.5 * h * k2)
        k4 = field(end, y + h * k3)
        y = y + (h / 6.0) * (dy + 2.0 * k2 + 2.0 * k3 + k4)
        dy = field(t_next, y)
        yield y, dy


def knot_times(t0, t1, steps):
    """The ``steps + 1`` uniform knots of [t0, t1]; needs at least one step."""
    steps = int(steps)
    if steps < 1:
        raise ValueError("need at least one step")
    return np.linspace(float(t0), float(t1), steps + 1)


def _uniform_steps(field, y0, t0, t1, steps):
    """The uniform knots of [t0, t1] and the `rk4_steps` generator through them."""
    times = knot_times(t0, t1, steps)
    return times, rk4_steps(field, y0, times)


def rk4_path(field, y0, t0, t1, steps):
    """Integrate dy/dt = field(t, y) on [t0, t1] with ``steps`` uniform RK4 steps.

    Returns (times, states, derivs) with the field also evaluated at every
    knot; ``y0`` may have any shape as long as ``field`` preserves it.
    """
    times, knots = _uniform_steps(field, y0, t0, t1, steps)
    states = np.empty(times.shape + np.shape(y0))
    derivs = np.empty_like(states)
    for m, (y, dy) in enumerate(knots):
        states[m] = y
        derivs[m] = dy
    return times, states, derivs


def rk4_endpoint(field, y0, t0, t1, steps):
    """The state at t1 of `rk4_path` with the same arguments, bit for bit.

    Only the current knot is kept, so memory does not grow with ``steps``.
    """
    for y, _ in _uniform_steps(field, y0, t0, t1, steps)[1]:
        pass
    return y


def _hermite_weights(theta, width):
    """Weights of states[i], derivs[i], states[i + 1], derivs[i + 1] at ``theta``
    of the way across a knot interval of ``width``; floats or arrays alike."""
    t2 = theta * theta
    t3 = t2 * theta
    return (2.0 * t3 - 3.0 * t2 + 1.0, (t3 - 2.0 * t2 + theta) * width,
            -2.0 * t3 + 3.0 * t2, (t3 - t2) * width)


@dataclass(frozen=True)
class DenseTrajectory:
    """Knot states plus derivatives, queryable anywhere in the time span.

    Queries between knots use cubic Hermite interpolation, which matches the
    integrator's fourth-order accuracy; queries at knots return the stored
    states' values (the sign of a zero may differ).
    """

    times: np.ndarray   # (K+1,)
    states: np.ndarray  # (K+1, ...)
    derivs: np.ndarray  # (K+1, ...)

    @property
    def span(self):
        return float(self.times[0]), float(self.times[-1])

    @property
    def endpoint(self):
        return self.states[-1]

    def at(self, t):
        """States at time(s) ``t``: shaped ``np.shape(t) + states.shape[1:]``.

        A 0-d time is a one-element array whose query axis is dropped. Times
        that outnumber the P entries of a state gather their knots from
        knot-major (P, K+1) copies of the stored arrays, so the Hermite
        weights, one per query, run innermost; fewer times gather whole knot
        rows, so a state's entries run innermost. Both give the same values
        bit for bit. At a knot the weights are exactly (1, 0, 0, 0), or
        (0, 0, 1, 0) at the end knot, so the query returns the stored state.
        """
        lo, hi = self.span
        slack = 1e-9 * max(hi - lo, 1.0)
        tq = np.asarray(t, dtype=float)
        if not np.all((lo - slack <= tq) & (tq <= hi + slack)):
            raise ValueError(f"time out of range [{lo}, {hi}]")
        tq = np.clip(tq, lo, hi).reshape(tq.shape or (1,))
        idx, t_lo, t_hi = self._intervals(tq, lo, hi)
        # the gathered interval ends are fresh copies: they become width and theta
        width = np.subtract(t_hi, t_lo, out=t_hi)
        theta = np.divide(np.subtract(tq, t_lo, out=t_lo), width, out=t_lo)
        out = self._at_many(idx, _hermite_weights(theta, width))
        return out if np.ndim(t) else out[0]

    # The knot interval of a time t in the span is
    # clip(searchsorted(times, t, "right") - 1, 0, K - 1): the last knot at
    # or before t, short of the end knot. The times floor onto the uniform
    # knots of knot_times, each guess moves one knot against its neighbours
    # and is checked, and the knots are searched when a check fails (a grid
    # not built by knot_times). This is the one search of the knot times.

    def _intervals(self, tq, lo, hi):
        """Knot intervals of the times ``tq`` in the span [lo, hi], with their end knots."""
        times = self.times
        last = len(times) - 2
        # no finite rate on a span too narrow for its scale (knots 0, 5e-324): search
        rate = (last + 1) / (hi - lo) if hi > lo else math.inf
        if math.isfinite(rate):
            # fmin maps a NaN guess to the last interval, where the check fails
            guess = np.fmin(np.floor((tq - lo) * rate), last)
            idx = guess.astype(np.intp)
            idx -= times[idx] > tq
            idx += (idx < last) & (times[idx + 1] <= tq)
            t_lo, t_hi = times[idx], times[idx + 1]
            if np.all((t_lo <= tq) & ((tq < t_hi) | (idx == last))):
                return idx, t_lo, t_hi
        idx = np.clip(np.searchsorted(times, tq, side="right") - 1, 0, last)
        return idx, times[idx], times[idx + 1]

    def _at_many(self, idx, weights):
        # the same sum, term by term, with the longer of the query axis and the
        # state's entries innermost: knot-major (P, K+1) copies of the stored
        # arrays when the queries outnumber the entries, else gathered knot rows
        knots = len(self.times)
        size = self.states[0].size
        states = self.states.reshape(knots, size)
        derivs = self.derivs.reshape(knots, size)
        out = np.empty(idx.shape + self.states.shape[1:])
        out_rows = out.reshape(idx.shape + (size,))
        if idx.size > size:
            states = np.ascontiguousarray(states.T)
            derivs = np.ascontiguousarray(derivs.T)
            axis, out_rows = 1, np.moveaxis(out_rows, -1, 0)
            acc = np.empty(out_rows.shape)
        else:
            # the sum builds up in the gathered rows of ``out`` itself
            axis, weights, acc = 0, [w[..., None] for w in weights], out_rows
        a, b, c, d = weights
        # each term is gathered and weighed in one buffer; the indices are in
        # range, so "clip" only spares numpy a buffered copy of that buffer
        term = np.empty_like(acc)

        def weighed(w, source, rows, into=term):
            return np.multiply(w, np.take(source, rows, axis=axis, out=into, mode="clip"),
                               out=into)

        weighed(a, states, idx, acc)
        acc += weighed(b, derivs, idx)
        acc += weighed(c, states, idx + 1)
        np.add(acc, weighed(d, derivs, idx + 1), out=out_rows, order="C")
        return out
