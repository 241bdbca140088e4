"""Hybrid per-agent feedback built from a reference cell configuration.

Given an agent's own cell and its neighbors' cells, pick one reference point
per cell (centers by default), freeze the neighbors at theirs, and integrate
the resulting decoupled field from the agent's own reference point over one
period. The feedback that tracks this reference trajectory is the sum of
three terms:

* coupling cancellation: remove the influence of where the neighbors
  actually are versus their frozen reference points,
* offset homing: a constant pull that absorbs the agent's initial offset
  from its own reference point by the end of the period,
* drift compensation: cancel the field difference induced by the decaying
  remainder of that initial offset along the reference trajectory.

Together they steer every initial state in the own cell to the reference
trajectory's endpoint at the end of the period, regardless of what the
neighbors do inside their declared cells.
"""

from __future__ import annotations

import copy

import numpy as np

from .geometry import box_distance, components, from_components, row_norm, uniform_in_box
from .integrate import DenseTrajectory, rk4_path

_TINY = np.finfo(float).tiny

DEFAULT_SUBSTEPS = 256
DEFAULT_BOUND_SAMPLES = 10000


class ControllerBank:
    """Controllers for one agent over a stack of cell configurations.

    This is the package's one controller type: the controller of a single
    configuration is a bank of size 1, built from ``[config.cells]``.
    The configurations are integer cells shaped (B, m+1, n), the agent's own
    cell first; any integer array-like of that shape is taken and stored
    once, as the int64 array ``cell_array``.
    All members share the network, grid, and period; reference points and the
    cached reference trajectories are stacked along a leading batch axis so
    construction and feedback evaluation vectorize. A bank of size 1
    broadcasts against any batch of states.
    """

    def __init__(self, model, grid, params, agent, cells, reference_points=None,
                 substeps=DEFAULT_SUBSTEPS):
        self.model = model
        self.grid = grid
        self.params = params
        self.agent = int(agent)
        self.substeps = int(substeps)
        net = model.network
        m = net.degree(self.agent)
        n = net.dimension
        cells = np.asarray(cells, dtype=np.int64)
        if cells.shape[1:] != (m + 1, n) or len(cells) == 0:
            raise ValueError(f"agent {self.agent} has {m} neighbors; expected a nonempty "
                             f"batch of configurations shaped (B, {m + 1}, {n}), got "
                             f"{cells.shape}")
        self.cell_array = cells
        batch = len(cells)

        if reference_points is None:
            refs = grid.cell_center(cells)
        else:
            refs = np.asarray(reference_points, dtype=float)
            if refs.shape != (batch, m + 1, n):
                raise ValueError(f"expected reference points shaped ({batch}, {m + 1}, "
                                 f"{n}), got {refs.shape}")
            if not np.all(np.isfinite(refs)):
                raise ValueError("reference points have non-finite coordinates")
            bad = grid.first_outside(refs, cells)
            if bad is not None:
                b, k = bad
                raise ValueError(f"reference point {refs[b, k].tolist()} is not "
                                 f"inside its declared cell {tuple(cells[b, k].tolist())}")
        self.reference_points = refs
        self._own_ref = refs[:, 0, :]
        self._nbr_ref = refs[:, 1:, :]
        self._evaluate = model.evaluator(self.agent)

        times, states, derivs = rk4_path(lambda t, y: self.frozen_field(y),
                                         self._own_ref, 0.0, params.period, self.substeps)
        self.dense = DenseTrajectory(times, states, derivs)

    @property
    def size(self) -> int:
        return len(self.cell_array)

    @property
    def period(self) -> float:
        return self.params.period

    @property
    def endpoint(self) -> np.ndarray:
        return self.dense.endpoint

    def member(self, b) -> ControllerBank:
        """Member ``b`` as a size-1 bank that shares this bank's arrays.

        The view slices the reference points and the stored dense output, so
        nothing is integrated again; it behaves like a size-1 bank built from
        the same configuration and reference points.
        """
        b = range(self.size)[b]
        view = copy.copy(self)
        view.cell_array = self.cell_array[b:b + 1]
        view.reference_points = self.reference_points[b:b + 1]
        view._own_ref = view.reference_points[:, 0, :]
        view._nbr_ref = view.reference_points[:, 1:, :]
        dense = self.dense
        view.dense = DenseTrajectory(dense.times, dense.states[:, b:b + 1],
                                     dense.derivs[:, b:b + 1])
        return view

    def frozen_field(self, y):
        """Field with neighbors frozen at their reference points; batched."""
        return self._evaluate(y, self._nbr_ref)

    def _reference_and_field(self, t):
        """ref(t) and its frozen field f(ref(t), frozen neighbors).

        A scalar ``t`` gives (B, n) arrays, read from the stored dense output
        when ``t`` is a knot of the bank's own grid; a vector of per-sample
        times (S,) needs a size-1 bank and gives (S, n).
        """
        if np.ndim(t) == 0:
            knot = self.dense.knot(t)
            if knot is not None:
                return self.dense.states[knot], self.dense.derivs[knot]
            reference = self.dense.at(t)
        elif self.size != 1:
            raise ValueError("per-sample times require a bank of size 1")
        else:
            reference = self.dense.at(t)[:, 0, :]
        return reference, self.frozen_field(reference)

    def _check_time(self, t):
        # the feedback stays defined past the period by freezing at its end; one
        # number is checked in Python floats, as numpy's per-call overhead on it
        # would cost as much as the reference lookup that follows
        if isinstance(t, (int, float)):
            if not t >= 0.0:
                raise ValueError("time must be nonnegative")
            return min(float(t), self.period)
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise ValueError("time must be nonnegative")
        return np.minimum(t, self.period)

    def coupling_cancellation(self, own, neighbor_states, plant=None):
        """``plant``, if given, is the field f(own, neighbor_states) already evaluated."""
        if plant is None:
            plant = self._evaluate(own, neighbor_states)
        return -(plant - self._evaluate(own, self._nbr_ref))

    def offset_homing(self, own_start):
        return from_components([-(x - r) / self.period for x, r in
                                zip(components(own_start), components(self._own_ref))])

    def drift_compensation(self, t, own_start):
        t = self._check_time(t)
        remain = 1.0 - t / self.period
        reference, reference_field = self._reference_and_field(t)
        shifted = from_components([y + remain * (x - r) for y, x, r in zip(
            components(reference), components(own_start), components(self._own_ref))])
        return -(self.frozen_field(shifted) - reference_field)

    def feedback(self, t, own, neighbor_states, own_start, plant=None, homing=None,
                 drift=None):
        """Full feedback at time ``t``; batched over the leading axis.

        ``t`` is a scalar during integration; a vector of per-sample times is
        accepted for a bank of size 1. This is the one place the three terms
        are summed. A caller that already holds some stage values passes them
        instead of having them recomputed, and gets the same result bit for
        bit: ``plant`` is f(own, neighbor_states), ``homing`` is
        ``offset_homing(own_start)``, and ``drift`` is
        ``drift_compensation(t, own_start)``, which depends on the state only
        through the start and so is shared by RK4 stages at the same time.
        """
        return (self.coupling_cancellation(own, neighbor_states, plant)
                + (self.offset_homing(own_start) if homing is None else homing)
                + (self.drift_compensation(t, own_start) if drift is None else drift))

    def target_cells(self) -> np.ndarray:
        """Cell of each member's reference endpoint, as ``grid.cell_of`` gives it;
        a (B, n) int64 array."""
        endpoint = self.endpoint
        if not np.all(np.isfinite(endpoint)):
            raise ValueError("reference endpoint has non-finite coordinates")
        return self.grid.cell_indices(endpoint).astype(np.int64)


def sample_inflated_cell(grid, cell, radius, count, rng):
    """Points covering cell+B(radius): rejection-uniform plus boundary-biased."""
    box = grid.cell_box(cell)
    n = grid.dimension
    if radius == 0.0:
        return uniform_in_box(rng, box.lo, box.hi, count)
    out = np.empty((count, n))
    half = count // 2
    filled = 0
    for _ in range(100):
        if filled >= half:
            break
        need = half - filled
        cand = uniform_in_box(rng, box.lo - radius, box.hi + radius, 2 * need + 16)
        keep = np.compress(box_distance(box.lo, box.hi, cand) <= radius, cand, axis=0)
        take = min(len(keep), need)
        out[filled:filled + take] = keep[:take]
        filled += take
    rest = count - filled
    y = uniform_in_box(rng, box.lo, box.hi, rest)
    ax = rng.integers(0, n, size=rest)
    hi_side = rng.integers(0, 2, size=rest).astype(bool)
    y[np.arange(rest), ax] = np.where(hi_side, box.hi[ax], box.lo[ax])
    u = rng.normal(size=(rest, n))
    norm = np.maximum(row_norm(u), _TINY)
    reach = radius * rng.uniform(0.5, 1.0, size=rest)
    for col, start, step in zip(components(out[filled:]), components(y), components(u)):
        step /= norm
        step *= reach
        np.add(start, step, out=col)
    # pin a few samples to the extreme corners of the inflated set
    corners = grid.cell_corners(cell)
    k = min(len(corners), rest)
    if k:
        signs = np.array([[-1.0 if c == l else 1.0 for c, l in zip(corner, box.lo)]
                          for corner in corners[:k]])
        out[filled:filled + k] = corners[:k] + radius * signs / np.sqrt(n)
    return out


def sample_feedback_bound(bank, samples=DEFAULT_BOUND_SAMPLES, seed=0):
    """Sampled maximum of |feedback| over a size-1 bank's operating region.

    The region is: own state in the own cell inflated by the reach radius,
    each neighbor in its cell inflated likewise, the initial state anywhere
    in the own cell (corners included), and time in [0, period]. Returns
    (max magnitude, witness dict at the argmax).
    """
    if bank.size != 1:
        raise ValueError(f"the feedback bound samples one configuration; "
                         f"got a bank of size {bank.size}")
    rng = np.random.default_rng(seed)
    grid = bank.grid
    params = bank.params
    cells = bank.cell_array[0]
    n = grid.dimension
    m = len(cells) - 1
    reach = params.reach_radius

    x = sample_inflated_cell(grid, cells[0], reach, samples, rng)
    nbrs = np.empty((samples, m, n))
    for k in range(m):
        nbrs[:, k, :] = sample_inflated_cell(grid, cells[k + 1], reach, samples, rng)

    starts = grid.sample_in_cell(cells[0], rng, samples)
    corners = grid.cell_corners(cells[0], inset=grid.corner_inset)
    reps = min(samples, len(corners))
    starts[:reps] = corners[:reps]

    t = rng.uniform(0.0, params.period, size=samples)
    tenth = max(1, samples // 10)
    t[:tenth] = 0.0
    t[tenth:2 * tenth] = params.period

    k = bank.feedback(t, x, nbrs, starts)
    mags = row_norm(k)
    top = int(np.argmax(mags))
    # copies, so the witness does not keep every sample alive
    witness = {"time": float(t[top]), "state": x[top].copy(), "neighbors": nbrs[top].copy(),
               "start": starts[top].copy(), "magnitude": float(mags[top])}
    return float(mags[top]), witness
