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

import functools

import numpy as np

from .geometry import box_distance
from .integrate import DenseTrajectory, rk4_path

_TINY = np.finfo(float).tiny

DEFAULT_SUBSTEPS = 256


class ControllerBank:
    """Controllers for one agent over a stack of cell configurations.

    This is the package's one controller type: the controller of a single
    configuration is a bank of size 1, built from ``[config.cells]``.
    All members share the network, grid, and period; reference points and the
    cached reference trajectories are stacked along a leading batch axis so
    construction and feedback evaluation vectorize. A bank of size 1
    broadcasts against any batch of states.
    """

    def __init__(self, model, grid, params, agent, configs, reference_points=None,
                 substeps=DEFAULT_SUBSTEPS):
        self.model = model
        self.grid = grid
        self.params = params
        self.agent = int(agent)
        self.substeps = int(substeps)
        net = model.network
        m = net.degree(self.agent)
        n = net.dimension
        cells = tuple(tuple(tuple(int(c) for c in z) for z in cfg) for cfg in configs)
        if not cells:
            raise ValueError("bank needs at least one configuration")
        for cfg in cells:
            if len(cfg) != m + 1:
                raise ValueError(f"agent {self.agent} has {m} neighbors; configurations "
                                 f"need {m + 1} cells, got {len(cfg)}")
        self.configurations = cells
        batch = len(cells)

        if reference_points is None:
            refs = np.array([[grid.cell_center(z) for z in cfg] for cfg in cells])
        else:
            refs = np.asarray(reference_points, dtype=float)
            if refs.shape != (batch, m + 1, n):
                raise ValueError(f"expected reference points shaped ({batch}, {m + 1}, "
                                 f"{n}), got {refs.shape}")
            if not np.all(np.isfinite(refs)):
                raise ValueError("reference points have non-finite coordinates")
            outside = np.any(grid.cell_indices(refs) != self.cell_array, axis=-1)
            if outside.any():
                b, k = np.argwhere(outside)[0]
                raise ValueError(f"reference point {refs[b, k].tolist()} is not "
                                 f"inside its declared cell {cells[b][k]}")
        self.reference_points = refs
        self._own_ref = refs[:, 0, :]
        self._nbr_ref = refs[:, 1:, :]
        self._evaluate = model.evaluator(self.agent)

        times, states, derivs = rk4_path(lambda t, y: self.frozen_field(y),
                                         self._own_ref, 0.0, params.period, self.substeps)
        self.dense = DenseTrajectory(times, states, derivs)

    @functools.cached_property
    def cell_array(self) -> np.ndarray:
        """The configurations as integer cells shaped (B, m+1, n)."""
        cells = np.array(self.configurations, dtype=np.int64)
        if cells.shape[2:] != (self.grid.dimension,):
            raise ValueError(f"configuration cells need {self.grid.dimension} indices")
        return cells

    @property
    def size(self) -> int:
        return len(self.configurations)

    @property
    def period(self) -> float:
        return self.params.period

    @property
    def endpoint(self) -> np.ndarray:
        return self.dense.endpoint

    def own_cells(self):
        return tuple(cfg[0] for cfg in self.configurations)

    def frozen_field(self, y):
        """Field with neighbors frozen at their reference points; batched."""
        return self._evaluate(y, self._nbr_ref)

    def _reference_batch(self, t):
        # scalar t -> (B, n); vector t (S,) needs a size-1 bank -> (S, n)
        if np.ndim(t) == 0:
            return self.dense.at(t)
        if self.size != 1:
            raise ValueError("per-sample times require a bank of size 1")
        return self.dense.at(t)[:, 0, :]

    def _check_time(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("time must be nonnegative")
        # the feedback stays defined past the period by freezing at its end
        return np.minimum(t, self.period)

    def coupling_cancellation(self, own, neighbor_states, plant=None):
        """``plant``, if given, is the field f(own, neighbor_states) already evaluated."""
        if plant is None:
            plant = self._evaluate(own, neighbor_states)
        return -(plant - self._evaluate(own, self._nbr_ref))

    def offset_homing(self, own_start):
        return -(own_start - self._own_ref) / self.period

    def drift_compensation(self, t, own_start, reference=None, reference_field=None):
        """``reference`` and ``reference_field``, if given, are ref(t) and f(ref(t), frozen)."""
        t = self._check_time(t)
        remain = 1.0 - t / self.period
        if np.ndim(t) > 0:
            remain = remain[:, None]
        if reference is None:
            reference = self._reference_batch(t)
        offset = remain * (own_start - self._own_ref)
        shifted = self.frozen_field(reference + offset)
        if reference_field is None:
            reference_field = self.frozen_field(reference)
        return -(shifted - reference_field)

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

    def target_cells(self):
        """Cell of each member's reference endpoint."""
        return tuple(self.grid.cell_of(p) for p in self.endpoint)


def sample_inflated_cell(grid, cell, radius, count, rng):
    """Points covering cell+B(radius): rejection-uniform plus boundary-biased."""
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
        keep = cand[box_distance(box.lo, box.hi, cand) <= radius]
        take = min(len(keep), need)
        out[filled:filled + take] = keep[:take]
        filled += take
    rest = count - filled
    y = rng.uniform(box.lo, box.hi, size=(rest, n))
    ax = rng.integers(0, n, size=rest)
    hi_side = rng.integers(0, 2, size=rest).astype(bool)
    y[np.arange(rest), ax] = np.where(hi_side, box.hi[ax], box.lo[ax])
    u = rng.normal(size=(rest, n))
    u /= np.maximum(np.linalg.norm(u, axis=-1, keepdims=True), _TINY)
    reach = radius * rng.uniform(0.5, 1.0, size=(rest, 1))
    pts = y + reach * u
    # pin a few samples to the extreme corners of the inflated set
    corners = grid.cell_corners(cell)
    k = min(len(corners), rest)
    if k:
        signs = np.array([[-1.0 if c == l else 1.0 for c, l in zip(corner, box.lo)]
                          for corner in corners[:k]])
        pts[:k] = corners[:k] + radius * signs / np.sqrt(n)
    out[filled:] = pts
    return out


def sample_feedback_bound(bank, samples=10000, seed=0):
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
    cells = bank.configurations[0]
    n = grid.dimension
    m = len(cells) - 1
    reach = params.reach_radius

    x = sample_inflated_cell(grid, cells[0], reach, samples, rng)
    nbrs = np.empty((samples, m, n))
    for k in range(m):
        nbrs[:, k, :] = sample_inflated_cell(grid, cells[k + 1], reach, samples, rng)

    starts = grid.sample_in_cell(cells[0], rng, samples)
    corners = grid.cell_corners(cells[0], inset=1e-9 * grid.side)
    reps = min(samples, len(corners))
    starts[:reps] = corners[:reps]

    t = rng.uniform(0.0, params.period, size=samples)
    tenth = max(1, samples // 10)
    t[:tenth] = 0.0
    t[tenth:2 * tenth] = params.period

    k = bank.feedback(t, x, nbrs, starts)
    mags = np.linalg.norm(k, axis=-1)
    top = int(np.argmax(mags))
    witness = {"time": float(t[top]), "state": x[top], "neighbors": nbrs[top],
               "start": starts[top], "magnitude": float(mags[top])}
    return float(mags[top]), witness
