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
import queue
import threading

import numpy as np

from .geometry import (box_distance, components, from_components, row_norm, uniform_in_box,
                       unit_directions)
from .integrate import DenseTrajectory, rk4_endpoint, rk4_path

DEFAULT_SUBSTEPS = 256
DEFAULT_BOUND_SAMPLES = 10000


def _reference_problem(evaluate, refs, period, substeps):
    """Arguments (field, y0, t0, t1, steps) of an RK4 integrator for the reference
    trajectories of configurations with reference points ``refs`` (B, m+1, n): each
    own point moves under ``evaluate`` with its neighbors frozen at theirs, over one
    period in ``substeps`` steps. Every row is integrated elementwise."""
    frozen = refs[:, 1:, :]
    return (lambda t, y: evaluate(y, frozen)), refs[:, 0, :], 0.0, period, substeps


def reference_endpoints(model, params, agent, refs, substeps):
    """Reference endpoint (B, n) of each configuration with reference points ``refs``
    (B, m+1, n): a bank's ``endpoint``, bit for bit, without its dense output."""
    return rk4_endpoint(*_reference_problem(model.evaluator(agent), refs, params.period,
                                            substeps))


def endpoint_cells(grid, endpoint):
    """Cell of each reference endpoint (B, n), as ``grid.cell_of`` gives it; a (B, n)
    int64 array. A non-finite endpoint raises ValueError."""
    if not np.all(np.isfinite(endpoint)):
        raise ValueError("reference endpoint has non-finite coordinates")
    return grid.cell_indices(endpoint).astype(np.int64)


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
        self._evaluate = model.evaluator(self.agent)

        times, states, derivs = rk4_path(*_reference_problem(self._evaluate, refs,
                                                             params.period, self.substeps))
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
        dense = self.dense
        view.dense = DenseTrajectory(dense.times, dense.states[:, b:b + 1],
                                     dense.derivs[:, b:b + 1])
        return view

    def frozen_field(self, y, neighbors=None, stack=None):
        """Field with neighbors frozen at their reference points; batched. The one
        read of that frozen block, for the coupling cancellation and the drift too.

        Given the actual ``neighbors`` of ``y``, it returns the pair
        f(y, neighbors), f(y, frozen) from one evaluator call on the two
        neighbor blocks stacked on a new leading axis; the evaluators are
        elementwise over rows, so each equals its own call bit for bit.
        Given a ``stack`` instead, a (2, B, m, n) buffer for such a pair of
        blocks, it writes the frozen block into ``stack[1]``, evaluates
        nothing and returns the stack: the closed loop keeps one per bank
        for a whole run and writes each stage's neighbors into ``stack[0]``.
        """
        frozen = self.reference_points[:, 1:, :]
        if stack is not None:
            stack[1] = frozen
            return stack
        if neighbors is None:
            return self._evaluate(y, frozen)
        both = np.empty((2,) + np.broadcast(neighbors, frozen).shape)
        both[0] = neighbors
        both[1] = frozen
        return self._evaluate(y, both)

    def _reference_and_field(self, t):
        """ref(t) and its frozen field f(ref(t), frozen neighbors).

        A column of times (T, 1) gives (T, B, n) arrays: each knot of the
        bank's own grid among the times is read from the stored dense output,
        and the other times are queried at once. A scalar ``t`` is a column of
        one time and gives (B, n). A vector of per-sample times (S,) needs a
        size-1 bank and gives (S, n).
        """
        dense = self.dense
        if np.ndim(t) == 0:
            reference, field = self._reference_and_field(np.reshape(t, (1, 1)))
            return reference[0], field[0]
        if np.ndim(t) == 2 and np.shape(t)[1] == 1:
            times = t[:, 0]
            on, knots, off = self._knot_rows(times)
            reference = np.empty(times.shape + dense.states.shape[1:])
            field = np.empty_like(reference)
            reference[on] = dense.states[knots]
            field[on] = dense.derivs[knots]
            if len(times[off]):
                reference[off] = between = dense.at(times[off])
                field[off] = self.frozen_field(between)
            return reference, field
        if self.size != 1:
            raise ValueError("per-sample times require a bank of size 1")
        reference = dense.at(t)[:, 0, :]
        return reference, self.frozen_field(reference)

    def _knot_rows(self, times):
        """The rows of ``times`` that are knots of the bank's grid, their knots and
        the other rows, as indices.

        The closed loop's blocks of stage times start with the first knot or a
        half step, then half steps and knots take turns: their knots are every
        other time, checked at once against consecutive knots, and each other
        time lies strictly inside a step. Any other times are matched to the
        knots one at a time.
        """
        dense = self.dense
        first, k = 0, dense.knot(times[0])
        if k is None and len(times) > 1:
            first, k = 1, dense.knot(times[1])
        if k is not None and k >= first:
            on, off = slice(first, None, 2), slice(1 - first, None, 2)
            knots, inside = times[on], times[off]
            lo = dense.times[k - first:k - first + len(inside)]
            hi = dense.times[k - first + 1:k - first + 1 + len(inside)]
            if (np.array_equal(dense.times[k:k + len(knots)], knots)
                    and len(hi) == len(inside) and np.all((lo < inside) & (inside < hi))):
                return on, slice(k, k + len(knots)), off
        found = [dense.knot(s) for s in times.tolist()]
        on = [r for r, m in enumerate(found) if m is not None]
        return on, [found[r] for r in on], [r for r, m in enumerate(found) if m is None]

    def _check_time(self, t):
        # the feedback stays defined past the period by freezing at its end
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise ValueError("time must be nonnegative")
        return np.minimum(t, self.period)

    def coupling_cancellation(self, own, neighbor_states, fields=None, out=None):
        """``fields``, if given, is ``frozen_field(own, neighbor_states)`` already
        evaluated: the pair f(own, neighbor_states), f(own, frozen). ``out``, if
        given, receives the term."""
        plant, frozen = self.frozen_field(own, neighbor_states) if fields is None else fields
        out = np.subtract(plant, frozen, out=out)
        return np.negative(out, out=out)

    def offset_homing(self, own_start):
        return from_components([-(x - r) / self.period for x, r in
                                zip(components(own_start),
                                    components(self.reference_points[:, 0, :]))])

    def drift_compensation(self, t, own_start):
        """The drift term at time ``t``: (B, n) for a scalar, (T, B, n) for a column
        of times (T, 1), and (S, n) for per-sample times (S,) of a size-1 bank."""
        t = self._check_time(t)
        remain = 1.0 - t / self.period
        reference, reference_field = self._reference_and_field(t)
        refs = self.reference_points[:, 0, :]
        shifted = np.empty(np.broadcast_shapes(reference.shape[:-1], np.shape(remain),
                                               np.shape(own_start)[:-1], refs.shape[:-1])
                           + reference.shape[-1:])
        for y, x, r, out in zip(components(reference), components(own_start),
                                components(refs), components(shifted)):
            np.add(y, np.multiply(remain, x - r, out=out), out=out)
        field = self.frozen_field(shifted)
        # the shifted states are spent, and an evaluator keeps the shape of its
        # rows: their buffer takes the drift
        drift = shifted
        if reference_field.shape == field.shape:
            np.subtract(field, reference_field, out=drift)
        else:
            # a reference field broadcast along the runs: one component at a
            # time, so numpy's inner loop runs over the runs, not n entries
            for f, g, out in zip(components(field), components(reference_field),
                                 components(drift)):
                np.subtract(f, g, out=out)
        return np.negative(drift, out=drift)

    def feedback(self, t, own, neighbor_states, own_start, fields=None, homing=None,
                 drift=None, out=None):
        """Full feedback at time ``t``; batched over the leading axis.

        ``t`` is a scalar during integration; a vector of per-sample times is
        accepted for a bank of size 1. This is the one place the three terms
        are summed, in place, in the order coupling cancellation, offset
        homing, drift compensation; ``out``, if given, is the buffer they are
        summed into, which the closed loop keeps for a whole run. A caller
        that already holds some stage values passes them instead of having
        them recomputed, and gets the same result bit for bit: ``fields`` is
        ``frozen_field(own, neighbor_states)``, the plant field and the frozen
        one from one evaluator call; ``homing`` is ``offset_homing(own_start)``;
        and ``drift`` is ``drift_compensation(t, own_start)``, which depends on
        the state only through the start, so the closed loop computes it for a
        block of stage times at once.
        """
        if fields is None:
            fields = self.frozen_field(own, neighbor_states)
        if homing is None:
            homing = self.offset_homing(own_start)
        if drift is None:
            drift = self.drift_compensation(t, own_start)
        if out is None:
            out = np.empty(np.broadcast_shapes(np.shape(fields[0]), np.shape(homing),
                                               np.shape(drift)))
        self.coupling_cancellation(own, neighbor_states, fields, out)
        out += homing
        out += drift
        return out

    def target_cells(self) -> np.ndarray:
        """Cell of each member's reference endpoint, as ``grid.cell_of`` gives it;
        a (B, n) int64 array."""
        return endpoint_cells(self.grid, self.endpoint)


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
    u = unit_directions(rng, rest, n)
    reach = radius * rng.uniform(0.5, 1.0, size=rest)
    for col, start, step in zip(components(out[filled:]), components(y), components(u)):
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


def _draw_feedback_samples(grid, params, cells, samples, seed):
    """The draw half of the feedback bound: the samples (t, x, nbrs, starts) of the
    operating region of one configuration ``cells`` (m+1, n), from ``seed``."""
    rng = np.random.default_rng(seed)
    n = grid.dimension
    m = len(cells) - 1
    reach = params.reach_radius

    x = sample_inflated_cell(grid, cells[0], reach, samples, rng)
    nbrs = np.empty((samples, m, n))
    for k in range(m):
        nbrs[:, k, :] = sample_inflated_cell(grid, cells[k + 1], reach, samples, rng)

    starts = grid.sample_with_corners(cells[0], rng, samples)

    t = rng.uniform(0.0, params.period, size=samples)
    tenth = max(1, samples // 10)
    t[:tenth] = 0.0
    t[tenth:2 * tenth] = params.period
    return t, x, nbrs, starts


def _evaluate_feedback_bound(bank, drawn):
    """The evaluate half of the feedback bound: |feedback| of a size-1 ``bank`` at
    the ``drawn`` samples, its maximum and the witness at the argmax."""
    t, x, nbrs, starts = drawn
    k = bank.feedback(t, x, nbrs, starts)
    mags = row_norm(k)
    top = int(np.argmax(mags))
    # copies, so the witness does not keep every sample alive
    witness = {"time": float(t[top]), "state": x[top].copy(), "neighbors": nbrs[top].copy(),
               "start": starts[top].copy(), "magnitude": float(mags[top])}
    return float(mags[top]), witness


def sample_feedback_bound(bank, samples=DEFAULT_BOUND_SAMPLES, seed=0):
    """Sampled maximum of |feedback| over a size-1 bank's operating region.

    The region is: own state in the own cell inflated by the reach radius,
    each neighbor in its cell inflated likewise, the initial state anywhere
    in the own cell (corners included), and time in [0, period]. Returns
    (max magnitude, witness dict at the argmax).

    It draws the samples from ``seed`` and then evaluates the feedback on
    them, both in the caller's thread; `sample_feedback_bounds` runs the
    same two halves as a pipeline over the members of many banks.
    """
    if bank.size != 1:
        raise ValueError(f"the feedback bound samples one configuration; "
                         f"got a bank of size {bank.size}")
    drawn = _draw_feedback_samples(bank.grid, bank.params, bank.cell_array[0], samples, seed)
    return _evaluate_feedback_bound(bank, drawn)


def sample_feedback_bounds(chunks, samples=DEFAULT_BOUND_SAMPLES):
    """`sample_feedback_bound` of every member of a sequence of banks, in order.

    ``chunks`` yields pairs (bank, seeds), one sampler seed per member. This
    yields (max magnitude, witness) per member, bit for bit those of
    ``sample_feedback_bound(bank.member(b), samples, seeds[b])``, from a
    two-stage pipeline: while one worker thread evaluates member b's
    feedback, the calling thread draws member b+1's samples. The next bank is
    asked for only once the current bank's members are evaluated and
    released, so one bank is alive at a time. An error of member b's
    evaluation is raised before one of member b+1's draws, so the first
    failing member decides. The worker stops when the generator is
    exhausted, raises or is closed.
    """
    jobs, outcomes = queue.SimpleQueue(), queue.SimpleQueue()

    def evaluate():
        for job in iter(jobs.get, None):
            try:
                outcome = _evaluate_feedback_bound(*job), None
            except BaseException as error:
                # any error, so the caller never waits for an outcome that
                # will not come; result() raises it in the calling thread
                outcome = None, error
            # a member view keeps its whole bank alive
            del job
            outcomes.put(outcome)

    def result():
        value, error = outcomes.get()
        if error is not None:
            raise error
        return value

    worker = threading.Thread(target=evaluate, name="feedback-bound", daemon=True)
    worker.start()
    try:
        for bank, seeds in chunks:
            grid, params, cells = bank.grid, bank.params, bank.cell_array
            drawn = _draw_feedback_samples(grid, params, cells[0], samples, seeds[0])
            for b in range(bank.size):
                jobs.put((bank.member(b), drawn))
                try:
                    drawn = (_draw_feedback_samples(grid, params, cells[b + 1], samples,
                                                    seeds[b + 1])
                             if b + 1 < bank.size else None)
                finally:
                    # member b's outcome, or its error, before member b+1's draw error
                    bound = result()
                yield bound
            # release this bank before the next one is built
            del bank, cells
    finally:
        jobs.put(None)
        worker.join()
