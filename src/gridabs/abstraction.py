"""Finite transition systems over a window of cells, with sampling-based checks.

For one agent, a state is a cell of the grid and an action is a cell
configuration (own cell plus declared neighbor cells). The constructive
successor of an action is the cell reached by the hybrid controller's
reference trajectory; the guarantee behind it is universal over initial
states in the own cell and over anything the neighbors do inside their
declared cells inflated by the reach radius. `verify_transition` tries to
falsify it: it integrates the agent alone while its neighbors follow
prescribed signals inside those inflated cells.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .admissibility import require_admissible
# sample_feedback_bound is not called here, but perfbench/spans.py wraps it at
# this module's attribute
from .controller import (DEFAULT_BOUND_SAMPLES, DEFAULT_SUBSTEPS, ControllerBank,  # noqa: F401
                         endpoint_cells, reference_endpoints, sample_feedback_bound,
                         sample_feedback_bounds)
from .dynamics import project_configuration
from .geometry import CellConfiguration, CellIndex, uniform_in_ball
from .integrate import DenseTrajectory
from .simulate import (check_input_bound, exceeds_input_bound, integrate_agent_batch,
                       integrate_closed_loop_batch)

MAX_ACTIONS = 10**6
DEFAULT_TRIALS = 500

# Configurations integrated together by certify_window_input_bound: one bank
# of this many members keeps memory bounded up to MAX_ACTIONS.
CERTIFY_CHUNK = 64

# Rows whose reference endpoints build_transition_system integrates together.
# A batch holds O(rows * (m+1) * n) floats whatever the substeps, so the build's
# peak memory does not grow with the action count; 2**14 rows take the 15,625
# configurations of a 5x5 window for an agent with two neighbors in one batch.
BUILD_ROWS = 2**14

# Grid dimensions up to which build_transition_system enumerates the 2^n n!
# signed permutations of the coordinates for its orbit key (384 at n = 4); past
# it their count outgrows what the orbits save, and the offsets are the key.
# An agent with neighbors has a window of at most sqrt(MAX_ACTIONS) cells, so
# the packed offsets stay below (2 * 1000 - 1)^4 < 2^63.
ORBIT_DIMENSIONS = 4

# A reference endpoint this close to a cell face (relative to the side) marks
# the transition as marginal.
MARGINAL_REL = 1e-6

# Knot intervals of a period between the waypoints of verify_transition's
# neighbor signals, at most: 256 substeps give a waypoint at every 32nd knot.
SIGNAL_SEGMENTS = 8


class EnumerationCap(RuntimeError):
    """The window enumeration would exceed the action cap."""


class WellPosednessViolation(RuntimeError):
    """A sampled run left its declared target cell."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class CompositionViolation(WellPosednessViolation):
    """A jointly executed plan missed at least one declared target."""


@dataclass(frozen=True)
class Window:
    """Per-axis inclusive integer index ranges delimiting the working cells."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ranges = tuple((int(lo), int(hi)) for lo, hi in self.ranges)
        object.__setattr__(self, "ranges", ranges)
        if not ranges:
            raise ValueError("window needs at least one axis")
        for lo, hi in ranges:
            if lo > hi:
                raise ValueError(f"empty axis range ({lo}, {hi})")

    @property
    def dimension(self) -> int:
        return len(self.ranges)

    @property
    def size(self) -> int:
        out = 1
        for lo, hi in self.ranges:
            out *= hi - lo + 1
        return out

    def cells(self) -> tuple[CellIndex, ...]:
        axes = [range(lo, hi + 1) for lo, hi in self.ranges]
        return tuple(itertools.product(*axes))

    def __contains__(self, cell) -> bool:
        cell = tuple(int(c) for c in cell)
        return len(cell) == self.dimension and all(
            lo <= c <= hi for c, (lo, hi) in zip(cell, self.ranges))


@dataclass(frozen=True)
class Transition:
    """One recorded step: source cell, action (cell configuration), target."""

    agent: int
    source: CellIndex
    action: tuple[CellIndex, ...]
    target: CellIndex
    reference_points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(int(c) for c in self.source))
        object.__setattr__(self, "action",
                           tuple(tuple(int(c) for c in z) for z in self.action))
        object.__setattr__(self, "target", tuple(int(c) for c in self.target))
        object.__setattr__(self, "reference_points",
                           tuple(tuple(float(v) for v in p) for p in self.reference_points))
        if self.action[0] != self.source:
            raise ValueError(f"action own-cell {self.action[0]} disagrees with "
                             f"source {self.source}")
        if len(self.reference_points) != len(self.action):
            raise ValueError("need one reference point per action cell")


class TransitionRows(Sequence):
    """Read-only row view of a TransitionSystem: each `Transition` is built when read."""

    def __init__(self, system):
        self._system = system

    def __len__(self):
        return len(self._system.target_cells)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(len(self))[k])
        ts, k = self._system, range(len(self))[k]
        action = ts.action_cells[k].tolist()
        return Transition(ts.agent, action[0], action, ts.target_cells[k].tolist(),
                          ts.reference_points[k].tolist())


@dataclass(eq=False)
class TransitionSystem:
    """States (window cells), actions (configurations), recorded transitions.

    The T transitions are stored as three row-aligned arrays:
    ``action_cells`` (T, m+1, n) int64, the action's cells with the source
    cell first; ``target_cells`` (T, n) int64; and ``reference_points``
    (T, m+1, n) float64. ``transitions`` reads them as `Transition` rows.
    """

    agent: int
    window: Window
    action_cells: np.ndarray
    target_cells: np.ndarray
    reference_points: np.ndarray

    def __post_init__(self):
        self.action_cells = np.asarray(self.action_cells, dtype=np.int64)
        self.target_cells = np.asarray(self.target_cells, dtype=np.int64)
        self.reference_points = np.asarray(self.reference_points, dtype=float)
        shape, n = self.action_cells.shape, self.window.dimension
        if (shape[2:] != (n,) or self.target_cells.shape != shape[::2]
                or self.reference_points.shape != shape):
            raise ValueError(f"expected row-aligned arrays shaped (T, m+1, {n}), (T, {n}) and "
                             f"(T, m+1, {n}); got {shape}, {self.target_cells.shape} and "
                             f"{self.reference_points.shape}")
        if not np.all(np.isfinite(self.reference_points)):
            raise ValueError("reference points have non-finite coordinates")

    @classmethod
    def from_transitions(cls, agent, window, rows) -> TransitionSystem:
        """The system recording the `Transition` rows of ``agent``, in order."""
        rows = tuple(rows)
        if any(t.agent != agent for t in rows):
            raise ValueError(f"transition for another agent in a system for agent {agent}")
        if not rows:
            n = window.dimension
            return cls(agent, window, np.empty((0, 1, n), np.int64),
                       np.empty((0, n), np.int64), np.empty((0, 1, n)))
        return cls(agent, window, [t.action for t in rows], [t.target for t in rows],
                   [t.reference_points for t in rows])

    def __eq__(self, other):
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (self.agent == other.agent and self.window == other.window
                and np.array_equal(self.action_cells, other.action_cells)
                and np.array_equal(self.target_cells, other.target_cells)
                and np.array_equal(self.reference_points, other.reference_points))

    @property
    def transitions(self) -> TransitionRows:
        return TransitionRows(self)

    @property
    def states(self) -> tuple[CellIndex, ...]:
        return self.window.cells()

    @property
    def action_count(self) -> int:
        """Number of distinct actions among the recorded rows."""
        return len(_distinct_rows(self.action_cells)[0])

    def post_set(self, source, action) -> set[CellIndex]:
        """Recorded successor cells of (source, action); empty when unrecorded."""
        source = tuple(int(c) for c in source)
        action = tuple(tuple(int(c) for c in z) for z in action)
        if action[0] != source:
            raise ValueError(f"action own-cell {action[0]} disagrees with source {source}")
        width, n = self.action_cells.shape[1:]
        if len(action) != width or any(len(z) != n for z in action):
            return set()
        # one column at a time: a comparison reduced over the short (m+1, n)
        # axes pays numpy's per-row overhead
        hits = np.ones(len(self.action_cells), dtype=bool)
        for k, cell in enumerate(action):
            for axis, c in enumerate(cell):
                hits &= self.action_cells[:, k, axis] == c
        return set(map(tuple, self.target_cells[hits].tolist()))


def agent_transition(model, grid, params, config: CellConfiguration,
                     reference_points=None, substeps=DEFAULT_SUBSTEPS):
    """Constructive successor cell for one action; returns (target, controller).

    The controller is a size-1 ControllerBank. Requires an admissible
    discretization; the successor is where the controller's reference
    trajectory ends after one period.
    """
    require_admissible(params)
    refs = None if reference_points is None else np.asarray(reference_points, dtype=float)[None]
    controller = ControllerBank(model, grid, params, config.agent, [config.cells], refs,
                                substeps)
    return tuple(controller.target_cells()[0].tolist()), controller


def marginal_endpoints(grid, endpoints, cells):
    """Whether each endpoint (..., n) lies within MARGINAL_REL * side of a face of its
    cell in ``cells`` (integer indices, broadcast); a bool array."""
    return grid.cell_box(cells).face_margin(endpoints) < MARGINAL_REL * grid.side


def enumerate_configurations(window, degree):
    """Every configuration (own cell plus ``degree`` neighbor cells) over the window.

    Returns one int64 array shaped (T, degree+1, n) whose rows run through the
    T = |window|^(degree+1) configurations in
    ``itertools.product(window.cells(), repeat=degree + 1)`` order. Raises
    EnumerationCap when T exceeds MAX_ACTIONS, before any window cell is listed.
    """
    size = window.size
    total = size ** (degree + 1)
    if total > MAX_ACTIONS:
        raise EnumerationCap(f"window of {size} cells gives {total} configurations "
                             f"of {degree + 1} cells (cap {MAX_ACTIONS})")
    cells = np.array(window.cells(), dtype=np.int64)
    # row r picks cell (r // W^(degree-k)) % W at position k, the last fastest
    place = size ** np.arange(degree, -1, -1)
    return cells[np.arange(total)[:, None] // place % size]


def _require_window_on_grid(window, grid):
    """ValueError unless the window has the grid's dimension."""
    if window.dimension != grid.dimension:
        raise ValueError(f"window of dimension {window.dimension} on a grid of dimension "
                         f"{grid.dimension}")


def _signed_permutations(n):
    """The 2^n n! signed permutations of n coordinates, the identity first, as
    int8 arrays (perms, signs) shaped (G, n): transform g takes a vector v to
    ``v[..., perms[g]] * signs[g]``."""
    moves = [(perm, signs) for perm in itertools.permutations(range(n))
             for signs in itertools.product((1, -1), repeat=n)]
    perms, signs = (np.array(column, dtype=np.int8) for column in zip(*moves))
    return perms, signs


def _orbit_key(cells):
    """Canonical form of each configuration's neighbor offsets z_j - z0 under the
    grid's symmetries and the neighbors' reorderings, for configurations
    (T, m+1, n) with m > 0.

    Each signed permutation g (`_signed_permutations`) moves the m offset
    vectors of a row, which are then packed into one int64 each, in balanced
    base 2w-1 with w - 1 the largest offset magnitude, and sorted; the key is
    the lexicographic minimum over g. Returns (key (T, m) int64, turn (T,)):
    transform ``turn[b]`` reaches row b's key. The transforms are taken one at
    a time on (m, T) buffers allocated once, one per offset component and
    three more, so every step runs over all rows at once.
    """
    rows, width, n = cells.shape
    perms, signs = _signed_permutations(n)
    offsets = [np.subtract(cells[:, 1:, k].T, cells[:, 0, k], order="C") for k in range(n)]
    radix = 2 * max(max(int(o.max()), -int(o.min())) for o in offsets) + 1
    place = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)
    packed, term, key = (np.empty((width - 1, rows), dtype=np.int64) for _ in range(3))
    turn = np.zeros(rows, dtype=np.min_scalar_type(len(perms)))
    for g, (perm, sign) in enumerate(zip(perms, signs)):
        # sum_k place[k] * sign[k] * offset[perm[k]]: each moved vector, packed
        # (numpy's integer matmul is several times slower than these passes)
        weight = place * sign
        np.multiply(offsets[perm[0]], weight[0], out=packed)
        for k in range(1, n):
            packed += np.multiply(offsets[perm[k]], weight[k], out=term)
        # a bubble-sort network over the m packed vectors of every row
        for last in range(len(packed) - 1, 0, -1):
            for j in range(last):
                np.minimum(packed[j], packed[j + 1], out=term[0])
                np.maximum(packed[j], packed[j + 1], out=packed[j + 1])
                packed[j] = term[0]
        if g == 0:
            key[...] = packed
            continue
        # rows whose sorted vectors come lexicographically before the key's take
        # them, by arithmetic (a masked copy takes about three times as long);
        # g only grows, so a maximum records it
        less = packed[-1] < key[-1]
        for a, b in zip(packed[-2::-1], key[-2::-1]):
            less = (a < b) | ((a == b) & less)
        packed -= key
        packed *= less
        key += packed
        np.maximum(turn, less * turn.dtype.type(g), out=turn)
    return key.T, turn


def _class_key(model, cells):
    """The build's class key of each configuration (T, m+1, n), and the symmetry
    that takes each row to it: (key, turn), ``turn`` None for the identity.

    For a model declared ``grid_symmetric`` and ``translation_invariant`` up
    to ORBIT_DIMENSIONS, the key is the `_orbit_key` and ``turn`` its
    transforms; for another translation-invariant model, or an agent without
    neighbors, the offsets z_j - z0, the own cell's zero offset included, which
    keeps the key nonempty; for any other model, the whole configuration.
    """
    if not model.translation_invariant:
        return cells, None
    if model.grid_symmetric and cells.shape[1] > 1 and cells.shape[2] <= ORBIT_DIMENSIONS:
        return _orbit_key(cells)
    return cells - cells[:, :1], None


def _reference_targets(model, grid, params, agent, refs, substeps):
    """Target cells (B, n) and marginal flags (B,) of the configurations with
    reference points ``refs`` (B, m+1, n), integrated BUILD_ROWS rows at a time."""
    targets = np.empty((len(refs), refs.shape[-1]), dtype=np.int64)
    marginal = np.empty(len(refs), dtype=bool)
    for start in range(0, len(refs), BUILD_ROWS):
        part = slice(start, start + BUILD_ROWS)
        endpoint = reference_endpoints(model, params, agent, refs[part], substeps)
        targets[part] = endpoint_cells(grid, endpoint)
        marginal[part] = marginal_endpoints(grid, endpoint, targets[part])
    return targets, marginal


def build_transition_system(model, grid, params, agent, window,
                            substeps=DEFAULT_SUBSTEPS) -> TransitionSystem:
    """Enumerate every configuration over the window and record its transition.

    The enumeration covers |window|^(m+1) actions for an agent with m
    neighbors and fails with EnumerationCap beyond MAX_ACTIONS, before any
    integration. Only the reference endpoints are integrated
    (`reference_endpoints`, no dense output), BUILD_ROWS configurations at a
    time; every row is integrated elementwise, so the transitions do not depend
    on the batch size and equal the controllers' `ControllerBank.target_cells`.

    Every model takes one path. The rows fall into classes (`_distinct_rows`
    of a class key, `_class_key`); the first row r of each class is
    integrated, and row b's target is z0_b + P_b^T P_r (target_r - z0_r) in
    integer arithmetic, where P_b is the signed permutation that takes row b
    to its key (the identity but for the orbit key). A class whose reference
    endpoint is marginal (`marginal_endpoints`) has its other rows integrated
    too, each on its own, so ulp differences between translated, reflected or
    reordered trajectories never change a target. The key is the only branch:
    for a model declared ``translation_invariant`` the reference trajectory
    from cell centers depends only on the neighbor offsets z_j - z0; if it is
    also declared ``grid_symmetric``, the trajectories of two configurations
    whose offsets share an orbit under the grid's symmetries (and neighbor
    reorderings) are images of each other, so the key is the orbit's
    canonical form. On the reference path network that gives 6 / 34 / 6
    classes on a 3x3 window and 15 / 268 / 15 on 5x5. For any other model the
    key is the whole configuration, so each row is its own class. Either way
    the rows keep the product order of `enumerate_configurations` and their
    reference points are the cell centers. The agent must be one of the
    network's and the window must have the grid's dimension, else ValueError.
    """
    require_admissible(params)
    m = model.network.degree(agent)
    _require_window_on_grid(window, grid)
    cells = enumerate_configurations(window, m)
    refs = grid.cell_center(cells)
    # the key is freed before the integration
    key, turn = _class_key(model, cells)
    first, inverse = _distinct_rows(key)
    del key
    targets, marginal = _reference_targets(model, grid, params, agent, refs[first], substeps)
    shift = targets - cells[first, 0]
    if turn is None:
        shift = shift[inverse]
    else:
        # P_r takes each class's target offset to the key's frame, P_b^T back to row b's
        perms, signs = _signed_permutations(cells.shape[-1])
        canonical = np.take_along_axis(shift, perms[turn[first]], axis=1) * signs[turn[first]]
        shift = np.empty_like(cells[:, 0])
        np.put_along_axis(shift, perms[turn], canonical[inverse] * signs[turn], axis=1)
    target_cells = cells[:, 0] + shift
    # a class's first row would integrate to its first endpoint again, bit for bit
    redo = marginal[inverse]
    redo[first] = False
    target_cells[redo] = _reference_targets(model, grid, params, agent, refs[redo],
                                            substeps)[0]
    return TransitionSystem(agent, window, cells, target_cells, refs)


@dataclass(frozen=True)
class TransitionCheck:
    """Outcome of the falsification sampling for one transition."""

    trials: int
    min_margin: float
    max_margin: float
    histogram_counts: tuple[int, ...]
    histogram_edges: tuple[float, ...]
    marginal: bool
    max_input: float


def _neighbor_signals(grid, params, cells, times, trials, rng):
    """Neighbor states for ``trials`` runs, as a DenseTrajectory (trials, m, n).

    The signal of each run and neighbor cell of ``cells`` (m, n) passes
    through waypoints at evenly strided knots of ``times``, at most
    SIGNAL_SEGMENTS intervals apart and both ends included; each is a uniform
    point of the cell plus a uniform point of the ball of the reach radius.
    Its derivatives are zero, so between two waypoints it is a convex
    combination of them and stays in the cell inflated by the reach radius.
    """
    last = len(times) - 1
    knots = np.append(np.arange(0, last, -(-last // SIGNAL_SEGMENTS)), last)
    shape = (len(knots), trials) + cells.shape
    points = grid.uniform_in_cells(np.broadcast_to(cells, shape), rng)
    points += uniform_in_ball(rng, math.prod(shape[:-1]), shape[-1],
                              params.reach_radius).reshape(shape)
    return DenseTrajectory(times[knots], points, np.zeros(shape))


def verify_transition(model, grid, params, transition, window, trials=DEFAULT_TRIALS, seed=0,
                      substeps=DEFAULT_SUBSTEPS) -> TransitionCheck:
    """Try to falsify the universal landing guarantee of one transition.

    The agent's controller is rebuilt from the recorded reference points, and
    the agent alone is integrated (`integrate_agent_batch`) from randomized
    starts against randomized neighbor behavior: its own initial state sweeps
    the cell corners (slightly inset) plus uniform samples, and each neighbor
    follows a prescribed signal through random waypoints of its declared
    cell inflated by the reach radius (`_neighbor_signals`), the behaviors
    the guarantee covers. Every cell of the action must lie in ``window``,
    else ValueError. A run whose endpoint leaves the declared target cell
    raises WellPosednessViolation; then an input beyond the model's budget at
    any knot raises InputBoundViolation (`check_input_bound`).
    """
    i = transition.agent
    if not all(z in window for z in transition.action):
        raise ValueError(f"action {transition.action} has a cell outside the window "
                         f"{window.ranges}")
    target, controller = agent_transition(model, grid, params,
                                          CellConfiguration(i, transition.action),
                                          transition.reference_points, substeps)
    if target != transition.target:
        raise ValueError(f"recorded target {transition.target} disagrees with the "
                         f"rebuilt controller's successor {target}")

    rng = np.random.default_rng(seed)
    x0 = grid.sample_with_corners(transition.source, rng, trials)
    neighbors = _neighbor_signals(grid, params, controller.cell_array[0, 1:],
                                  controller.dense.times, trials, rng)

    runs = integrate_agent_batch(controller, x0, neighbors)
    endpoints = runs.endpoints

    missed = grid.first_outside(endpoints, transition.target)
    if missed is not None:
        b = missed[0]
        witness = {"trial": b, "initial": x0[b], "endpoint": endpoints[b],
                   "landed": grid.cell_of(endpoints[b]),
                   "declared": transition.target}
        raise WellPosednessViolation(
            f"trial {b}: agent {i} landed in {witness['landed']} instead of "
            f"{transition.target}", witness)
    check_input_bound(runs, model)

    margins = grid.cell_box(transition.target).face_margin(endpoints)
    # ten bins between the extremes, as np.histogram draws them; equal or
    # near-equal margins leave some bins empty and zero-width
    edges = np.linspace(margins.min(), margins.max(), 11)
    counts = np.bincount(np.searchsorted(edges[1:-1], margins, side="right"), minlength=10)
    return TransitionCheck(trials=trials,
                           min_margin=float(margins.min()),
                           max_margin=float(margins.max()),
                           histogram_counts=tuple(int(c) for c in counts),
                           histogram_edges=tuple(float(e) for e in edges),
                           marginal=bool(marginal_endpoints(grid, controller.endpoint[0],
                                                            transition.target)),
                           max_input=float(runs.input_magnitudes.max()))


def plan_controllers(model, grid, params, source_cells, target_cells,
                     substeps=DEFAULT_SUBSTEPS):
    """Size-1 ControllerBanks for one synchronous step of a global cell plan.

    Agent ``i`` gets the bank of the configuration projected from
    ``source_cells``; its successor cell must equal ``target_cells[i]``, any
    integer sequence, else ValueError, as when either list lacks one cell per
    agent.
    """
    count = model.network.agent_count
    if len(source_cells) != count or len(target_cells) != count:
        raise ValueError(f"need {count} source and target cells")
    controllers = []
    for i in range(count):
        config = project_configuration(model.network, source_cells, i)
        target, controller = agent_transition(model, grid, params, config, substeps=substeps)
        if target != tuple(int(c) for c in target_cells[i]):
            raise ValueError(f"agent {i}: declared target {target_cells[i]} is not the "
                             f"constructive successor {target}")
        controllers.append(controller)
    return controllers


def compose_plan(model, grid, params, source_cells, target_cells, samples=100,
                 seed=0, substeps=DEFAULT_SUBSTEPS):
    """Controllers realizing one synchronous step of a global cell plan.

    The controllers come from `plan_controllers`. The joint closed loop is
    then sampled from uniform initial states in the source cells; every agent
    must land in its target simultaneously, else CompositionViolation, and
    then every input must stay within the model's budget, else
    InputBoundViolation (`check_input_bound`). Returns (controllers, the
    samples' worst-case MonitorReport, fields shaped (N,)).
    """
    net = model.network
    count = net.agent_count
    source_cells = tuple(tuple(int(c) for c in z) for z in source_cells)
    controllers = plan_controllers(model, grid, params, source_cells, target_cells, substeps)
    rng = np.random.default_rng(seed)
    x0 = np.empty((samples, count, net.dimension))
    for i in range(count):
        x0[:, i, :] = grid.sample_in_cell(source_cells[i], rng, samples)

    trajectory, report = integrate_closed_loop_batch(controllers, x0)
    endpoints = trajectory.states[-1]
    missed = grid.first_outside(endpoints, target_cells)
    if missed is not None:
        b, bad = missed
        landed = grid.cell_of(endpoints[b, bad])
        witness = {"run": b, "agent": bad, "initial": x0[b],
                   "endpoint": endpoints[b, bad], "landed": landed,
                   "declared": target_cells[bad]}
        raise CompositionViolation(
            f"run {b}: agent {bad} landed in {landed} instead of "
            f"{target_cells[bad]}", witness)
    check_input_bound(trajectory, model)
    return controllers, report.worst()


@dataclass(frozen=True)
class BoundCertificate:
    """Sampled input-bound certificate across a window of configurations."""

    agent: int
    configurations: int
    samples_per_configuration: int
    max_magnitude: float
    worst_configuration: tuple[CellIndex, ...]
    worst_witness: dict
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def certify_window_input_bound(model, grid, params, agent, window,
                               samples=DEFAULT_BOUND_SAMPLES, seed=0,
                               reference_policy="center",
                               substeps=DEFAULT_SUBSTEPS) -> BoundCertificate:
    """Sample |feedback| over every configuration of the window for one agent.

    ``reference_policy`` "center" uses cell centers; "random" draws the
    reference points uniformly inside the declared cells, exercising the
    whole constructive controller family. Every configuration is sampled;
    violations collect each one whose sampled maximum exceeds the input budget
    or is NaN, and the first NaN maximum is the worst.

    The configurations are integrated in banks of at most CERTIFY_CHUNK
    members and sampled one member at a time, each from its own seed; the
    draws from the outer generator keep their order (the reference points,
    then the sampler seed, per configuration), so the certificate does not
    depend on the chunk size. The members are sampled by
    `sample_feedback_bounds`, which draws the next member's samples while one
    worker thread evaluates the current member's feedback; the results are
    reduced here in configuration order, so they are those of one
    `sample_feedback_bound` call per configuration, and the first failing
    configuration's error is raised. The worker thread ends with the call.
    The agent must be one of the network's and the window must have the
    grid's dimension, else ValueError.
    """
    if reference_policy not in ("center", "random"):
        raise ValueError("reference_policy must be 'center' or 'random'")
    m = model.network.degree(agent)
    _require_window_on_grid(window, grid)
    rng = np.random.default_rng(seed)
    n = model.network.dimension
    configs = enumerate_configurations(window, m)

    def chunks():
        for start in range(0, len(configs), CERTIFY_CHUNK):
            chunk = configs[start:start + CERTIFY_CHUNK]
            refs = np.empty((len(chunk), m + 1, n)) if reference_policy == "random" else None
            seeds = []
            for b, cells in enumerate(chunk):
                if refs is not None:
                    refs[b] = grid.uniform_in_cells(cells, rng)
                seeds.append(int(rng.integers(2**31)))
            # not kept here: the previous chunk's bank is freed before the next
            # one is integrated
            yield ControllerBank(model, grid, params, agent, chunk, refs, substeps), seeds

    best = -1.0
    worst_cfg = None
    worst_witness = None
    violations = []
    with contextlib.closing(sample_feedback_bounds(chunks(), samples)) as bounds:
        for cells, (magnitude, witness) in zip(configs, bounds):
            cfg = tuple(map(tuple, cells.tolist()))
            # the first NaN is the worst: it fails every comparison with a budget
            if not math.isnan(best) and not magnitude <= best:
                best = magnitude
                worst_cfg = cfg
                worst_witness = witness
            if exceeds_input_bound(magnitude, model.input_bound):
                violations.append((cfg, magnitude))

    return BoundCertificate(agent=agent,
                            configurations=len(configs),
                            samples_per_configuration=samples,
                            max_magnitude=best,
                            worst_configuration=worst_cfg,
                            worst_witness=worst_witness,
                            violations=tuple(violations))


def _distinct_rows(a):
    """Distinct rows of ``a`` (R, ...), an array of 8-byte items, told apart by
    their bits, so -0.0 and 0.0 differ. Returns (first, inverse): row
    ``first[k]`` is the first occurrence of the k-th distinct row, and
    ``inverse`` maps each row to its distinct row. Each row is read as int64
    columns and the rows are ordered by `np.lexsort`."""
    keys = np.ascontiguousarray(a).view(np.int64).reshape(len(a), math.prod(a.shape[1:]))
    order = np.lexsort(keys.T[::-1])
    # a sorted row starts a new distinct row where any column changes
    new = np.zeros(len(keys), dtype=bool)
    new[:1] = True
    for column in keys.T:
        ranked = column[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _row_text(a, template):
    """``template % row`` of each row of the last axis of ``a``, as nested lists
    of strings shaped ``a.shape[:-1]``; each distinct row (`_distinct_rows`) is
    formatted once, from its values' ``.tolist()``."""
    rows = a.reshape(-1, a.shape[-1])
    first, inverse = _distinct_rows(rows)
    table = np.array([template % tuple(row) for row in rows[first].tolist()], dtype=object)
    return table[inverse.reshape(a.shape[:-1])].tolist()


def _json_list(item, count):
    return "[" + ",".join([item] * count) + "]"


def _tuple_repr(item, count):
    # Python's tuple repr, trailing comma of a 1-tuple included
    return "(" + ", ".join([item] * count) + ("," if count == 1 else "") + ")"


def to_json(ts: TransitionSystem) -> str:
    """Deterministic JSON encoding of a transition system.

    Equals ``json.dumps`` of {agent, states, transitions, window} with sorted
    keys and no spaces. Each distinct cell and reference point is written once
    (`_row_text`) through %r, which for a Python int, or for the finite
    reference points of a system, is what ``json.dumps`` writes; each
    transition is one %s row template filled with those strings.
    """
    width, n = ts.action_cells.shape[1:]
    template = ('{"action":' + _json_list("%s", width)
                + ',"reference_point":' + _json_list("%s", width)
                + ',"source":%s,"target":%s}')
    point = _json_list("%r", n)
    actions = _row_text(ts.action_cells, point)
    refs = _row_text(ts.reference_points, point)
    targets = _row_text(ts.target_cells, point)
    rows = ",".join([template % (*a, *r, a[0], t) for a, r, t in zip(actions, refs, targets)])
    compact = dict(separators=(",", ":"))
    return (f'{{"agent":{json.dumps(ts.agent)},'
            f'"states":{json.dumps([list(z) for z in ts.states], **compact)},'
            f'"transitions":[{rows}],'
            f'"window":{json.dumps([list(r) for r in ts.window.ranges], **compact)}}}\n')


def from_json(text: str) -> TransitionSystem:
    """Inverse of :func:`to_json`; each record is checked as a `Transition`."""
    obj = json.loads(text)
    window = Window(tuple((lo, hi) for lo, hi in obj["window"]))
    rows = [Transition(agent=obj["agent"], source=rec["source"], action=rec["action"],
                       target=rec["target"], reference_points=rec["reference_point"])
            for rec in obj["transitions"]]
    return TransitionSystem.from_transitions(obj["agent"], window, rows)


def to_dot(ts: TransitionSystem) -> str:
    """GraphViz digraph with one node per window cell and one edge per transition.

    Cells and actions are labelled by their Python tuple repr; each distinct
    cell is written once (`_row_text`) and each edge is one %s row template
    filled with those strings.
    """
    width, n = ts.action_cells.shape[1:]
    template = f'  "%s" -> "%s" [label="{_tuple_repr("%s", width)}"];'
    cell = _tuple_repr("%d", n)
    actions = _row_text(ts.action_cells, cell)
    targets = _row_text(ts.target_cells, cell)
    lines = [f"digraph agent_{ts.agent} {{"]
    for z in ts.states:
        lines.append(f'  "{z}";')
    lines.extend([template % (a[0], t, *a) for a, t in zip(actions, targets)])
    lines.append("}")
    return "\n".join(lines) + "\n"
