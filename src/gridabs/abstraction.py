"""Finite transition systems over a window of cells, with sampling-based checks.

For one agent, a state is a cell of the grid and an action is a cell
configuration (own cell plus declared neighbor cells). The constructive
successor of an action is the cell reached by the hybrid controller's
reference trajectory; the guarantee behind it is universal over initial
states in the own cell and over anything the neighbors do inside their
declared cells, which is what `verify_transition` tries to falsify.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .admissibility import FeasibilityError
from .controller import DEFAULT_SUBSTEPS, ControllerBank, sample_feedback_bound
from .dynamics import project_configuration
from .geometry import CellConfiguration, CellIndex
from .simulate import INPUT_ATOL, MonitorReport, integrate_closed_loop_batch

MAX_ACTIONS = 10**6

# A reference endpoint this close to a cell face (relative to the side) marks
# the transition as marginal.
MARGINAL_REL = 1e-6


class EnumerationCap(RuntimeError):
    """The window enumeration would exceed the action cap."""


class WellPosednessViolation(RuntimeError):
    """A sampled run left its declared target cell."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class CompositionViolation(RuntimeError):
    """A jointly executed plan missed at least one declared target."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


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


@dataclass
class TransitionSystem:
    """States (window cells), actions (configurations), recorded transitions."""

    agent: int
    window: Window
    transitions: tuple[Transition, ...] = ()
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.transitions = tuple(self.transitions)
        for t in self.transitions:
            self._check(t)
            self._index.setdefault((t.source, t.action), []).append(t)

    def _check(self, t):
        if t.agent != self.agent:
            raise ValueError(f"transition for agent {t.agent} in a system for "
                             f"agent {self.agent}")

    def add(self, transition):
        self._check(transition)
        self.transitions = self.transitions + (transition,)
        self._index.setdefault((transition.source, transition.action), []).append(transition)

    @property
    def states(self) -> tuple[CellIndex, ...]:
        return self.window.cells()

    @property
    def actions(self) -> tuple[tuple[CellIndex, ...], ...]:
        seen = dict.fromkeys(t.action for t in self.transitions)
        return tuple(seen)

    def post_set(self, source, action) -> set[CellIndex]:
        """Recorded successor cells of (source, action); empty when unrecorded."""
        source = tuple(int(c) for c in source)
        action = tuple(tuple(int(c) for c in z) for z in action)
        if action[0] != source:
            raise ValueError(f"action own-cell {action[0]} disagrees with source {source}")
        return {t.target for t in self._index.get((source, action), ())}


def agent_transition(model, grid, params, config: CellConfiguration,
                     reference_points=None, substeps=DEFAULT_SUBSTEPS):
    """Constructive successor cell for one action; returns (target, controller).

    The controller is a size-1 ControllerBank. Requires an admissible
    discretization; the successor is where the controller's reference
    trajectory ends after one period.
    """
    if not params.admissible:
        raise FeasibilityError(f"discretization is not admissible: {params.reason}")
    refs = None if reference_points is None else np.asarray(reference_points, dtype=float)[None]
    controller = ControllerBank(model, grid, params, config.agent, [config.cells], refs,
                                substeps)
    return controller.target_cells()[0], controller


def enumerate_configurations(window, degree, cap=MAX_ACTIONS):
    """Every configuration (own cell plus ``degree`` neighbor cells) over the window.

    Returns a lazy iterator over the |window|^(degree+1) configurations in
    itertools.product order; raises EnumerationCap when their count exceeds
    ``cap``.
    """
    cells = window.cells()
    total = len(cells) ** (degree + 1)
    if total > cap:
        raise EnumerationCap(f"window of {len(cells)} cells gives {total} configurations "
                             f"of {degree + 1} cells (cap {cap})")
    return itertools.product(cells, repeat=degree + 1)


def build_transition_system(model, grid, params, agent, window,
                            substeps=DEFAULT_SUBSTEPS, max_actions=MAX_ACTIONS) -> TransitionSystem:
    """Enumerate every configuration over the window and record its transition.

    The enumeration covers |window|^(m+1) actions for an agent with m
    neighbors and fails with EnumerationCap beyond ``max_actions``.
    """
    if not params.admissible:
        raise FeasibilityError(f"discretization is not admissible: {params.reason}")
    configs = list(enumerate_configurations(window, model.network.degree(agent), max_actions))
    bank = ControllerBank(model, grid, params, agent, configs, substeps=substeps)
    targets = bank.target_cells()
    transitions = tuple(
        Transition(agent=agent, source=cfg[0], action=cfg, target=target,
                   reference_points=tuple(tuple(p) for p in bank.reference_points[b]))
        for b, (cfg, target) in enumerate(zip(configs, targets)))
    return TransitionSystem(agent=agent, window=window, transitions=transitions)


@dataclass(frozen=True)
class TransitionCheck:
    """Outcome of the falsification sampling for one transition."""

    trials: int
    min_margin: float
    max_margin: float
    histogram_counts: tuple[int, ...]
    histogram_edges: tuple[float, ...]
    marginal: bool


def verify_transition(model, grid, params, transition, window, trials=500, seed=0,
                      substeps=DEFAULT_SUBSTEPS) -> TransitionCheck:
    """Try to falsify the universal landing guarantee of one transition.

    The agent's controller is rebuilt from the recorded reference points and
    driven against randomized environments: its own initial state sweeps the
    cell corners (slightly inset) plus uniform samples, every other agent
    gets a constructive controller with reference points drawn uniformly
    inside its cells, and the global configuration is redrawn per trial from
    the window, consistent with the verified action. A run whose endpoint
    leaves the declared target cell raises WellPosednessViolation.
    """
    if not params.admissible:
        raise FeasibilityError(f"discretization is not admissible: {params.reason}")
    rng = np.random.default_rng(seed)
    net = model.network
    i = transition.agent
    n = net.dimension
    count = net.agent_count
    cells = window.cells()

    controller = ControllerBank(model, grid, params, i, [transition.action],
                                np.asarray(transition.reference_points, dtype=float)[None],
                                substeps)
    target = controller.target_cells()[0]
    if target != transition.target:
        raise ValueError(f"recorded target {transition.target} disagrees with the "
                         f"rebuilt controller's successor {target}")

    # global cell assignment per trial, consistent with the verified action,
    # as integer cells shaped (trials, N, n)
    assignment = np.empty((trials, count, n), dtype=np.int64)
    fixed = {i: transition.source}
    for k, j in enumerate(net.neighbors[i]):
        fixed[j] = transition.action[k + 1]
    window_cells = np.array(cells, dtype=np.int64)
    for j in range(count):
        if j in fixed:
            assignment[:, j] = fixed[j]
        else:
            assignment[:, j] = window_cells[rng.integers(0, len(cells), size=trials)]

    def sample_cells(z):
        # uniform points in the integer cells z (..., n), drawn in C order
        lo = grid.cell_lo(z)
        return rng.uniform(lo, lo + grid.side)

    controllers = []
    for j in range(count):
        if j == i:
            controllers.append(controller)
            continue
        configs = assignment[:, [j, *net.neighbors[j]]]
        controllers.append(ControllerBank(model, grid, params, j, configs.tolist(),
                                          reference_points=sample_cells(configs),
                                          substeps=substeps))

    x0 = np.empty((trials, count, n))
    for j in range(count):
        x0[:, j] = sample_cells(assignment[:, j])
    corners = grid.cell_corners(transition.source, inset=1e-9 * grid.side)
    take = min(trials, len(corners))
    x0[:take, i] = corners[:take]

    trajectory, _ = integrate_closed_loop_batch(model, controllers, x0, substeps=substeps)
    endpoints = trajectory.states[-1, :, i, :]

    box = grid.cell_box(transition.target)
    margins = np.minimum((endpoints - box.lo).min(axis=-1),
                         (box.hi - endpoints).min(axis=-1))
    missed = np.flatnonzero(np.any(grid.cell_indices(endpoints) != transition.target, axis=-1))
    if missed.size:
        b = int(missed[0])
        witness = {"trial": b, "initial": x0[b], "endpoint": endpoints[b],
                   "landed": grid.cell_of(endpoints[b]),
                   "declared": transition.target}
        raise WellPosednessViolation(
            f"trial {b}: agent {i} landed in {witness['landed']} instead of "
            f"{transition.target}", witness)

    try:
        counts, edges = np.histogram(margins, bins=10)
    except ValueError:
        # the margins agree to a few ulps, too close for ten distinct bin
        # edges; keep the ten bins, some of them empty and zero-width
        edges = np.linspace(margins.min(), margins.max(), 11)
        counts = np.bincount(np.searchsorted(edges[1:-1], margins, side="right"),
                             minlength=10)
    endpoint = controller.endpoint[0]
    ref_margin = min(float((endpoint - box.lo).min()), float((box.hi - endpoint).min()))
    return TransitionCheck(trials=trials,
                           min_margin=float(margins.min()),
                           max_margin=float(margins.max()),
                           histogram_counts=tuple(int(c) for c in counts),
                           histogram_edges=tuple(float(e) for e in edges),
                           marginal=ref_margin < MARGINAL_REL * grid.side)


def compose_plan(model, grid, params, source_cells, target_cells, samples=100,
                 seed=0, substeps=DEFAULT_SUBSTEPS):
    """Controllers realizing one synchronous step of a global cell plan.

    Every agent gets its constructive controller for the projected
    configuration; each declared target must equal that controller's
    successor cell. The joint closed loop is then sampled from uniform
    initial states in the source cells; every agent must land in its target
    simultaneously. Returns (controllers, worst-case MonitorReport).
    """
    if not params.admissible:
        raise FeasibilityError(f"discretization is not admissible: {params.reason}")
    net = model.network
    count = net.agent_count
    source_cells = tuple(tuple(int(c) for c in z) for z in source_cells)
    target_cells = tuple(tuple(int(c) for c in z) for z in target_cells)
    if len(source_cells) != count or len(target_cells) != count:
        raise ValueError(f"need {count} source and target cells")

    controllers = []
    for i in range(count):
        config = project_configuration(net, source_cells, i)
        controller = ControllerBank(model, grid, params, i, [config.cells], None, substeps)
        target = controller.target_cells()[0]
        if target != target_cells[i]:
            raise ValueError(f"agent {i}: declared target {target_cells[i]} is not the "
                             f"constructive successor {target}")
        controllers.append(controller)

    rng = np.random.default_rng(seed)
    x0 = np.empty((samples, count, net.dimension))
    for i in range(count):
        x0[:, i, :] = grid.sample_in_cell(source_cells[i], rng, samples)

    trajectory, reports = integrate_closed_loop_batch(model, controllers, x0,
                                                      substeps=substeps)
    endpoints = trajectory.states[-1]
    missed = np.argwhere(np.any(grid.cell_indices(endpoints) != np.array(target_cells),
                                axis=-1))
    if len(missed):
        b, bad = (int(v) for v in missed[0])
        landed = grid.cell_of(endpoints[b, bad])
        witness = {"run": b, "agent": bad, "initial": x0[b],
                   "endpoint": endpoints[b, bad], "landed": landed,
                   "declared": target_cells[bad]}
        raise CompositionViolation(
            f"run {b}: agent {bad} landed in {landed} instead of "
            f"{target_cells[bad]}", witness)
    return controllers, MonitorReport.merge(reports)


@dataclass(frozen=True)
class BoundCertificate:
    """Sampled input-bound certificate across a window of configurations."""

    agent: int
    configurations: int
    samples_per_configuration: int
    input_bound: float
    max_magnitude: float
    worst_configuration: tuple[CellIndex, ...]
    worst_witness: dict
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def certify_window_input_bound(model, grid, params, agent, window, samples=10000,
                               seed=0, reference_policy="center",
                               substeps=DEFAULT_SUBSTEPS,
                               stop_on_violation=False) -> BoundCertificate:
    """Sample |feedback| over every configuration of the window for one agent.

    ``reference_policy`` "center" uses cell centers; "random" draws the
    reference points uniformly inside the declared cells, exercising the
    whole constructive controller family. Violations collect configurations
    whose sampled maximum exceeds the input budget.
    """
    if reference_policy not in ("center", "random"):
        raise ValueError("reference_policy must be 'center' or 'random'")
    rng = np.random.default_rng(seed)
    m = model.network.degree(agent)
    n = model.network.dimension
    configs = enumerate_configurations(window, m)

    best = -1.0
    worst_cfg = None
    worst_witness = None
    violations = []
    checked = 0
    for cfg in configs:
        refs = None
        if reference_policy == "random":
            refs = np.empty((1, m + 1, n))
            for k, z in enumerate(cfg):
                refs[0, k] = grid.sample_in_cell(z, rng, 1)[0]
        controller = ControllerBank(model, grid, params, agent, [cfg], refs, substeps)
        magnitude, witness = sample_feedback_bound(
            controller, samples=samples, seed=int(rng.integers(2**31)))
        checked += 1
        if magnitude > best:
            best = magnitude
            worst_cfg = cfg
            worst_witness = witness
        if magnitude > model.input_bound + INPUT_ATOL:
            violations.append((cfg, magnitude))
            if stop_on_violation:
                break

    return BoundCertificate(agent=agent,
                            configurations=checked,
                            samples_per_configuration=samples,
                            input_bound=model.input_bound,
                            max_magnitude=best,
                            worst_configuration=worst_cfg,
                            worst_witness=worst_witness,
                            violations=tuple(violations))


def to_json(ts: TransitionSystem) -> str:
    """Deterministic JSON encoding of a transition system."""
    obj = {
        "agent": ts.agent,
        "window": [list(r) for r in ts.window.ranges],
        "states": [list(z) for z in ts.states],
        "transitions": [
            {
                "source": list(t.source),
                "action": [list(z) for z in t.action],
                "target": list(t.target),
                "reference_point": [list(p) for p in t.reference_points],
            }
            for t in ts.transitions
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str) -> TransitionSystem:
    """Inverse of :func:`to_json`."""
    obj = json.loads(text)
    window = Window(tuple((lo, hi) for lo, hi in obj["window"]))
    transitions = tuple(
        Transition(agent=obj["agent"],
                   source=tuple(rec["source"]),
                   action=tuple(tuple(z) for z in rec["action"]),
                   target=tuple(rec["target"]),
                   reference_points=tuple(tuple(p) for p in rec["reference_point"]))
        for rec in obj["transitions"])
    return TransitionSystem(agent=obj["agent"], window=window, transitions=transitions)


def to_dot(ts: TransitionSystem) -> str:
    """GraphViz digraph with one node per window cell and one edge per transition."""
    lines = [f"digraph agent_{ts.agent} {{"]
    for z in ts.states:
        lines.append(f'  "{z}";')
    for t in ts.transitions:
        lines.append(f'  "{t.source}" -> "{t.target}" [label="{t.action}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
