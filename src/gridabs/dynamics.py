"""Agent networks and interconnection feedback with declared global constants.

A model carries, per agent i, a feedback evaluator f_i(x_i, x_{j_1}, ...,
x_{j_m}) together with constants that bound it globally:

* ``feedback_bound``: |f_i| <= feedback_bound everywhere,
* ``neighbor_lipschitz``: Lipschitz constant of f_i in the stacked neighbor
  block for fixed own state,
* ``self_lipschitz``: Lipschitz constant in the own state for fixed neighbors,
* ``input_bound``: magnitude budget for the free input added on top of f_i;
  must be strictly smaller than ``feedback_bound``.

Evaluators take ``(own, neighbors)`` with shapes ``(..., n)`` and
``(..., m, n)`` and must broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CellConfiguration, component_sum_squares, row_norm, uniform_in_ball

_TINY = np.finfo(float).tiny
DEFAULT_VALIDATION_TRIALS = 10000
# Radius of the ball per agent from which validate_constants draws its states;
# it is also the largest perturbation scale.
SAMPLE_RADIUS = 1.0

# Observed Lipschitz quotients can exceed the declared constant by float
# roundoff (the saturated-consensus self block attains it exactly), so a
# counterexample requires this much relative excess.
RATIO_EXCESS = 1e-9


class ConstantsViolation(RuntimeError):
    """A sampled state falsified one of the declared constants."""

    def __init__(self, kind, ratio, agent, witness):
        observed = "is not a number" if np.isnan(ratio) else f"{ratio:.6g} > 1"
        super().__init__(f"declared constant {kind!r} violated at agent {agent}: "
                         f"observed ratio {observed}")
        self.kind = kind
        self.ratio = ratio
        self.agent = agent
        self.witness = witness


@dataclass(frozen=True)
class AgentNetwork:
    """Directed neighbor structure of N agents with states in R^n.

    ``neighbors[i]`` is the ordered tuple of agents whose states enter f_i.
    """

    dimension: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "neighbors",
                           tuple(tuple(int(j) for j in row) for row in self.neighbors))
        if self.dimension < 1:
            raise ValueError("state dimension must be at least 1")
        count = len(self.neighbors)
        if count < 1:
            raise ValueError("network needs at least one agent")
        for i, row in enumerate(self.neighbors):
            for j in row:
                if not 0 <= j < count:
                    raise ValueError(f"agent {i} lists unknown neighbor {j}")
                if j == i:
                    raise ValueError(f"agent {i} lists itself as a neighbor")
            if len(set(row)) != len(row):
                raise ValueError(f"agent {i} lists a neighbor twice")

    @classmethod
    def from_edges(cls, dimension, agent_count, edges):
        """Build a symmetric network from undirected edges, neighbors sorted."""
        rows = [set() for _ in range(agent_count)]
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("self loops are not allowed")
            if not (0 <= a < agent_count and 0 <= b < agent_count):
                raise ValueError(f"edge ({a}, {b}) references an unknown agent")
            rows[a].add(b)
            rows[b].add(a)
        return cls(dimension, tuple(tuple(sorted(r)) for r in rows))

    @property
    def agent_count(self) -> int:
        return len(self.neighbors)

    def degree(self, agent) -> int:
        return len(self.neighbors[agent])

    @property
    def max_degree(self) -> int:
        return max(len(row) for row in self.neighbors)


class DynamicsModel:
    """Per-agent interconnection feedback plus its declared constants.

    ``evaluators`` may be None for a constants-only model (admissibility
    arithmetic works, trajectory evaluation does not).

    ``translation_invariant`` declares that every f_i depends on the states
    only through the differences x_j - x_i, so a common shift of all states
    leaves it unchanged. The abstraction then integrates each class of cell
    configurations that differ by a common cell shift once;
    ``validate_constants`` sample-tests the declaration.
    """

    def __init__(self, network, evaluators, feedback_bound, neighbor_lipschitz,
                 self_lipschitz, input_bound, translation_invariant=False):
        feedback_bound = float(feedback_bound)
        neighbor_lipschitz = float(neighbor_lipschitz)
        self_lipschitz = float(self_lipschitz)
        input_bound = float(input_bound)
        if not (feedback_bound > 0.0 and np.isfinite(feedback_bound)):
            raise ValueError("feedback_bound must be positive and finite")
        if not (neighbor_lipschitz >= 0.0 and self_lipschitz >= 0.0):
            raise ValueError("Lipschitz constants must be nonnegative")
        if not (0.0 < input_bound < feedback_bound):
            raise ValueError("input_bound must satisfy 0 < input_bound < feedback_bound")
        if evaluators is not None:
            evaluators = tuple(evaluators)
            if len(evaluators) != network.agent_count:
                raise ValueError("need one evaluator per agent")
        self.network = network
        self.evaluators = evaluators
        self.feedback_bound = feedback_bound
        self.neighbor_lipschitz = neighbor_lipschitz
        self.self_lipschitz = self_lipschitz
        self.input_bound = input_bound
        self.translation_invariant = bool(translation_invariant)

    def evaluator(self, agent):
        if self.evaluators is None:
            raise RuntimeError("model declares constants only and has no evaluators")
        return self.evaluators[agent]


def _sum_in_order(parts, out=None):
    # parts[0] + parts[1] + ... added in order from +0.0, into ``out`` if given;
    # numpy's reduction over a neighbor axis adds the same way, so the two
    # agree bit for bit, signed zeros included
    total = np.add(0.0, parts[0], out=out)
    for k in range(1, len(parts)):
        total += parts[k]
    return total


def _neighbor_field(own, nbrs, term):
    """sum_k term(x_{j_k} - x_i) for ``own`` (..., n) and ``nbrs`` (..., m, n).

    The differences are laid out component-major, shaped (n, m, ...), so
    every elementwise step runs over all rows at once, also when a size-1
    block of frozen neighbors broadcasts against many states. ``term`` turns
    that array into the terms in place. Each entry goes through the same
    operations as in ``term(nbrs - own[..., None, :]).sum(axis=-2)``, so the
    two agree bit for bit.
    """
    if nbrs.shape[-2] == 0:
        return (nbrs - own[..., None, :]).sum(axis=-2)
    lead = max(own.ndim - 1, nbrs.ndim - 2)
    if own.ndim <= lead:
        own = own[(None,) * (lead + 1 - own.ndim)]
    if nbrs.ndim <= lead + 1:
        nbrs = nbrs[(None,) * (lead + 2 - nbrs.ndim)]
    rows = tuple(range(lead))
    # order="C" keeps the rows innermost although the component axis has the
    # smallest stride in both operands
    diffs = np.subtract(nbrs.transpose((lead + 1, lead) + rows),
                        own.transpose((lead,) + rows)[:, None], order="C", dtype=float)
    term(diffs)
    out = np.empty(diffs.shape[2:] + diffs.shape[:1])
    _sum_in_order(diffs.swapaxes(0, 1), out=out.transpose((lead,) + rows))
    return out


def saturated_consensus(network, gain, input_bound):
    """Consensus feedback f_i = sum_k sat_gain(x_{j_k} - x_i).

    sat_gain is the radial projection onto the ball of radius ``gain`` (hence
    1-Lipschitz), giving feedback_bound = gain * maxdeg, neighbor_lipschitz =
    sqrt(maxdeg), self_lipschitz = maxdeg. It depends on the differences only,
    so the model is declared translation invariant.
    """
    gain = float(gain)
    if gain <= 0.0:
        raise ValueError("gain must be positive")
    maxdeg = network.max_degree
    if maxdeg == 0:
        raise ValueError("saturated consensus needs at least one edge")

    def clip(diffs):
        # projection of each difference onto the closed ball B(gain), in place:
        # the factor gain / max(|diff|, gain) is at most 1 and never divides
        # by less than gain, so it cannot overflow
        factor = component_sum_squares(diffs)
        np.sqrt(factor, out=factor)
        np.maximum(factor, gain, out=factor)
        np.divide(gain, factor, out=factor)
        diffs *= factor

    def evaluate(own, nbrs):
        return _neighbor_field(own, nbrs, clip)

    return DynamicsModel(network, (evaluate,) * network.agent_count,
                         feedback_bound=gain * maxdeg,
                         neighbor_lipschitz=float(np.sqrt(maxdeg)),
                         self_lipschitz=float(maxdeg),
                         input_bound=input_bound, translation_invariant=True)


def smooth_consensus(network, gain, input_bound, scale=1.0):
    """Consensus feedback with a smooth radial saturation.

    f_i = scale * sum_k g(x_{j_k} - x_i) with g(v) = v / sqrt(1 + |v|^2/gain^2),
    so |g| < gain and g is 1-Lipschitz. Same constants structure as
    ``saturated_consensus`` scaled by ``scale``, and translation invariant
    too. The field is C^inf, which makes integrator-order measurements
    meaningful.
    """
    gain = float(gain)
    scale = float(scale)
    if gain <= 0.0 or scale <= 0.0:
        raise ValueError("gain and scale must be positive")
    maxdeg = network.max_degree
    if maxdeg == 0:
        raise ValueError("smooth consensus needs at least one edge")

    def soften(diffs):
        # diff / sqrt(1 + |diff|^2 / gain^2) for each difference, in place
        q = component_sum_squares(diffs)
        q /= gain**2
        q += 1.0
        np.sqrt(q, out=q)
        diffs /= q

    def evaluate(own, nbrs):
        out = _neighbor_field(own, nbrs, soften)
        out *= scale
        return out

    return DynamicsModel(network, (evaluate,) * network.agent_count,
                         feedback_bound=scale * gain * maxdeg,
                         neighbor_lipschitz=scale * float(np.sqrt(maxdeg)),
                         self_lipschitz=scale * float(maxdeg),
                         input_bound=input_bound, translation_invariant=True)


def project_configuration(network, cells, agent) -> CellConfiguration:
    """Restrict a global cell assignment to (own cell, neighbor cells) for one agent."""
    cells = tuple(tuple(int(c) for c in z) for z in cells)
    if len(cells) != network.agent_count:
        raise ValueError(f"expected {network.agent_count} cells, got {len(cells)}")
    picked = (cells[agent],) + tuple(cells[j] for j in network.neighbors[agent])
    return CellConfiguration(agent=agent, cells=picked)


@dataclass(frozen=True)
class ValidationReport:
    """Worst observed constant ratios over the sampled battery (all should be <= 1)."""

    trials: int
    worst_bound_ratio: float
    worst_neighbor_ratio: float
    worst_self_ratio: float

    @property
    def ok(self) -> bool:
        worst = max(self.worst_bound_ratio, self.worst_neighbor_ratio, self.worst_self_ratio)
        return worst <= 1.0 + RATIO_EXCESS


def validate_constants(model, trials=DEFAULT_VALIDATION_TRIALS, seed=0) -> ValidationReport:
    """Sample-test the declared constants; raise ConstantsViolation on a witness.

    Draws random state tuples in a ball of SAMPLE_RADIUS per agent and
    difference-quotient pairs from single-coordinate perturbations at several
    scales, tracking |f_i| / feedback_bound and the two Lipschitz quotients.
    A model declared ``translation_invariant`` must then keep f_i, up to
    RATIO_EXCESS * feedback_bound, when all states move by one common shift
    drawn at each scale; these draws come after all others, so the report of
    the constants does not depend on the declaration.
    """
    rng = np.random.default_rng(seed)
    net = model.network
    count, dim = net.agent_count, net.dimension
    scales = (1e-3, 1e-1, SAMPLE_RADIUS)

    worst = {"feedback_bound": 0.0, "neighbor_lipschitz": 0.0, "self_lipschitz": 0.0,
             "translation_invariant": 0.0}

    def track(kind, ratios, agent, states, perturbed):
        k = int(np.argmax(ratios))
        if ratios[k] > worst[kind]:
            worst[kind] = float(ratios[k])
        # a NaN is argmax's pick and fails every comparison, so it is caught here
        if not ratios[k] <= 1.0 + RATIO_EXCESS:
            witness = {"states": states[k], "perturbed": None if perturbed is None else perturbed[k]}
            raise ConstantsViolation(kind, float(ratios[k]), agent, witness)

    states = np.stack([uniform_in_ball(rng, trials, dim, SAMPLE_RADIUS)
                       for _ in range(count)], axis=1)  # (T, N, n)
    bases = []  # f_i at the sampled states, reused by the translation check
    for i in range(count):
        ev = model.evaluator(i)
        m = net.degree(i)
        own = states[:, i]
        nbrs = states[:, list(net.neighbors[i]), :]
        base = ev(own, nbrs)
        bases.append(base)

        ratios = row_norm(base) / model.feedback_bound
        track("feedback_bound", ratios, i, states, None)

        for scale in scales:
            if m > 0 and model.neighbor_lipschitz > 0.0:
                delta = np.zeros_like(nbrs)
                rows = np.arange(trials)
                which = rng.integers(0, m, size=trials)
                axis = rng.integers(0, dim, size=trials)
                mag = scale * rng.uniform(0.5, 1.0, size=trials) * rng.choice((-1.0, 1.0), size=trials)
                delta[rows, which, axis] = mag
                moved = ev(own, nbrs + delta)
                quot = row_norm(moved - base) / np.abs(mag)
                track("neighbor_lipschitz", quot / model.neighbor_lipschitz, i,
                      states, nbrs + delta)
            if model.self_lipschitz > 0.0:
                step = scale * rng.uniform(0.5, 1.0, size=(trials, 1))
                direction = rng.normal(size=(trials, dim))
                direction /= np.maximum(row_norm(direction)[:, None], _TINY)
                moved = ev(own + step * direction, nbrs)
                quot = row_norm(moved - base) / step[:, 0]
                track("self_lipschitz", quot / model.self_lipschitz, i,
                      states, own + step * direction)

    if model.translation_invariant:
        for i, base in enumerate(bases):
            ev = model.evaluator(i)
            nbrs = list(net.neighbors[i])
            for scale in scales:
                shifted = states + uniform_in_ball(rng, trials, dim, scale)[:, None, :]
                moved = ev(shifted[:, i], shifted[:, nbrs, :])
                track("translation_invariant",
                      row_norm(moved - base) / (RATIO_EXCESS * model.feedback_bound), i,
                      states, shifted)

    return ValidationReport(trials=trials,
                            worst_bound_ratio=worst["feedback_bound"],
                            worst_neighbor_ratio=worst["neighbor_lipschitz"],
                            worst_self_ratio=worst["self_lipschitz"])
