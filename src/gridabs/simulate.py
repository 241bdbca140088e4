"""Closed-loop integration of agents under their hybrid controllers.

In the joint loop every agent runs its own controller simultaneously; the
integrator samples the coupled dynamics of the model its controller banks
were built from on the knot grid they were integrated on, both of which they
share, and logs, at every knot, each agent's applied input magnitude and
whether it still lies in its declared cell inflated by the reach radius. The
one-agent loop integrates a single agent under its controller while its
neighbors follow prescribed signals, and keeps only the endpoints and the
input magnitudes.

Both loops are one driver, `_drive`, after one bank check, `_check_banks`.
The driver steps through `integrate.rk4_steps`, the package's one RK4 loop,
with the neighbor states taken from the joint state or the prescribed
signals, so identical inputs give bit-identical results; the monitors read
the feedback the rate function computed at each knot. Each bank keeps, for a
whole run, one stack of the actual and the frozen neighbor blocks, whose
frozen half `ControllerBank.frozen_field` writes once, and one buffer that
`ControllerBank.feedback` sums the three terms into. At every stage the
neighbor states are written into the stack, and one evaluator call per bank
on it gives both the plant field f(own, neighbors) and the frozen field that
the coupling cancellation subtracts. The values that depend only on time, the
drift compensation and the prescribed neighbor signals, are computed for a
block of consecutive stage times at once (`integrate.stage_times` gives them
as `rk4_steps` does), at most `_BLOCK_ROWS` stage rows per block, so memory
does not grow with the substeps; the offset homing is computed once per run.
All of it is bit-identical to evaluating the full feedback afresh at every
stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import ControllerBank
from .geometry import first_true, row_norm, sum_squares
from .integrate import rk4_steps, stage_times

# Slack on the input-magnitude certificate |k| <= input_bound.
INPUT_ATOL = 1e-12

# Bound on the stage rows (stage times x runs) of one block of the values the
# closed loop computes from time alone: the drift compensation and prescribed
# neighbor signals. A block holds at least one step.
_BLOCK_ROWS = 8192


def exceeds_input_bound(magnitude, bound):
    """Whether an input magnitude breaks the budget ``|k| <= bound`` beyond INPUT_ATOL; NaN does."""
    return not magnitude <= bound + INPUT_ATOL


class IntegrationError(RuntimeError):
    """The closed-loop state left the representable range."""


class InputBoundViolation(RuntimeError):
    """Logged input magnitude exceeded the declared input budget."""

    def __init__(self, agent, time, magnitude, bound):
        observed = ("that is not a number" if np.isnan(magnitude)
                    else f"= {magnitude:.6g} > {bound:.6g}")
        super().__init__(f"agent {agent} applied |input| {observed} at t = {time:.6g}")
        self.agent = agent
        self.time = time
        self.magnitude = magnitude


@dataclass(frozen=True)
class Trajectory:
    """Knot times, states, and per-knot monitor samples for one run.

    ``states`` is (K+1, N, n) for a single run; the batched integrator
    returns (K+1, B, N, n) with matching leading axes on the monitor arrays.
    """

    times: np.ndarray
    states: np.ndarray
    input_magnitudes: np.ndarray
    contained: np.ndarray

    @property
    def agents(self):
        """The agent of each entry of the monitors' last axis."""
        return range(self.input_magnitudes.shape[-1])


@dataclass(frozen=True)
class AgentRuns:
    """Endpoints and input magnitudes of one agent's batch of runs.

    ``endpoints`` is (B, n), the states at the end of the period;
    ``input_magnitudes`` is (K+1, B, 1), the agent's |input| at every knot,
    whose last axis holds the one agent of ``agents`` as a Trajectory's
    holds every agent.
    """

    agent: int
    times: np.ndarray
    endpoints: np.ndarray
    input_magnitudes: np.ndarray

    @property
    def agents(self):
        return (self.agent,)


@dataclass(frozen=True)
class MonitorReport:
    """Per-agent monitor summary of closed-loop runs.

    The batched integrator returns fields shaped (B, N), one row per run;
    `worst` reduces them to (N,). ``containment_ok`` covers the knots
    strictly before the period's end; ``endpoint_deviation`` is the distance
    between the realized endpoint and the controller's reference endpoint;
    ``interpolation_deviation`` is the worst knot residual of the
    linear-homing identity
    x_i(t) = ref_i(t) + (1 - t/period) * (x_i(0) - ref_i(0)).
    """

    max_input: np.ndarray
    containment_ok: np.ndarray
    endpoint_deviation: np.ndarray
    interpolation_deviation: np.ndarray

    def worst(self):
        """Worst case over the run axis (maxima, containment AND); fields (N,)."""
        return MonitorReport(max_input=self.max_input.max(axis=0),
                             containment_ok=self.containment_ok.all(axis=0),
                             endpoint_deviation=self.endpoint_deviation.max(axis=0),
                             interpolation_deviation=self.interpolation_deviation.max(axis=0))


def _check_banks(banks, x0):
    """Own cells (B, A, n) of the banks that drive x0 (B, A, n), bank ``a`` column ``a``.

    The banks share one model (the plant: their coupling cancellation is exact
    only there), grid, period, reach radius and substeps; each has size 1 or B,
    and every start lies in its bank's declared own cell.
    """
    for bank in banks:
        if not isinstance(bank, ControllerBank):
            raise TypeError(f"expected a ControllerBank, got {type(bank).__name__}")
    if not banks:
        raise ValueError("need one controller per agent, got 0")
    first = banks[0]
    shape = (len(banks), first.model.network.dimension)
    if x0.ndim != 3 or x0.shape[1:] != shape:
        raise ValueError(f"expected x0 shaped (B, {shape[0]}, {shape[1]}), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial states have non-finite entries")
    batch, grid = len(x0), first.grid
    shared = (first.period, first.params.reach_radius, first.substeps)
    for bank in banks:
        if bank.model is not first.model:
            raise ValueError("controllers disagree on the model")
        if bank.size not in (1, batch):
            raise ValueError(f"agent {bank.agent} bank has size {bank.size}, "
                             f"expected 1 or {batch}")
        if (bank.period, bank.params.reach_radius, bank.substeps) != shared:
            raise ValueError("controllers disagree on the period, the reach radius "
                             "or the substeps")
        g = bank.grid
        if (g.dimension != grid.dimension or g.side != grid.side
                or not np.array_equal(g.origin, grid.origin)):
            raise ValueError("controllers disagree on the grid")
    own = np.stack([np.broadcast_to(bank.cell_array[:, 0], (batch, shape[1]))
                    for bank in banks], axis=1)
    bad = grid.first_outside(x0, own)
    if bad is not None:
        b, a = bad
        raise ValueError(f"run {b}: agent {banks[a].agent} starts at {x0[b, a].tolist()} "
                         f"outside its declared cell {tuple(own[b, a].tolist())}")
    return own


def _drive(banks, x0, neighbors, mags):
    """Step the columns of x0 (B, A, n) under checked ``banks`` on their knots.

    ``neighbors(times)`` is called once per block of stage times and returns
    ``fill(k, y, blocks)``, which writes each column's neighbor states at the
    stage of time ``times[k]`` and state ``y`` into ``blocks[a]`` (B, m_a, n).
    At every knot ``m`` it writes the |input| into ``mags[m]`` (B, A) and
    yields the state; a non-finite state raises IntegrationError.
    """
    batch, n = len(x0), x0.shape[-1]
    starts = [np.ascontiguousarray(x0[:, a]) for a in range(len(banks))]
    homing = [bank.offset_homing(start) for bank, start in zip(banks, starts)]
    # per bank, for the whole run: its evaluator, the stack of the actual and
    # the frozen neighbor blocks that it is called on (`frozen_field`), and
    # the buffer its feedback is summed into
    evaluators = [bank.model.evaluator(bank.agent) for bank in banks]
    stacks = [bank.frozen_field(None, stack=np.empty(
        (2, batch, bank.model.network.degree(bank.agent), n))) for bank in banks]
    actual = [stack[0] for stack in stacks]
    feedback = [np.empty((batch, n)) for _ in banks]
    finite = np.empty(x0.shape, dtype=bool)
    times = banks[0].dense.times
    # the distinct stage times in the order RK4 asks for them: the first knot,
    # then each step's half step and its end, which is the next knot itself
    # (`stage_times`); a rate call finds its stage by its time. Blocks hold
    # whole steps; the first one also holds the first knot.
    _, mid, end = stage_times(times[:-1], times[1:])
    stage = np.concatenate([times[:1], np.stack([mid, end], axis=1).ravel()])
    per_block = 2 * max(1, _BLOCK_ROWS // (2 * batch))
    blocks = iter(np.split(stage, range(1 + per_block, len(stage), per_block)))
    rows, drifts, fill = {}, None, None

    def rate(t, y):
        nonlocal rows, drifts, fill
        if t not in rows:
            # RK4 has moved past the block: the next one's time-only values
            block = next(blocks)
            rows = {s: k for k, s in enumerate(block.tolist())}
            drifts = [bank.drift_compensation(block[:, None], start)
                      for bank, start in zip(banks, starts)]
            fill = neighbors(block)
        k = rows[t]
        fill(k, y, actual)
        u = np.empty_like(y)
        for a, bank in enumerate(banks):
            own = y[:, a]
            fields = evaluators[a](own, stacks[a])
            bank.feedback(t, own, actual[a], starts[a], fields, homing[a], drifts[a][k],
                          feedback[a])
            np.add(fields[0], feedback[a], out=u[:, a])
        return u

    # rate's last call was at the yielded knot: ``feedback`` holds its values there
    for m, (y, _) in enumerate(rk4_steps(rate, x0, times)):
        if not np.isfinite(y, out=finite).all():
            raise IntegrationError(f"non-finite state after t = {times[m]:.6g}")
        for a, k in enumerate(feedback):
            np.sqrt(sum_squares(k), out=mags[m, :, a])
        yield y


def _interpolation_deviation(bank, own_states):
    """Worst knot residual per run of the linear-homing identity.

    ``own_states`` is one agent's (K+1, B, n) block on the bank's knots; the
    identity is x(t) = ref(t) + (1 - t/period) * (x(0) - ref(0)).
    """
    dense = bank.dense
    remain = (1.0 - dense.times / bank.period)[:, None, None]
    offset = own_states[0] - bank.reference_points[:, 0, :]
    resid = own_states - dense.states - remain * offset
    return row_norm(resid).max(axis=0)


def integrate_closed_loop_batch(controllers, x0):
    """Integrate a batch of joint runs; x0 has shape (B, N, n).

    ``controllers`` holds one ControllerBank per agent, shared by all runs
    (banks of size 1 broadcast; banks of size B give run ``b`` its member
    ``b``), all built from one model: the plant. The runs step on the banks'
    knot grid. Returns a batched Trajectory and a MonitorReport whose fields
    are (B, N), one row per run.
    """
    x0 = np.asarray(x0, dtype=float)
    banks = list(controllers)
    own_cells = _check_banks(banks, x0)
    net = banks[0].model.network
    if len(banks) != net.agent_count:
        raise ValueError(f"need one controller per agent, got {len(banks)}")
    for i, bank in enumerate(banks):
        if bank.agent != i:
            raise ValueError(f"controller at position {i} is for agent {bank.agent}")
    # the declared cells must project from one global configuration per run
    neighbor_idx = [np.array(net.neighbors[i], dtype=np.intp) for i in range(len(banks))]
    cells = [np.broadcast_to(bank.cell_array, (len(x0),) + bank.cell_array.shape[1:])
             for bank in banks]
    clash = np.stack([np.any(c[:, 1:] != own_cells[:, idx], axis=(-2, -1))
                      for c, idx in zip(cells, neighbor_idx)], axis=1)
    bad = first_true(clash)
    if bad is not None:
        b, i = bad
        declared = tuple(map(tuple, cells[i][b, 1:].tolist()))
        expected = tuple(map(tuple, own_cells[b, neighbor_idx[i]].tolist()))
        raise ValueError(f"agent {i} declares neighbor cells {declared} "
                         f"but the shared configuration implies {expected}")

    times = banks[0].dense.times
    states = np.empty(times.shape + x0.shape)
    mags = np.empty(times.shape + x0.shape[:2])

    def joint(block_times):
        def fill(k, y, blocks):
            # the network's indices are in range: "clip" only spares numpy a
            # buffered copy of ``out``
            for idx, out in zip(neighbor_idx, blocks):
                np.take(y, idx, axis=1, out=out, mode="clip")
        return fill

    knots = _drive(banks, x0, joint, mags)
    for m, y in enumerate(knots):
        states[m] = y
    contained = banks[0].grid.inflated_contains(own_cells, banks[0].params.reach_radius,
                                                states)

    endpoint_dev = np.empty(x0.shape[:2])
    interp_dev = np.empty(x0.shape[:2])
    for i, bank in enumerate(banks):
        interp_dev[:, i] = _interpolation_deviation(bank, states[:, :, i, :])
        endpoint_dev[:, i] = row_norm(states[-1, :, i, :] - bank.endpoint)

    trajectory = Trajectory(times=times, states=states, input_magnitudes=mags,
                            contained=contained)
    report = MonitorReport(max_input=mags.max(axis=0),
                           containment_ok=contained[:-1].all(axis=0),
                           endpoint_deviation=endpoint_dev,
                           interpolation_deviation=interp_dev)
    return trajectory, report


def integrate_agent_batch(bank, x0, neighbors):
    """Integrate one agent alone from x0 (B, n) while its neighbors follow signals.

    ``bank`` is the agent's ControllerBank (size 1 or B); its model is the
    plant and its knots are the runs' knots. ``neighbors`` is a
    DenseTrajectory of the neighbor states shaped (B, m, n) over the period,
    so the agent's rate is f_i(x, neighbors(t)) plus the bank's feedback.
    Every start must lie in its declared own cell, else ValueError. Returns
    the AgentRuns: the endpoints and the |input| at every knot, no states.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2:
        raise ValueError(f"expected x0 shaped (B, n), got {x0.shape}")
    _check_banks([bank], x0[:, None])
    batch, n = x0.shape
    m = bank.model.network.degree(bank.agent)
    if neighbors.states.shape[1:] != (batch, m, n):
        raise ValueError(f"expected neighbor signals shaped (P, {batch}, {m}, {n}), "
                         f"got {neighbors.states.shape}")

    def signals(block_times):
        states = neighbors.at(block_times)

        def fill(k, y, blocks):
            blocks[0][...] = states[k]
        return fill

    times = bank.dense.times
    mags = np.empty(times.shape + (batch, 1))
    for y in _drive([bank], x0[:, None], signals, mags):
        pass
    return AgentRuns(agent=bank.agent, times=times, endpoints=y[:, 0], input_magnitudes=mags)


def integrate_closed_loop(controllers, x0):
    """Integrate one joint run from x0 shaped (N, n).

    Returns the Trajectory (states (K+1, N, n)) and its MonitorReport
    (fields (N,)).
    """
    x0 = np.asarray(x0, dtype=float)
    trajectory, report = integrate_closed_loop_batch(controllers, x0[None])
    single = Trajectory(times=trajectory.times,
                        states=trajectory.states[:, 0],
                        input_magnitudes=trajectory.input_magnitudes[:, 0],
                        contained=trajectory.contained[:, 0])
    # the worst case over a batch of one run is that run
    return single, report.worst()


def check_input_bound(trajectory, model) -> np.ndarray:
    """Per-agent maxima of the logged input magnitudes; raise on violation.

    The certificate is |input| <= model.input_bound at every knot of every agent.
    ``trajectory`` is a Trajectory or an AgentRuns: the last axis of its input
    magnitudes holds its ``agents``.
    """
    mags = trajectory.input_magnitudes
    maxima = mags.max(axis=0)
    worst = np.unravel_index(np.argmax(mags), mags.shape)
    if exceeds_input_bound(mags[worst], model.input_bound):
        raise InputBoundViolation(trajectory.agents[worst[-1]],
                                  float(trajectory.times[worst[0]]),
                                  float(mags[worst]), model.input_bound)
    return maxima
