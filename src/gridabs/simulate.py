"""Closed-loop integration of all agents under their hybrid controllers.

Every agent runs its own controller simultaneously; the integrator samples
the true coupled dynamics (feedback term plus controller) on a fixed uniform
substep grid and logs, at every knot, each agent's applied input magnitude
and whether it still lies in its declared cell inflated by the reach radius.

The integration is fixed-step classical RK4: identical inputs and substep
counts give bit-identical trajectories. Each RK4 step has two distinct stage
times, the half step and the next knot, so every agent's reference ref(t),
its frozen-neighbor field and the drift compensation built from them are
computed once per distinct time: the half-step pair by one dense query, and
the knot pair read from the stored dense output when the loop runs on the
controllers' own knot grid (computed once per knot otherwise). The plant
field f(own, neighbors) is evaluated once per stage and serves both the
dynamics and the coupling cancellation, and the offset homing once per run.
The results are bit-identical to evaluating the full feedback afresh at
every stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import ControllerBank, DEFAULT_SUBSTEPS
from .geometry import box_distance, DISTANCE_ATOL

# Slack on the input-magnitude certificate |k| <= input_bound.
INPUT_ATOL = 1e-12


class IntegrationError(RuntimeError):
    """The closed-loop state left the representable range."""


class InputBoundViolation(RuntimeError):
    """Logged input magnitude exceeded the declared input budget."""

    def __init__(self, agent, time, magnitude, bound):
        super().__init__(f"agent {agent} applied |input| = {magnitude:.6g} > "
                         f"{bound:.6g} at t = {time:.6g}")
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


@dataclass(frozen=True)
class MonitorReport:
    """Per-agent summary of one closed-loop run.

    ``containment_ok`` covers the knots strictly before the period's end;
    ``endpoint_deviation`` is the distance between the realized endpoint and
    the controller's reference endpoint; ``interpolation_deviation`` is the
    worst knot residual of the linear-homing identity
    x_i(t) = ref_i(t) + (1 - t/period) * (x_i(0) - ref_i(0)).
    """

    max_input: np.ndarray
    containment_ok: np.ndarray
    endpoint_deviation: np.ndarray
    interpolation_deviation: np.ndarray

    @staticmethod
    def merge(reports):
        """Worst-case fold of several reports (maxima, containment AND)."""
        reports = list(reports)
        return MonitorReport(
            max_input=np.max([r.max_input for r in reports], axis=0),
            containment_ok=np.min([r.containment_ok for r in reports], axis=0).astype(bool),
            endpoint_deviation=np.max([r.endpoint_deviation for r in reports], axis=0),
            interpolation_deviation=np.max([r.interpolation_deviation for r in reports], axis=0),
        )


def _member(values, b):
    # bank arrays are stacked (B_i, ...); size-1 banks broadcast
    return values[b if len(values) > 1 else 0]


def _first(mask):
    """Index tuple of the first True entry of ``mask`` in C order, or None."""
    hits = np.argwhere(mask)
    return tuple(int(v) for v in hits[0]) if len(hits) else None


def _check_setup(model, banks, batch):
    net = model.network
    if len(banks) != net.agent_count:
        raise ValueError(f"need one controller per agent ({net.agent_count}), "
                         f"got {len(banks)}")
    for bank in banks:
        if not isinstance(bank, ControllerBank):
            raise TypeError(f"expected a ControllerBank, got {type(bank).__name__}")
    grid = banks[0].grid
    period = banks[0].period
    for i, bank in enumerate(banks):
        if bank.agent != i:
            raise ValueError(f"controller at position {i} is for agent {bank.agent}")
        if bank.size not in (1, batch):
            raise ValueError(f"agent {i} bank has size {bank.size}, expected 1 or {batch}")
        if bank.period != period:
            raise ValueError("controllers disagree on the period")
        g = bank.grid
        if (g.dimension != grid.dimension or g.side != grid.side
                or not np.array_equal(g.origin, grid.origin)):
            raise ValueError("controllers disagree on the grid")
    # the declared cells must project from one global configuration per run
    own = [bank.cell_array[:, 0] for bank in banks]
    clash = np.zeros((batch, len(banks)), dtype=bool)
    for i, bank in enumerate(banks):
        for k, j in enumerate(net.neighbors[i]):
            clash[:, i] |= np.any(bank.cell_array[:, k + 1] != own[j], axis=-1)
    bad = _first(clash)
    if bad is not None:
        b, i = bad
        declared = _member(banks[i].configurations, b)[1:]
        expected = tuple(_member(banks[j].configurations, b)[0] for j in net.neighbors[i])
        raise ValueError(f"agent {i} declares neighbor cells {declared} "
                         f"but the shared configuration implies {expected}")
    return grid, period


def _interpolation_deviation(bank, times, own_states):
    """Worst knot residual per run of the linear-homing identity.

    ``own_states`` is one agent's (K+1, B, n) block on the knots ``times``;
    the identity is x(t) = ref(t) + (1 - t/period) * (x(0) - ref(0)).
    """
    remain = (1.0 - times / bank.period)[:, None, None]
    offset = own_states[0] - bank._own_ref
    resid = own_states - bank.dense.at(times) - remain * offset
    return np.linalg.norm(resid, axis=-1).max(axis=0)


def integrate_closed_loop_batch(model, controllers, x0, substeps=DEFAULT_SUBSTEPS):
    """Integrate a batch of joint runs; x0 has shape (B, N, n).

    ``controllers`` holds one ControllerBank per agent, shared by all runs
    (banks of size 1 broadcast; banks of size B give run ``b`` its member
    ``b``). Returns a batched Trajectory and one MonitorReport per run.
    """
    x0 = np.asarray(x0, dtype=float)
    net = model.network
    count, dim = net.agent_count, net.dimension
    if x0.ndim != 3 or x0.shape[1:] != (count, dim):
        raise ValueError(f"expected x0 shaped (B, {count}, {dim}), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial states have non-finite entries")
    batch = x0.shape[0]
    banks = list(controllers)
    grid, period = _check_setup(model, banks, batch)

    own_cells = [bank.cell_array[:, 0] for bank in banks]
    outside = np.stack([np.any(grid.cell_indices(x0[:, i]) != own_cells[i], axis=-1)
                        for i in range(count)], axis=1)
    bad = _first(outside)
    if bad is not None:
        b, i = bad
        raise ValueError(f"run {b}: agent {i} starts at {x0[b, i].tolist()} "
                         f"outside its declared cell {_member(banks[i].configurations, b)[0]}")

    steps = int(substeps)
    times = np.linspace(0.0, period, steps + 1)
    neighbor_idx = [list(net.neighbors[i]) for i in range(count)]
    evaluators = [model.evaluator(i) for i in range(count)]
    starts = [np.ascontiguousarray(x0[:, i]) for i in range(count)]
    homing = [bank.offset_homing(starts[i]) for i, bank in enumerate(banks)]
    # a bank integrated on this very grid already stores ref and its field at every knot
    stored = [np.array_equal(times, bank.dense.times) for bank in banks]

    lo = np.stack([np.broadcast_to(grid.cell_lo(cells), (batch, dim)) for cells in own_cells])
    hi = lo + grid.side

    states = np.empty((steps + 1, batch, count, dim))
    mags = np.empty((steps + 1, batch, count))
    contained = np.empty((steps + 1, batch, count), dtype=bool)

    def drifts(t, knot=None):
        # per agent: the drift compensation at t from ref(t) and its
        # frozen-neighbor field, read from the stored dense output when t is
        # knot ``knot`` of the bank's own grid
        out = []
        for i, bank in enumerate(banks):
            if knot is not None and stored[i]:
                ref, field = bank.dense.states[knot], bank.dense.derivs[knot]
            else:
                ref = bank.dense.at(t)
                field = bank.frozen_field(ref)
            out.append(bank.drift_compensation(t, starts[i], ref, field))
        return out

    def apply(t, y, drift, log=None):
        u = np.empty_like(y)
        for i in range(count):
            own = y[:, i]
            nbrs = y[:, neighbor_idx[i]]
            plant = evaluators[i](own, nbrs)
            k = banks[i].feedback(t, own, nbrs, starts[i], plant=plant, homing=homing[i],
                                  drift=drift[i])
            u[:, i] = plant + k
            if log is not None:
                log[:, i] = np.linalg.norm(k, axis=-1)
        return u

    def monitor(row, y):
        for i in range(count):
            contained[row, :, i] = (box_distance(lo[i], hi[i], y[:, i])
                                    <= banks[i].params.reach_radius + DISTANCE_ATOL)

    y = x0.copy()
    states[0] = y
    monitor(0, y)
    knot_drift = drifts(times[0], 0)
    k1 = apply(times[0], y, knot_drift, log=mags[0])
    for m in range(steps):
        t = times[m]
        t_next = times[m + 1]
        h = t_next - t
        # the knots start at 0, so h is exact and t + h == t_next: k4 shares
        # the next knot's drift
        half = t + 0.5 * h
        half_drift = drifts(half)
        knot_drift = drifts(t_next, m + 1)
        k2 = apply(half, y + 0.5 * h * k1, half_drift)
        k3 = apply(half, y + 0.5 * h * k2, half_drift)
        k4 = apply(t_next, y + h * k3, knot_drift)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state after t = {t_next:.6g}")
        states[m + 1] = y
        monitor(m + 1, y)
        k1 = apply(t_next, y, knot_drift, log=mags[m + 1])

    endpoint_dev = np.empty((batch, count))
    interp_dev = np.empty((batch, count))
    for i, bank in enumerate(banks):
        interp_dev[:, i] = _interpolation_deviation(bank, times, states[:, :, i, :])
        endpoint_dev[:, i] = np.linalg.norm(states[-1, :, i, :] - bank.endpoint, axis=-1)

    trajectory = Trajectory(times=times, states=states, input_magnitudes=mags,
                            contained=contained)
    reports = [MonitorReport(max_input=mags[:, b].max(axis=0),
                             containment_ok=contained[:-1, b].all(axis=0),
                             endpoint_deviation=endpoint_dev[b],
                             interpolation_deviation=interp_dev[b])
               for b in range(batch)]
    return trajectory, reports


def integrate_closed_loop(model, controllers, x0, substeps=DEFAULT_SUBSTEPS):
    """Integrate one joint run from x0 shaped (N, n).

    Returns the Trajectory (states (K+1, N, n)) and its MonitorReport.
    """
    x0 = np.asarray(x0, dtype=float)
    trajectory, reports = integrate_closed_loop_batch(model, controllers, x0[None],
                                                      substeps=substeps)
    single = Trajectory(times=trajectory.times,
                        states=trajectory.states[:, 0],
                        input_magnitudes=trajectory.input_magnitudes[:, 0],
                        contained=trajectory.contained[:, 0])
    return single, reports[0]


def check_linear_interpolation(trajectory, controllers) -> np.ndarray:
    """Worst knot residual per agent of the linear-homing identity.

    Recomputed from the stored states: the realized state must equal the
    reference trajectory plus the linearly vanishing share of the initial
    offset at every knot.
    """
    states = trajectory.states
    if states.ndim != 3:
        raise ValueError("expected a single-run trajectory")
    return np.array([_interpolation_deviation(bank, trajectory.times, states[:, None, i, :])[0]
                     for i, bank in enumerate(controllers)])


def check_input_bound(trajectory, params) -> np.ndarray:
    """Per-agent maxima of the logged input magnitudes; raise on violation.

    The certificate is |input| <= input_bound at every knot of every agent.
    """
    mags = trajectory.input_magnitudes
    maxima = mags.max(axis=0)
    worst = np.unravel_index(np.argmax(mags), mags.shape)
    if mags[worst] > params.input_bound + INPUT_ATOL:
        agent = worst[-1]
        time = trajectory.times[worst[0]]
        raise InputBoundViolation(agent, float(time), float(mags[worst]),
                                  params.input_bound)
    return maxima
