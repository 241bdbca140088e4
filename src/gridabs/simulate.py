"""Closed-loop integration of all agents under their hybrid controllers.

Every agent runs its own controller simultaneously; the integrator samples
the coupled dynamics of the model its controller banks were built from on
the knot grid they were integrated on, both of which they share, and logs, at
every knot, each agent's applied input magnitude and whether it still lies in
its declared cell inflated by the reach radius.

One rate function of the coupled system steps through `integrate.rk4_steps`,
the package's one RK4 loop, so identical inputs give bit-identical
trajectories; the monitors read the feedback the rate function computed at
each knot, and no derivative array is kept. The drift compensation (once per
distinct stage time, from the banks' stored reference at the knots), the
offset homing (once per run) and the plant field f(own, neighbors) are
shared between the stages and terms that need them, bit-identical to
evaluating the full feedback afresh at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import ControllerBank
from .geometry import first_true, row_norm
from .integrate import rk4_steps

# Slack on the input-magnitude certificate |k| <= input_bound.
INPUT_ATOL = 1e-12


def exceeds_input_bound(magnitude, bound):
    """Whether an input magnitude breaks the budget ``|k| <= bound`` beyond INPUT_ATOL."""
    return magnitude > bound + INPUT_ATOL


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


def _check_setup(banks, x0):
    """Model, grid, reach radius and own cells (B, N, n) of banks that fit ``x0``."""
    for bank in banks:
        if not isinstance(bank, ControllerBank):
            raise TypeError(f"expected a ControllerBank, got {type(bank).__name__}")
    if not banks or len(banks) != banks[0].model.network.agent_count:
        raise ValueError(f"need one controller per agent, got {len(banks)}")
    # the plant is the banks' model: their coupling cancellation is exact only there
    model = banks[0].model
    net = model.network
    count, dim = net.agent_count, net.dimension
    if x0.ndim != 3 or x0.shape[1:] != (count, dim):
        raise ValueError(f"expected x0 shaped (B, {count}, {dim}), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial states have non-finite entries")
    batch = x0.shape[0]
    grid, reach = banks[0].grid, banks[0].params.reach_radius
    shared = (banks[0].period, reach, banks[0].substeps)
    for i, bank in enumerate(banks):
        if bank.agent != i:
            raise ValueError(f"controller at position {i} is for agent {bank.agent}")
        if bank.model is not model:
            raise ValueError("controllers disagree on the model")
        if bank.size not in (1, batch):
            raise ValueError(f"agent {i} bank has size {bank.size}, expected 1 or {batch}")
        if (bank.period, bank.params.reach_radius, bank.substeps) != shared:
            raise ValueError("controllers disagree on the period, the reach radius "
                             "or the substeps")
        g = bank.grid
        if (g.dimension != grid.dimension or g.side != grid.side
                or not np.array_equal(g.origin, grid.origin)):
            raise ValueError("controllers disagree on the grid")
    # the declared cells must project from one global configuration per run
    cells = [np.broadcast_to(bank.cell_array, (batch,) + bank.cell_array.shape[1:])
             for bank in banks]
    own = np.stack([c[:, 0] for c in cells], axis=1)
    clash = np.stack([np.any(c[:, 1:] != own[:, list(net.neighbors[i])], axis=(-2, -1))
                      for i, c in enumerate(cells)], axis=1)
    bad = first_true(clash)
    if bad is not None:
        b, i = bad
        declared = tuple(map(tuple, cells[i][b, 1:].tolist()))
        expected = tuple(map(tuple, own[b, list(net.neighbors[i])].tolist()))
        raise ValueError(f"agent {i} declares neighbor cells {declared} "
                         f"but the shared configuration implies {expected}")
    bad = grid.first_outside(x0, own)
    if bad is not None:
        b, i = bad
        raise ValueError(f"run {b}: agent {i} starts at {x0[b, i].tolist()} "
                         f"outside its declared cell {tuple(own[b, i].tolist())}")
    return model, grid, reach, own


def _interpolation_deviation(bank, own_states):
    """Worst knot residual per run of the linear-homing identity.

    ``own_states`` is one agent's (K+1, B, n) block on the bank's knots; the
    identity is x(t) = ref(t) + (1 - t/period) * (x(0) - ref(0)).
    """
    dense = bank.dense
    remain = (1.0 - dense.times / bank.period)[:, None, None]
    offset = own_states[0] - bank._own_ref
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
    model, grid, reach, own_cells = _check_setup(banks, x0)
    net, count = model.network, len(banks)
    times = banks[0].dense.times
    neighbor_idx = [list(net.neighbors[i]) for i in range(count)]
    evaluators = [model.evaluator(i) for i in range(count)]
    starts = [np.ascontiguousarray(x0[:, i]) for i in range(count)]
    homing = [bank.offset_homing(starts[i]) for i, bank in enumerate(banks)]
    drift_memo = {}
    feedback = [None] * count

    def drifts(t):
        # per agent: the drift compensation at t, which depends only on t. RK4
        # asks for each stage time twice in a row: k2 and k3 at the half step,
        # then k4 and the knot at t + h == t_next (the knots start at 0, so h is
        # exact). One memo entry is enough.
        if t not in drift_memo:
            drift_memo.clear()
            drift_memo[t] = [bank.drift_compensation(t, starts[i])
                             for i, bank in enumerate(banks)]
        return drift_memo[t]

    def rate(t, y):
        drift = drifts(t)
        u = np.empty_like(y)
        for i in range(count):
            own = y[:, i]
            nbrs = y[:, neighbor_idx[i]]
            plant = evaluators[i](own, nbrs)
            feedback[i] = banks[i].feedback(t, own, nbrs, starts[i], plant=plant,
                                            homing=homing[i], drift=drift[i])
            u[:, i] = plant + feedback[i]
        return u

    states = np.empty(times.shape + x0.shape)
    mags = np.empty(times.shape + x0.shape[:2])
    contained = np.empty(times.shape + x0.shape[:2], dtype=bool)
    # rate's last call was at the yielded knot: ``feedback`` holds its values there
    for m, (y, _) in enumerate(rk4_steps(rate, x0, times)):
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state after t = {times[m]:.6g}")
        states[m] = y
        contained[m] = grid.inflated_contains(own_cells, reach, y)
        for i in range(count):
            mags[m, :, i] = row_norm(feedback[i])

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
    """
    mags = trajectory.input_magnitudes
    maxima = mags.max(axis=0)
    worst = np.unravel_index(np.argmax(mags), mags.shape)
    if exceeds_input_bound(mags[worst], model.input_bound):
        raise InputBoundViolation(worst[-1], float(trajectory.times[worst[0]]),
                                  float(mags[worst]), model.input_bound)
    return maxima
