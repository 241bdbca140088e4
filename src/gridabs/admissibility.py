"""Closed-form feasibility arithmetic linking cell diameter and sampling period.

The space-time discretization (diameter d, period dt) is admissible for a
model with constants (M, L1, L2, v) when the quadratic

    M * Ltilde * dt^2 - v * dt + d <= 0

has dt between its roots, where Ltilde = max_i (2*L2 + 4*L1*sqrt(deg_i)) is
the coupling constant. That requires d <= v^2 / (4*M*Ltilde), and it implies
reach_radius = dt*(M + v) >= d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Absolute slack for float comparisons against closed-form roots.
ATOL = 1e-12


class FeasibilityError(ValueError):
    """The requested diameter admits no period (or is out of domain)."""


def coupling_constants(model):
    """Per-agent coupling constants 2*L2 + 4*L1*sqrt(deg_i) and their maximum."""
    l1 = model.neighbor_lipschitz
    l2 = model.self_lipschitz
    per_agent = tuple(2.0 * l2 + 4.0 * l1 * math.sqrt(model.network.degree(i))
                      for i in range(model.network.agent_count))
    return per_agent, max(per_agent)


def diameter_upper_bound(model) -> float:
    """Largest admissible cell diameter, v^2 / (4*M*Ltilde); +inf when decoupled."""
    _, coupling = coupling_constants(model)
    if coupling == 0.0:
        return math.inf
    return model.input_bound**2 / (4.0 * model.feedback_bound * coupling)


def admissible_period_interval(model, diameter):
    """The closed interval of periods admissible for the given cell diameter.

    Endpoints are the roots of M*Ltilde*dt^2 - v*dt + diameter. Raises
    FeasibilityError when the diameter is nonpositive or exceeds
    diameter_upper_bound. In the decoupled case (Ltilde = 0) the interval is
    [diameter / v, inf).
    """
    diameter = float(diameter)
    if not (diameter > 0.0 and math.isfinite(diameter)):
        raise FeasibilityError("cell diameter must be positive and finite")
    bound = diameter_upper_bound(model)
    if diameter > bound * (1.0 + ATOL):
        raise FeasibilityError(f"cell diameter {diameter:.12g} exceeds the admissible "
                               f"bound {bound:.12g}")
    _, coupling = coupling_constants(model)
    v = model.input_bound
    if coupling == 0.0:
        return diameter / v, math.inf
    quad = model.feedback_bound * coupling
    disc = v * v - 4.0 * quad * diameter
    # d <= bound was already checked; a tiny negative disc is pure roundoff.
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    # the lower root is diameter / (quad * upper root): (v - root) cancels for
    # small diameters and can even round to 0. At a double root the two
    # quotients can cross by an ulp.
    lo = 2.0 * diameter / (v + root)
    return lo, max(lo, (v + root) / (2.0 * quad))


def period_lower_bound(model, diameter) -> float:
    """Smallest admissible period for the given diameter; 0 at diameter 0.

    Continuous and increasing on [0, diameter_upper_bound], and always at
    least diameter / (feedback_bound + input_bound), so admissible pairs with
    period equal to this bound exist for every feasible diameter.
    """
    diameter = float(diameter)
    if diameter == 0.0:
        return 0.0
    return admissible_period_interval(model, diameter)[0]


@dataclass(frozen=True)
class DiscretizationParams:
    """What a (diameter, period) pair decides; the constants stay on the model."""

    diameter: float
    period: float
    reach_radius: float
    admissible: bool
    reason: str


def check_discretization(model, diameter, period) -> DiscretizationParams:
    """Evaluate admissibility of (diameter, period) and record the verdict.

    reach_radius is period * (feedback_bound + input_bound), the farthest any
    agent can travel during one period. The pair is admissible when the
    diameter is within its upper bound, the period lies in the admissible
    interval, and reach_radius >= diameter.
    """
    diameter = float(diameter)
    period = float(period)
    if not (diameter > 0.0 and math.isfinite(diameter)):
        raise ValueError("cell diameter must be positive and finite")
    if not (period > 0.0 and math.isfinite(period)):
        raise ValueError("period must be positive and finite")

    reach = period * (model.feedback_bound + model.input_bound)
    reasons = []

    try:
        lo, hi = admissible_period_interval(model, diameter)
    except FeasibilityError:
        reasons.append(f"diameter {diameter:.12g} exceeds bound "
                       f"{diameter_upper_bound(model):.12g}")
    else:
        if period < lo - ATOL:
            reasons.append(f"period {period:.12g} below admissible interval "
                           f"[{lo:.12g}, {hi:.12g}]")
        elif period > hi + ATOL:
            reasons.append(f"period {period:.12g} above admissible interval "
                           f"[{lo:.12g}, {hi:.12g}]")
    if reach + ATOL < diameter:
        reasons.append(f"reach radius {reach:.12g} smaller than diameter {diameter:.12g}")

    return DiscretizationParams(diameter=diameter, period=period, reach_radius=reach,
                                admissible=not reasons, reason="; ".join(reasons))


def require_admissible(params):
    """Raise FeasibilityError, with the recorded reason, unless ``params`` is admissible."""
    if not params.admissible:
        raise FeasibilityError(f"discretization is not admissible: {params.reason}")
