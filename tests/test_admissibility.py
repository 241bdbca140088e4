"""Admissibility arithmetic for the (diameter, period) pair."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gridabs as ga
from gridabs.admissibility import FeasibilityError
from gridabs.dynamics import AgentNetwork, DynamicsModel


def test_coupling_constants(ref_model):
    per_agent, worst = ga.coupling_constants(ref_model)
    # 2*L2 + 4*L1*sqrt(degree), degrees (1, 2, 1)
    assert per_agent[0] == pytest.approx(4.0 + 4.0 * np.sqrt(2.0), rel=1e-12)
    assert per_agent[1] == pytest.approx(12.0, rel=1e-12)
    assert per_agent[2] == per_agent[0]
    assert worst == pytest.approx(12.0, rel=1e-12)


def test_diameter_upper_bound_value(ref_model):
    assert ga.diameter_upper_bound(ref_model) == pytest.approx(
        0.005208333333333333, rel=1e-12)


def test_interval_endpoints_are_roots(ref_model):
    lo, hi = ga.admissible_period_interval(ref_model, 0.004)
    assert lo == pytest.approx(0.010798671184339754, rel=1e-12)
    assert hi == pytest.approx(0.030867995482326913, rel=1e-12)
    _, coupling = ga.coupling_constants(ref_model)
    m, v = ref_model.feedback_bound, ref_model.input_bound
    for t in (lo, hi):
        assert abs(m * coupling * t * t - v * t + 0.004) <= 1e-12


def test_interval_collapses_at_the_bound(ref_model):
    bound = ga.diameter_upper_bound(ref_model)
    lo, hi = ga.admissible_period_interval(ref_model, bound)
    _, coupling = ga.coupling_constants(ref_model)
    apex = ref_model.input_bound / (2.0 * ref_model.feedback_bound * coupling)
    # roundoff in the discriminant smears the double root by ~sqrt(eps)
    assert lo == pytest.approx(apex, rel=1e-6)
    assert hi == pytest.approx(apex, rel=1e-6)
    assert lo <= hi


def test_interval_rejects_bad_diameter(ref_model):
    bound = ga.diameter_upper_bound(ref_model)
    with pytest.raises(FeasibilityError):
        ga.admissible_period_interval(ref_model, 2.0 * bound)
    with pytest.raises(FeasibilityError):
        ga.admissible_period_interval(ref_model, 0.0)
    with pytest.raises(FeasibilityError):
        ga.admissible_period_interval(ref_model, -1.0)


def test_period_lower_bound_curve(ref_model):
    assert ga.period_lower_bound(ref_model, 0.0) == 0.0
    bound = ga.diameter_upper_bound(ref_model)
    m, v = ref_model.feedback_bound, ref_model.input_bound
    prev = 0.0
    for k in range(1, 51):
        d = bound * k / 50.0
        h = ga.period_lower_bound(ref_model, d)
        assert h == ga.admissible_period_interval(ref_model, d)[0]
        # the curve clears the reach line and grows with the diameter
        assert h >= d / (m + v)
        assert h > prev
        prev = h


def test_check_discretization_accepts_reference(ref_model, ref_params):
    assert ref_params.admissible
    assert not ref_params.reason
    assert ref_params.period == 0.02
    assert ref_params.reach_radius == pytest.approx(0.03, rel=1e-12)
    assert ref_params.reach_radius >= ref_params.diameter
    assert ga.coupling_constants(ref_model)[1] == pytest.approx(12.0, rel=1e-12)


def test_check_discretization_boundary_periods(ref_model):
    lo, hi = ga.admissible_period_interval(ref_model, 0.004)
    assert ga.check_discretization(ref_model, 0.004, lo).admissible
    assert ga.check_discretization(ref_model, 0.004, hi).admissible
    below = ga.check_discretization(ref_model, 0.004, 0.005)
    assert not below.admissible
    assert "interval" in below.reason
    above = ga.check_discretization(ref_model, 0.004, 0.05)
    assert not above.admissible


def test_check_discretization_oversized_diameter(ref_model):
    params = ga.check_discretization(ref_model, 0.01, 0.02)
    assert not params.admissible
    assert "diameter" in params.reason


def test_decoupled_model_admits_every_period_above_travel_time():
    net = AgentNetwork(2, ((),))
    model = DynamicsModel(net, None, feedback_bound=1.0, neighbor_lipschitz=0.0,
                          self_lipschitz=0.0, input_bound=0.5)
    assert ga.coupling_constants(model)[1] == 0.0
    assert ga.diameter_upper_bound(model) == math.inf
    lo, hi = ga.admissible_period_interval(model, 0.004)
    assert lo == pytest.approx(0.008, rel=1e-12)
    assert hi == math.inf
    assert ga.check_discretization(model, 0.004, 100.0).admissible
    assert not ga.check_discretization(model, 0.004, 0.004).admissible


def test_params_are_frozen(ref_params):
    with pytest.raises(AttributeError):
        ref_params.period = 1.0


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


@st.composite
def coupled_models(draw):
    """Constants-only models on a path of 2-4 agents, with coupling > 0."""
    agents = draw(st.integers(2, 4))
    net = AgentNetwork.from_edges(2, agents, [(k, k + 1) for k in range(agents - 1)])
    bound = draw(st.floats(1e-3, 1e3))
    budget = bound * draw(st.floats(1e-3, 0.999))
    lipschitz = st.floats(1e-3, 1e3)
    return DynamicsModel(net, None, feedback_bound=bound,
                         neighbor_lipschitz=draw(lipschitz),
                         self_lipschitz=draw(lipschitz), input_bound=budget)


# a share of the largest admissible diameter, down to tiny diameters
SHARES = st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                   st.floats(1e-300, 1e-6), st.sampled_from([1.0, 1e-300]))


@settings(max_examples=300, deadline=None)
@given(model=coupled_models(), share=SHARES)
def test_interval_endpoints_solve_the_quadratic(model, share):
    d = ga.diameter_upper_bound(model) * share
    _, coupling = ga.coupling_constants(model)
    m, v = model.feedback_bound, model.input_bound
    # periods below the smallest normal double round away
    assume(d / (m + v) >= TINY)
    lo, hi = ga.admissible_period_interval(model, d)
    assert 0.0 < lo <= hi
    for dt in (lo, hi):
        # M*Ltilde*dt^2 - v*dt + d = 0, up to roundoff on the scale of v*dt
        assert abs(m * coupling * dt * dt - v * dt + d) <= 16 * EPS * v * dt


@settings(max_examples=300, deadline=None)
@given(model=coupled_models(), shares=st.lists(SHARES, min_size=2, max_size=2))
def test_period_lower_bound_is_monotone_and_clears_the_reach_line(model, shares):
    bound = ga.diameter_upper_bound(model)
    small, large = sorted(bound * s for s in shares)
    m, v = model.feedback_bound, model.input_bound
    assume(small / (m + v) >= TINY)
    assert ga.period_lower_bound(model, small) <= ga.period_lower_bound(model, large)
    for d in (small, large):
        assert ga.period_lower_bound(model, d) >= d / (m + v)
