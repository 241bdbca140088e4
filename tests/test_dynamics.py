"""Interconnection topology, builtin fields, and constants validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gridabs.dynamics import (AgentNetwork, ConstantsViolation, DynamicsModel,
                              _sum_in_order, project_configuration, saturated_consensus,
                              smooth_consensus, validate_constants)


def test_from_edges_symmetric_sorted():
    net = AgentNetwork.from_edges(2, 4, [(2, 0), (1, 2), (3, 2)])
    assert net.neighbors[0] == (2,)
    assert net.neighbors[2] == (0, 1, 3)
    assert net.degree(2) == 3
    assert net.max_degree == 3
    assert net.agent_count == 4


def test_network_rejects_bad_topology():
    with pytest.raises(ValueError):
        AgentNetwork.from_edges(2, 3, [(0, 0)])
    with pytest.raises(ValueError):
        AgentNetwork.from_edges(2, 3, [(0, 3)])
    with pytest.raises(ValueError):
        AgentNetwork(2, ((1,), (0, 0), ()))


def test_project_configuration_order(path_network):
    cells = ((0, 0), (1, 1), (2, 2))
    cfg = project_configuration(path_network, cells, 1)
    assert cfg.agent == 1
    assert cfg.cells == ((1, 1), (0, 0), (2, 2))
    cfg0 = project_configuration(path_network, cells, 0)
    assert cfg0.cells == ((0, 0), (1, 1))


def test_saturated_consensus_linear_region(path_network):
    model = saturated_consensus(path_network, gain=0.5, input_bound=0.5)
    own = np.array([0.001, -0.002])
    nbrs = np.array([[0.003, 0.001], [-0.001, 0.002]])
    # slope is one per neighbor while differences stay below the gain
    expected = (nbrs[0] - own) + (nbrs[1] - own)
    np.testing.assert_allclose(model.evaluator(1)(own, nbrs), expected, atol=1e-15)


def test_saturated_consensus_clips_at_gain(path_network):
    model = saturated_consensus(path_network, gain=0.5, input_bound=0.5)
    own = np.zeros(2)
    nbrs = np.array([[100.0, 0.0]])
    out = model.evaluator(0)(own, nbrs)
    assert np.linalg.norm(out) == pytest.approx(0.5, rel=1e-12)
    # magnitude never exceeds gain * degree
    rng = np.random.default_rng(2)
    pts = rng.normal(scale=50.0, size=(1000, 2, 2))
    vals = model.evaluator(1)(np.zeros(2), pts)
    assert np.max(np.linalg.norm(vals, axis=-1)) <= 2 * 0.5 + 1e-12


def test_saturated_consensus_constants(path_network):
    model = saturated_consensus(path_network, gain=0.5, input_bound=0.3)
    assert model.feedback_bound == pytest.approx(1.0)
    assert model.neighbor_lipschitz == pytest.approx(np.sqrt(2.0))
    assert model.self_lipschitz == pytest.approx(2.0)
    assert model.input_bound == 0.3


def test_smooth_consensus_shape_and_constants(path_network):
    model = smooth_consensus(path_network, gain=2.0, input_bound=0.3, scale=0.1)
    assert model.feedback_bound == pytest.approx(0.4)
    assert model.neighbor_lipschitz == pytest.approx(0.1 * np.sqrt(2.0))
    assert model.self_lipschitz == pytest.approx(0.2)
    own = np.zeros(2)
    # odd in the difference and bounded by scale * gain per neighbor
    out = model.evaluator(0)(own, np.array([[1000.0, 0.0]]))
    assert out[0] < 0.1 * 2.0
    assert out[0] == pytest.approx(0.1 * 2.0, rel=1e-4)
    small = model.evaluator(0)(own, np.array([[1e-6, 0.0]]))
    assert small[0] == pytest.approx(0.1 * 1e-6, rel=1e-9)


@pytest.mark.parametrize("neighbor, own", [(-1.0, 2.0), (1.0, -2.0), (np.nan, 2.0),
                                           (1.0, np.nan)])
def test_lipschitz_constants_must_be_nonnegative(path_network, neighbor, own):
    with pytest.raises(ValueError, match="Lipschitz constants must be nonnegative"):
        DynamicsModel(path_network, None, 1.0, neighbor, own, 0.5)


def test_input_bound_must_be_below_feedback_bound(path_network):
    with pytest.raises(ValueError):
        saturated_consensus(path_network, gain=0.5, input_bound=1.0)
    with pytest.raises(ValueError):
        saturated_consensus(path_network, gain=0.5, input_bound=0.0)


def test_validate_constants_passes_reference(ref_model):
    report = validate_constants(ref_model, trials=2000, seed=3)
    assert report.ok
    assert report.trials == 2000
    assert report.worst_bound_ratio <= 1.0 + 1e-9
    # the self block attains its constant exactly, up to roundoff
    assert report.worst_self_ratio == pytest.approx(1.0, abs=1e-10)


def test_validate_constants_catches_understated_lipschitz(path_network):
    good = saturated_consensus(path_network, gain=0.5, input_bound=0.5)
    broken = DynamicsModel(path_network, good.evaluators,
                           feedback_bound=good.feedback_bound,
                           neighbor_lipschitz=good.neighbor_lipschitz,
                           self_lipschitz=0.5 * good.self_lipschitz,
                           input_bound=good.input_bound)
    with pytest.raises(ConstantsViolation) as info:
        validate_constants(broken, trials=500, seed=0)
    assert info.value.ratio > 1.0
    assert info.value.kind == "self_lipschitz"
    assert info.value.agent in (0, 1, 2)


def test_validate_constants_catches_understated_bound(path_network):
    good = saturated_consensus(path_network, gain=0.5, input_bound=0.1)
    broken = DynamicsModel(path_network, good.evaluators,
                           feedback_bound=0.2 * good.feedback_bound,
                           neighbor_lipschitz=good.neighbor_lipschitz,
                           self_lipschitz=good.self_lipschitz,
                           input_bound=good.input_bound)
    with pytest.raises(ConstantsViolation):
        validate_constants(broken, trials=500, seed=0)


def test_validate_constants_catches_a_field_that_returns_nan():
    # NaN is argmax's pick in its batch and fails every comparison, so it hid
    # every finite ratio beside it
    def unbounded(own, nbrs):
        f = nbrs[:, 0, :] - own
        return np.where(np.abs(f) > 0.5, np.nan, f)

    model = DynamicsModel(AgentNetwork.from_edges(2, 2, [(0, 1)]), [unbounded] * 2,
                          feedback_bound=1.0, neighbor_lipschitz=1.0, self_lipschitz=1.0,
                          input_bound=0.5)
    with pytest.raises(ConstantsViolation) as info:
        validate_constants(model, trials=500, seed=0)
    assert info.value.kind == "feedback_bound" and np.isnan(info.value.ratio)
    assert str(info.value).endswith("observed ratio is not a number")


def declared_copy(model, evaluators, translation_invariant, **constants):
    """``model``'s constants (overridden by ``constants``) on other evaluators."""
    kwargs = dict(feedback_bound=model.feedback_bound,
                  neighbor_lipschitz=model.neighbor_lipschitz,
                  self_lipschitz=model.self_lipschitz, input_bound=model.input_bound)
    kwargs.update(constants)
    return DynamicsModel(model.network, evaluators,
                         translation_invariant=translation_invariant, **kwargs)


@pytest.mark.parametrize("builtin", [saturated_consensus, smooth_consensus])
def test_builtins_pass_their_translation_invariance(path_network, builtin):
    model = builtin(path_network, gain=0.5, input_bound=0.5)
    assert model.translation_invariant
    report = validate_constants(model, trials=2000, seed=4)
    assert report.ok
    # the declaration adds draws after all others: the report does not move
    plain = declared_copy(model, model.evaluators, False)
    assert validate_constants(plain, trials=2000, seed=4) == report


def test_validate_constants_catches_a_false_translation_invariance(path_network):
    good = saturated_consensus(path_network, gain=0.5, input_bound=0.5)

    def drifting(ev):
        # an absolute-position term: small enough to keep every declared constant
        return lambda own, nbrs: ev(own, nbrs) + 1e-3 * own

    evaluators = [drifting(ev) for ev in good.evaluators]
    constants = dict(feedback_bound=2.0 * good.feedback_bound,
                     self_lipschitz=good.self_lipschitz + 0.01)
    plain = declared_copy(good, evaluators, False, **constants)
    assert not plain.translation_invariant
    assert validate_constants(plain, trials=500, seed=0).ok
    with pytest.raises(ConstantsViolation) as info:
        validate_constants(declared_copy(good, evaluators, True, **constants),
                           trials=500, seed=0)
    assert info.value.kind == "translation_invariant"
    assert info.value.agent == 0 and info.value.ratio > 1.0
    witness = info.value.witness
    assert witness["states"].shape == witness["perturbed"].shape == (3, 2)


def test_constants_only_model(path_network):
    model = DynamicsModel(path_network, None, feedback_bound=1.0,
                          neighbor_lipschitz=1.0, self_lipschitz=1.0,
                          input_bound=0.5)
    with pytest.raises(RuntimeError):
        model.evaluator(0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 3))
def test_sum_in_order_equals_numpy_bit_for_bit(data, m, n):
    lead = data.draw(array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
    # signed zeros often, so that some columns are all -0.0
    elements = st.one_of(st.sampled_from([-0.0, 0.0]),
                         st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
                                   allow_infinity=False, allow_subnormal=True))
    terms = data.draw(arrays(np.float64, lead + (m, n), elements=elements))
    expected = terms.sum(axis=-2)
    parts = np.moveaxis(terms, -2, 0)
    out = np.empty_like(expected)
    # tobytes also tells -0.0 from +0.0
    for total in (_sum_in_order(parts), _sum_in_order(parts, out=out)):
        assert total.shape == expected.shape
        assert total.tobytes() == expected.tobytes()
