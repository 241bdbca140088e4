"""The benchmark's span hooks still find the library's entry points.

``perfbench/spans.py`` swaps a wrapper in at each ``ENTRY_POINTS`` attribute
through ``owner.__dict__[attr]``, so moving or renaming one of them breaks a
traced benchmark run. The module is loaded from its file without writing
anything next to it.
"""

import types
from pathlib import Path

import numpy as np
import pytest

import gridabs as ga

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), SPANS, "exec"), module.__dict__)
    return module


def test_every_entry_point_is_an_attribute_of_its_owner(spans):
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans.ENTRY_POINTS if attr not in owner.__dict__]
    assert missing == []


def test_the_tracer_installs_and_restores_every_entry_point(spans, ref_grid):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.ENTRY_POINTS]
    tracer = spans.Tracer()
    with tracer.install():
        assert all(owner.__dict__[attr] is not original for (owner, attr, _, _), original
                   in zip(spans.ENTRY_POINTS, originals))
        ref_grid.cell_of([0.0, 0.0])
    assert [s[0] for s in tracer.spans] == ["geometry.cell_of"]
    assert all(owner.__dict__[attr] is original for (owner, attr, _, _), original
               in zip(spans.ENTRY_POINTS, originals))


def test_the_counted_model_evaluates_the_builtin_field(spans, ref_model):
    tracer = spans.Tracer()
    counted = tracer.counted_model(ref_model)
    assert isinstance(counted, ga.DynamicsModel)
    rng = np.random.default_rng(0)
    for i in range(ref_model.network.agent_count):
        own = rng.uniform(-1.0, 1.0, size=(5, 2))
        nbrs = rng.uniform(-1.0, 1.0, size=(5, ref_model.network.degree(i), 2))
        np.testing.assert_array_equal(counted.evaluator(i)(own, nbrs),
                                      ref_model.evaluator(i)(own, nbrs), strict=True)
    assert [s[0] for s in tracer.spans] == ["dynamics.eval"] * ref_model.network.agent_count
