"""Spans around the public entry points of each gridabs layer.

The library is not modified. While a `Tracer` is installed, each entry point
is replaced at the attribute its callers look up at call time (a module
global or a class attribute) by a wrapper that records one span, and the
original is put back on exit. Evaluators are counted through a separate
`DynamicsModel` whose evaluators wrap the builtin ones with identical
constants.

A span is ``[name, start_ns, end_ns, parent, unit, work, work2]``: ``parent``
is the index of the enclosing span (-1 at the top), ``unit`` the id of the
benchmark unit it belongs to (-1 during set-up), and ``work``/``work2`` are
counters whose meaning depends on the span (rows, steps, members, bytes).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time

import numpy as np

import gridabs.abstraction as abstraction
import gridabs.config as config
import gridabs.controller as controller
from gridabs.dynamics import DynamicsModel
from gridabs.geometry import GridDecomposition
from gridabs.integrate import DenseTrajectory


def _rows(result):
    # evaluators and feedback return (..., n): one row per leading index
    return result.size // result.shape[-1]


# (owner, attribute, span name, work(args, kwargs, result) -> (work, work2))
ENTRY_POINTS = (
    (config, "load_config", "config.load", None),
    (config, "check_discretization", "admissibility.check", None),
    (GridDecomposition, "cell_of", "geometry.cell_of", None),
    (GridDecomposition, "sample_in_cell", "geometry.sample_in_cell", None),
    (controller, "rk4_path", "integrate.rk4_path",
     lambda a, k, r: (len(r[0]) - 1, r[1].nbytes + r[2].nbytes)),
    (DenseTrajectory, "at", "integrate.dense_at",
     lambda a, k, r: (int(np.size(a[1])), 0)),
    (controller.ControllerBank, "__init__", "controller.bank_build",
     lambda a, k, r: (a[0].size, 0)),
    (controller.ControllerBank, "feedback", "controller.feedback", None),
    (controller, "sample_inflated_cell", "controller.inflated_sample", None),
    (abstraction, "sample_feedback_bound", "controller.bound_sample",
     lambda a, k, r: (k.get("samples", a[1] if len(a) > 1 else 10000), 0)),
    (abstraction, "integrate_closed_loop_batch", "simulate.closed_loop",
     lambda a, k, r: (r[0].states.shape[1],
                      r[0].states.shape[1] * r[0].states.shape[2]
                      * (r[0].states.shape[0] - 1))),
    (abstraction, "build_transition_system", "abstraction.build",
     lambda a, k, r: (len(r.transitions), 0)),
    (abstraction, "to_json", "abstraction.export", lambda a, k, r: (len(r), 0)),
    (abstraction, "to_dot", "abstraction.export", lambda a, k, r: (len(r), 0)),
    (abstraction, "agent_transition", "abstraction.agent_transition", None),
    (abstraction, "verify_transition", "abstraction.verify", None),
    (abstraction, "certify_window_input_bound", "abstraction.certify", None),
    (abstraction, "compose_plan", "abstraction.compose", None),
)


class Tracer:
    """In-memory span recorder; `install` swaps the wrappers in and out."""

    def __init__(self):
        self.spans = []
        self.unit = -1
        self._stack = []

    def wrap(self, name, fn, work=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.unit, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if work is not None:
                record[5], record[6] = work(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Replace every entry point by its wrapper while the block runs."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in ENTRY_POINTS]
        for owner, attr, name, work in ENTRY_POINTS:
            setattr(owner, attr, self.wrap(name, owner.__dict__[attr], work))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def counted_model(self, model):
        """A model with the same constants whose evaluators record spans."""
        work = lambda a, k, r: (_rows(r), 0)  # noqa: E731
        evaluators = [self.wrap("dynamics.eval", ev, work) for ev in model.evaluators]
        return DynamicsModel(model.network, evaluators, model.feedback_bound,
                             model.neighbor_lipschitz, model.self_lipschitz,
                             model.input_bound)

    def layers(self, setup=False):
        """Per span name: calls, total ns, self ns, summed and largest counters.

        Covers the spans of the timed units, or with ``setup`` those recorded
        before the first unit.
        """
        spans = self.spans
        covered = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        out = {}
        for s, child in zip(spans, covered):
            if (s[4] < 0) != setup:
                continue
            row = out.setdefault(s[0], {"calls": 0, "ns": 0, "self_ns": 0, "work": 0,
                                        "work2": 0, "max_work2": 0})
            dur = s[2] - s[1]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child
            row["work"] += s[5]
            row["work2"] += s[6]
            row["max_work2"] = max(row["max_work2"], s[6])
        return out

    def write(self, path):
        """Write every span as gzipped JSON: a name table plus integer rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[index[s[0]]] + s[1:] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "unit",
                                  "work", "work2"],
                       "names": names, "spans": rows}, handle, separators=(",", ":"))
