"""The four benchmark workloads over the README reference model.

Each workload turns the run seed into a deterministic sequence of calls. Call
``k`` draws its inputs from ``default_rng([seed, k])``, so any prefix of the
sequence can be replayed exactly (the traced run replays its calls once
untraced and once traced). A call runs public `gridabs` functions, checks
their outputs and returns a text digest of the results; a wrong output raises
`CheckFailed`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gridabs.abstraction as abstraction
from gridabs.dynamics import project_configuration

# The reference 3x3 window of the acceptance suite and the CLI config.
REFERENCE_WINDOW = abstraction.Window(((-1, 1), (-1, 1)))
INPUT_ATOL = 1e-12
ENDPOINT_ATOL = 1e-8


class CheckFailed(RuntimeError):
    """A call returned, but its output breaks a guarantee the benchmark checks."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Call:
    """One timed public call; ``units`` is the work it completes when it passes."""

    label: str
    units: int
    run: Callable  # run(model) -> digest text


class Workload:
    """Base: ``group`` calls form one pass, the stop granularity of a run.

    A run stops only at pass boundaries, so every run does the same mix of
    calls. ``quota`` calls (whole passes) form the digest prefix, the minimum
    of every run and the work of a traced run.
    """

    name = ""
    group = 1
    quota = 1

    def __init__(self, cfg, params, seed):
        self.cfg = cfg
        self.params = params
        self.seed = seed

    def rng(self, k):
        return np.random.default_rng([self.seed, k])

    def prepare(self, model):
        """Input generation that needs the library; part of set-up."""

    def call(self, k) -> Call:
        raise NotImplementedError


class Enumerate(Workload):
    """All three agents on a 5x5 window at 256 substeps, then JSON and DOT."""

    name = "enumerate"
    group = 3
    quota = 3
    counts = (625, 15625, 625)

    def prepare(self, model):
        lo = np.random.default_rng(self.seed).integers(-4, 1, size=2)
        self.window = abstraction.Window(tuple((int(a), int(a) + 4) for a in lo))
        self.exports = {}

    def call(self, k):
        agent = k % 3
        grid, params, window = self.cfg.grid, self.params, self.window

        def run(model):
            ts = abstraction.build_transition_system(model, grid, params, agent, window,
                                                     substeps=256)
            digest = (sha256(abstraction.to_json(ts)) + " "
                      + sha256(abstraction.to_dot(ts)))
            require(len(ts.transitions) == self.counts[agent],
                    f"agent {agent}: {len(ts.transitions)} transitions, "
                    f"expected {self.counts[agent]}")
            first = self.exports.setdefault(agent, digest)
            require(digest == first, f"agent {agent}: export differs between passes")
            return f"agent{agent} {digest}"

        return Call(f"agent{agent}", self.counts[agent], run)


class Certify(Workload):
    """Input-bound certificate of each agent over the reference 3x3 window."""

    name = "certify"
    group = 3
    quota = 3
    counts = (81, 729, 81)

    def call(self, k):
        agent = k % 3
        cert_seed = int(self.rng(k).integers(2**31))
        grid, params = self.cfg.grid, self.params

        def run(model):
            cert = abstraction.certify_window_input_bound(
                model, grid, params, agent, REFERENCE_WINDOW, samples=10000,
                seed=cert_seed, reference_policy="center", substeps=32)
            require(cert.ok, f"agent {agent}: {len(cert.violations)} violations")
            require(cert.configurations == self.counts[agent],
                    f"agent {agent}: {cert.configurations} configurations, "
                    f"expected {self.counts[agent]}")
            require(cert.max_magnitude <= model.input_bound + INPUT_ATOL,
                    f"agent {agent}: |k| = {cert.max_magnitude!r} > v")
            return (f"agent{agent} {cert.configurations} {cert.max_magnitude!r} "
                    f"{cert.worst_configuration}")

        return Call(f"agent{agent}", self.counts[agent], run)


class Falsify(Workload):
    """One transition of a reference-window system, 500 trials at 256 substeps."""

    name = "falsify"
    quota = 3

    def prepare(self, model):
        self.systems = [abstraction.build_transition_system(
            model, self.cfg.grid, self.params, agent, REFERENCE_WINDOW, substeps=256)
            for agent in range(self.cfg.network.agent_count)]

    def call(self, k):
        rng = self.rng(k)
        agent = int(rng.integers(len(self.systems)))
        index = int(rng.integers(len(self.systems[agent].transitions)))
        transition = self.systems[agent].transitions[index]
        verify_seed = int(rng.integers(2**31))
        return self.verify(transition, f"agent{agent}:{index}", verify_seed,
                           self.cfg.grid)

    def verify(self, transition, label, verify_seed, grid):
        params = self.params

        def run(model):
            check = abstraction.verify_transition(model, grid, params, transition,
                                                  REFERENCE_WINDOW, trials=500,
                                                  seed=verify_seed, substeps=256)
            require(check.trials == 500, f"{label}: {check.trials} trials")
            require(check.min_margin > 0.0, f"{label}: min margin {check.min_margin!r}")
            return (f"{label} {check.min_margin!r} {check.max_margin!r} "
                    f"{check.histogram_counts}")

        return Call(label, 1, run)


class Plan(Workload):
    """One composed joint plan from a 3x3-window source, 100 samples at 128 substeps."""

    name = "plan"
    quota = 10

    def call(self, k):
        rng = self.rng(k)
        net = self.cfg.network
        source = tuple(tuple(int(c) for c in rng.integers(-1, 2, size=net.dimension))
                       for _ in range(net.agent_count))
        compose_seed = int(rng.integers(2**31))
        grid, params = self.cfg.grid, self.params

        def run(model):
            targets = tuple(abstraction.agent_transition(
                model, grid, params, project_configuration(net, source, i),
                substeps=128)[0] for i in range(net.agent_count))
            _, report = abstraction.compose_plan(model, grid, params, source, targets,
                                                 samples=100, seed=compose_seed,
                                                 substeps=128)
            require(bool(np.all(report.containment_ok)), f"{source}: containment lost")
            worst = float(np.max(report.endpoint_deviation))
            require(worst <= ENDPOINT_ATOL, f"{source}: endpoint deviation {worst!r}")
            return f"{source}->{targets} {worst!r} {np.max(report.max_input)!r}"

        return Call(str(source), 1, run)


WORKLOADS = {w.name: w for w in (Enumerate, Certify, Falsify, Plan)}
