"""Strict loader for the YAML run configuration.

One structured file describes the grid, the agent network, the dynamics, and
the discretization, plus optional blocks consumed by individual subcommands.
Unknown keys anywhere are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .abstraction import DEFAULT_TRIALS, Window
from .admissibility import check_discretization, DiscretizationParams
from .controller import DEFAULT_SUBSTEPS
from .dynamics import AgentNetwork, DynamicsModel, saturated_consensus, smooth_consensus
from .geometry import GridDecomposition


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


def _section(obj, name, required=True):
    if name not in obj:
        if required:
            raise ConfigError(f"missing section {name!r}")
        return None
    value = obj[name]
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return value


def _check_keys(mapping, allowed, context):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


def _number(mapping, key, context, default=None):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"missing {context}.{key}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number")
    return float(value)


def _integer(mapping, key, context, default=None):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"missing {context}.{key}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}.{key} must be an integer")
    return value


def _cell_list(value, dimension, context):
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list of cells")
    cells = []
    for k, z in enumerate(value):
        if not isinstance(z, list) or len(z) != dimension or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in z):
            raise ConfigError(f"{context}[{k}] must be a list of {dimension} integers")
        cells.append(tuple(z))
    return cells


def _point_list(value, dimension, context):
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list of points")
    points = []
    for k, p in enumerate(value):
        if not isinstance(p, list) or len(p) != dimension or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in p):
            raise ConfigError(f"{context}[{k}] must be a list of {dimension} numbers")
        points.append([float(c) for c in p])
    return points


@dataclass
class RunConfig:
    """Everything a subcommand needs, already validated and constructed."""

    grid: GridDecomposition
    network: AgentNetwork
    model: DynamicsModel
    period: float
    substeps: int
    trials: int
    seed: int
    window: Window | None
    simulate: dict | None
    controller_dump: dict | None

    def params(self) -> DiscretizationParams:
        return check_discretization(self.model, self.grid.diameter(), self.period)


def load_config(path) -> RunConfig:
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    _check_keys(raw, ("grid", "network", "dynamics", "discretization", "run",
                      "simulate", "controller_dump"), "config")

    grid_sec = _section(raw, "grid")
    _check_keys(grid_sec, ("dimension", "side", "origin"), "grid")
    dimension = _integer(grid_sec, "dimension", "grid")
    side = _number(grid_sec, "side", "grid")
    origin = grid_sec.get("origin")
    if origin is not None:
        origin = _point_list([origin], dimension, "grid.origin")[0]
    try:
        grid = GridDecomposition(dimension, side, origin)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    net_sec = _section(raw, "network")
    _check_keys(net_sec, ("agents", "edges", "neighbors"), "network")
    agents = _integer(net_sec, "agents", "network")
    if ("edges" in net_sec) == ("neighbors" in net_sec):
        raise ConfigError("network needs exactly one of 'edges' or 'neighbors'")
    try:
        if "edges" in net_sec:
            edges = net_sec["edges"]
            if not isinstance(edges, list) or not all(
                    isinstance(e, list) and len(e) == 2 for e in edges):
                raise ConfigError("network.edges must be a list of [a, b] pairs")
            network = AgentNetwork.from_edges(dimension, agents, edges)
        else:
            rows = net_sec["neighbors"]
            if not isinstance(rows, list) or len(rows) != agents:
                raise ConfigError(f"network.neighbors must list {agents} rows")
            network = AgentNetwork(dimension, tuple(tuple(r) for r in rows))
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc

    dyn_sec = _section(raw, "dynamics")
    _check_keys(dyn_sec, ("builtin", "gain", "scale", "input_bound", "constants"),
                "dynamics")
    if ("builtin" in dyn_sec) == ("constants" in dyn_sec):
        raise ConfigError("dynamics needs exactly one of 'builtin' or 'constants'")
    try:
        if "builtin" in dyn_sec:
            name = dyn_sec["builtin"]
            gain = _number(dyn_sec, "gain", "dynamics")
            bound = _number(dyn_sec, "input_bound", "dynamics")
            if name == "saturated_consensus":
                if "scale" in dyn_sec:
                    raise ConfigError("dynamics.scale applies to smooth_consensus only")
                model = saturated_consensus(network, gain, bound)
            elif name == "smooth_consensus":
                scale = _number(dyn_sec, "scale", "dynamics", default=1.0)
                model = smooth_consensus(network, gain, bound, scale=scale)
            else:
                raise ConfigError(f"unknown dynamics builtin {name!r}")
        else:
            consts = dyn_sec["constants"]
            if not isinstance(consts, dict):
                raise ConfigError("dynamics.constants must be a mapping")
            _check_keys(consts, ("feedback_bound", "neighbor_lipschitz",
                                 "self_lipschitz", "input_bound"), "dynamics.constants")
            model = DynamicsModel(
                network, None,
                feedback_bound=_number(consts, "feedback_bound", "dynamics.constants"),
                neighbor_lipschitz=_number(consts, "neighbor_lipschitz", "dynamics.constants"),
                self_lipschitz=_number(consts, "self_lipschitz", "dynamics.constants"),
                input_bound=_number(consts, "input_bound", "dynamics.constants"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"dynamics: {exc}") from exc

    disc_sec = _section(raw, "discretization")
    _check_keys(disc_sec, ("period",), "discretization")
    period = _number(disc_sec, "period", "discretization")
    if not (period > 0 and np.isfinite(period)):
        raise ConfigError("discretization.period must be positive and finite")

    run_sec = _section(raw, "run", required=False) or {}
    _check_keys(run_sec, ("substeps", "trials", "seed", "window"), "run")
    substeps = _integer(run_sec, "substeps", "run", default=DEFAULT_SUBSTEPS)
    trials = _integer(run_sec, "trials", "run", default=DEFAULT_TRIALS)
    seed = _integer(run_sec, "seed", "run", default=0)
    if substeps < 1 or trials < 1:
        raise ConfigError("run.substeps and run.trials must be positive")
    if seed < 0:
        raise ConfigError("run.seed must be nonnegative")
    window = None
    if "window" in run_sec:
        ranges = run_sec["window"]
        if not isinstance(ranges, list) or len(ranges) != dimension or not all(
                isinstance(r, list) and len(r) == 2 and all(
                    isinstance(c, int) and not isinstance(c, bool) for c in r)
                for r in ranges):
            raise ConfigError(f"run.window must be {dimension} [lo, hi] integer pairs")
        try:
            window = Window(tuple((lo, hi) for lo, hi in ranges))
        except ValueError as exc:
            raise ConfigError(f"run.window: {exc}") from exc

    sim_sec = _section(raw, "simulate", required=False)
    simulate = None
    if sim_sec is not None:
        _check_keys(sim_sec, ("initial", "targets"), "simulate")
        if "initial" not in sim_sec or "targets" not in sim_sec:
            raise ConfigError("simulate needs 'initial' and 'targets'")
        initial = _point_list(sim_sec["initial"], dimension, "simulate.initial")
        targets = _cell_list(sim_sec["targets"], dimension, "simulate.targets")
        if len(initial) != agents or len(targets) != agents:
            raise ConfigError(f"simulate.initial and simulate.targets must list "
                              f"{agents} entries")
        simulate = {"initial": np.array(initial), "targets": targets}

    dump_sec = _section(raw, "controller_dump", required=False)
    controller_dump = None
    if dump_sec is not None:
        _check_keys(dump_sec, ("agent", "cells", "initial"), "controller_dump")
        agent = _integer(dump_sec, "agent", "controller_dump")
        if not 0 <= agent < agents:
            raise ConfigError(f"controller_dump.agent must be in 0..{agents - 1}")
        wanted = network.degree(agent) + 1
        cells = _cell_list(dump_sec.get("cells"), dimension, "controller_dump.cells")
        if len(cells) != wanted:
            raise ConfigError(f"controller_dump.cells must list {wanted} cells "
                              f"(own cell first, then declared neighbors)")
        initial = None
        if "initial" in dump_sec:
            initial = np.array(_point_list([dump_sec["initial"]], dimension,
                                           "controller_dump.initial")[0])
        controller_dump = {"agent": agent, "cells": cells, "initial": initial}

    return RunConfig(grid=grid, network=network, model=model, period=period,
                     substeps=substeps, trials=trials, seed=seed,
                     window=window, simulate=simulate, controller_dump=controller_dump)
