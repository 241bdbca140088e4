"""Command-line front end.

Subcommands:

* ``check``             admissibility arithmetic for the configured pair
* ``region``            CSV sweep of the admissible (diameter, period) region
* ``abstract``          build and export every agent's transition system
* ``verify``            falsification sampling against recorded transitions
* ``simulate``          one joint closed-loop run from configured states
* ``controller-dump``   reference trajectory and feedback terms as CSV
* ``validate-constants`` sample-test the declared model constants

Exit codes: 0 success, 1 falsified or not admissible, 2 input error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .abstraction import (EnumerationCap, WellPosednessViolation, agent_transition,
                          build_transition_system, plan_controllers, to_dot, to_json,
                          verify_transition)
from .admissibility import (FeasibilityError, admissible_period_interval,
                            coupling_constants, diameter_upper_bound)
from .config import ConfigError, load_config
from .dynamics import DEFAULT_VALIDATION_TRIALS, ConstantsViolation, validate_constants
from .geometry import CellConfiguration
from .simulate import InputBoundViolation, check_input_bound, integrate_closed_loop

DEFAULT_REGION_ROWS = 200


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def _out_dir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_check(cfg, args) -> int:
    params = cfg.params()
    per_agent, coupling = coupling_constants(cfg.model)
    for i, value in enumerate(per_agent):
        print(f"agent {i}: neighbors {cfg.network.degree(i)}, coupling {_fmt(value)}")
    print(f"coupling: {_fmt(coupling)}")
    bound = diameter_upper_bound(cfg.model)
    print(f"diameter: {_fmt(params.diameter)} (bound {_fmt(bound)})")
    try:
        lo, hi = admissible_period_interval(cfg.model, params.diameter)
        interval = f"admissible interval [{_fmt(lo)}, {_fmt(hi)}]"
    except FeasibilityError:
        interval = "no admissible interval"
    print(f"period: {_fmt(params.period)} ({interval})")
    print(f"reach_radius: {_fmt(params.reach_radius)}")
    print(f"admissible: {'yes' if params.admissible else 'no'}")
    if not params.admissible:
        print(f"reason: {params.reason}")
    return 0 if params.admissible else 1


def cmd_region(cfg, args) -> int:
    bound = diameter_upper_bound(cfg.model)
    if not np.isfinite(bound):
        raise ConfigError("the model is decoupled; every diameter is admissible")
    rows = args.samples if args.samples is not None else DEFAULT_REGION_ROWS
    v = cfg.model.input_bound
    m = cfg.model.feedback_bound
    lines = ["diameter,period_min,period_max,reach_line,input_line"]
    for k in range(1, rows + 1):
        d = bound * k / rows
        lo, hi = admissible_period_interval(cfg.model, d)
        lines.append(",".join(_fmt(x) for x in (d, lo, hi, d / (m + v), d / v)))
    path = os.path.join(_out_dir(args), "region.csv")
    _write(path, "\n".join(lines) + "\n")
    print(f"wrote {rows} rows to {path}")
    return 0


def cmd_abstract(cfg, args) -> int:
    if cfg.window is None:
        raise ConfigError("abstract needs run.window in the config")
    params = cfg.params()
    for i in range(cfg.network.agent_count):
        ts = build_transition_system(cfg.model, cfg.grid, params, i, cfg.window,
                                     substeps=cfg.substeps)
        # after the first build, so an inadmissible pair creates no directory
        base = os.path.join(_out_dir(args), f"transitions_agent{i}")
        _write(base + ".json", to_json(ts))
        _write(base + ".dot", to_dot(ts))
        print(f"agent {i}: {ts.action_count} actions, {len(ts.transitions)} "
              f"transitions -> {base}.json")
    return 0


def _parse_selector(selector, agent_count):
    if selector == "all":
        return [(i, None) for i in range(agent_count)]
    head, colon, tail = selector.partition(":")
    try:
        agent = int(head)
        index = int(tail) if colon else None
    except ValueError:
        raise ConfigError(f"bad selector {selector!r}; use 'all', 'AGENT', or "
                          f"'AGENT:INDEX'")
    if not 0 <= agent < agent_count:
        raise ConfigError(f"selector agent {agent} out of range")
    return [(agent, index)]


def cmd_verify(cfg, args) -> int:
    if cfg.window is None:
        raise ConfigError("verify needs run.window in the config")
    params = cfg.params()
    trials = args.trials if args.trials is not None else cfg.trials
    for agent, index in _parse_selector(args.selector, cfg.network.agent_count):
        ts = build_transition_system(cfg.model, cfg.grid, params, agent, cfg.window,
                                     substeps=cfg.substeps)
        chosen = ts.transitions
        if index is not None:
            if not 0 <= index < len(chosen):
                raise ConfigError(f"agent {agent} has {len(chosen)} transitions; "
                                  f"index {index} out of range")
            chosen = chosen[index:index + 1]
        if args.limit is not None:
            chosen = chosen[:args.limit]
        for k, transition in enumerate(chosen):
            check = verify_transition(cfg.model, cfg.grid, params, transition,
                                      cfg.window, trials=trials, seed=cfg.seed + k,
                                      substeps=cfg.substeps)
            flag = " (marginal)" if check.marginal else ""
            print(f"agent {agent} {transition.source} --{transition.action}--> "
                  f"{transition.target}: ok, {check.trials} trials, min margin "
                  f"{_fmt(check.min_margin)}{flag}")
    return 0


def cmd_simulate(cfg, args) -> int:
    if cfg.simulate is None:
        raise ConfigError("simulate needs a 'simulate' block in the config")
    params = cfg.params()
    initial = cfg.simulate["initial"]
    targets = cfg.simulate["targets"]
    count = cfg.network.agent_count

    source_cells = tuple(cfg.grid.cell_of(initial[i]) for i in range(count))
    controllers = plan_controllers(cfg.model, cfg.grid, params, source_cells, targets,
                                   cfg.substeps)
    trajectory, report = integrate_closed_loop(controllers, initial)
    out = _out_dir(args)
    n = cfg.network.dimension
    header = ["t"] + [f"x{i}_{d}" for i in range(count) for d in range(n)]
    rows = [",".join(header)]
    for k, t in enumerate(trajectory.times):
        flat = trajectory.states[k].reshape(-1)
        rows.append(",".join([_fmt(t)] + [_fmt(v) for v in flat]))
    _write(os.path.join(out, "trajectory.csv"), "\n".join(rows) + "\n")

    landed = tuple(cfg.grid.cell_of(trajectory.states[-1, i]) for i in range(count))
    success = cfg.grid.first_outside(trajectory.states[-1], targets) is None
    lines = [f"agents: {count}",
             f"period: {_fmt(params.period)}",
             f"substeps: {cfg.substeps}",
             f"landed: {'true' if success else 'false'}"]
    for i in range(count):
        lines += [f"agent_{i}_target: {tuple(targets[i])}",
                  f"agent_{i}_endpoint_cell: {landed[i]}",
                  f"agent_{i}_max_input: {_fmt(report.max_input[i])}",
                  f"agent_{i}_containment: {'true' if report.containment_ok[i] else 'false'}",
                  f"agent_{i}_endpoint_deviation: {_fmt(report.endpoint_deviation[i])}",
                  f"agent_{i}_interpolation_deviation: "
                  f"{_fmt(report.interpolation_deviation[i])}"]
    _write(os.path.join(out, "report.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    check_input_bound(trajectory, cfg.model)
    return 0 if success else 1


def cmd_controller_dump(cfg, args) -> int:
    if cfg.controller_dump is None:
        raise ConfigError("controller-dump needs a 'controller_dump' block in the config")
    params = cfg.params()
    block = cfg.controller_dump
    agent = block["agent"]
    config = CellConfiguration(agent=agent, cells=tuple(block["cells"]))
    _, controller = agent_transition(cfg.model, cfg.grid, params, config,
                                     substeps=cfg.substeps)
    own_reference = controller.reference_points[0, 0]
    start = block["initial"]
    if start is None:
        start = own_reference
    elif cfg.grid.first_outside(start, config.own) is not None:
        raise ConfigError(f"controller_dump.initial lies in cell "
                          f"{cfg.grid.cell_of(start)}, not the declared {config.own}")

    homing = controller.offset_homing(start)[0]
    offset = float(np.linalg.norm(start - own_reference))
    n = cfg.network.dimension
    header = (["t"] + [f"ref_{d}" for d in range(n)]
              + [f"homing_{d}" for d in range(n)] + ["drift_bound"])
    rows = [",".join(header)]
    times = controller.dense.times
    refs = controller.dense.states[:, 0]
    for k, t in enumerate(times):
        drift_bound = cfg.model.self_lipschitz * (1.0 - t / params.period) * offset
        rows.append(",".join([_fmt(t)] + [_fmt(v) for v in refs[k]]
                             + [_fmt(v) for v in homing] + [_fmt(drift_bound)]))
    path = os.path.join(_out_dir(args), f"controller_agent{agent}.csv")
    _write(path, "\n".join(rows) + "\n")
    print(f"wrote {len(times)} samples to {path}")
    return 0


def cmd_validate_constants(cfg, args) -> int:
    given = {} if args.trials is None else {"trials": args.trials}
    report = validate_constants(cfg.model, seed=cfg.seed, **given)
    print(f"trials: {report.trials}")
    print(f"worst_bound_ratio: {_fmt(report.worst_bound_ratio)}")
    print(f"worst_neighbor_ratio: {_fmt(report.worst_neighbor_ratio)}")
    print(f"worst_self_ratio: {_fmt(report.worst_self_ratio)}")
    print("ok" if report.ok else "violated")
    return 0


# the optional flags a subcommand may declare; each declares only those it reads
FLAGS = {
    "seed": dict(type=int, help="override run.seed"),
    "substeps": dict(type=int, help="override run.substeps"),
    "trials": dict(type=int, help=f"trial count (verify: default run.trials; "
                                  f"validate-constants: default {DEFAULT_VALIDATION_TRIALS})"),
    "samples": dict(type=int, help=f"rows of the region sweep (default {DEFAULT_REGION_ROWS})"),
    "limit": dict(type=int, help="check at most this many transitions per agent"),
    "out": dict(help="output directory (default .)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridabs",
        description="Finite transition-system abstractions for interconnected "
                    "single-integrator agents on a uniform grid.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, flags, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="path to the YAML configuration")
        for flag in flags:
            p.add_argument(f"--{flag}", default=None, **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("check", cmd_check, (), "admissibility arithmetic for the configured pair")
    command("region", cmd_region, ("samples", "out"), "CSV sweep of the admissible region")
    command("abstract", cmd_abstract, ("substeps", "out"),
            "build and export transition systems")
    p = command("verify", cmd_verify, ("seed", "trials", "substeps", "limit"),
                "falsification sampling of recorded transitions")
    p.add_argument("selector", nargs="?", default="all",
                   help="'all', an agent index, or AGENT:INDEX")
    command("simulate", cmd_simulate, ("substeps", "out"), "one joint closed-loop run")
    command("controller-dump", cmd_controller_dump, ("substeps", "out"),
            "reference trajectory and terms as CSV")
    command("validate-constants", cmd_validate_constants, ("trials", "seed"),
            "sample-test declared constants")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for name in ("substeps", "trials", "samples", "limit"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise ConfigError(f"--{name} must be positive")
        if getattr(args, "seed", None) is not None:
            cfg.seed = args.seed
        if getattr(args, "substeps", None) is not None:
            cfg.substeps = args.substeps
        return args.func(cfg, args)
    except EnumerationCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FeasibilityError, WellPosednessViolation, InputBoundViolation,
            ConstantsViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
