"""gridabs benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload falsify --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

With ``--trace 0`` the run measures set-up, then calls the workload's public
functions back to back for at least ``--seconds`` of timed work (whole passes
only) and prints the end-to-end metrics. With ``--trace 1`` it replays the
workload's fixed quota of calls once untraced and once with spans recorded
around every layer entry point, prints the per-layer metrics and writes the
spans to ``perfbench/traces/``. The last line of standard output is always
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count units: configurations for ``enumerate``
and ``certify``, transitions for ``falsify``, plans for ``plan``; a traced
run counts both of its passes. ``--seconds`` does not apply to a traced run:
its quota is fixed so that its counts repeat exactly.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.yaml"
NAMES = ("enumerate", "certify", "falsify", "plan")

# Set-up is timed this many times per run; setup_s reports the median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "1/s", "unit_p50_ms": "ms",
                    "unit_tail_ms": "ms", "peak_rss_mb": "MB"}

# Layers a workload must never reach; a nonzero call count fails the run.
PREDICTED_ZERO = {
    "enumerate": ("simulate.closed_loop", "controller.bound_sample",
                  "controller.inflated_sample", "integrate.dense_at"),
    "certify": ("simulate.closed_loop",),
    "falsify": ("controller.bound_sample", "controller.inflated_sample"),
    "plan": ("controller.bound_sample", "controller.inflated_sample"),
}

# Memory-scaling point: agent 1 on a 4x4 window at 256 substeps (4096 configs).
MEMORY_WINDOW = ((-2, 1), (-2, 1))
MEMORY_SUBSTEPS = 256


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """Commit of the checkout read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def tail(samples):
    """(value, percentile) of the highest sample with ten samples above it.

    That sample reaches the 75th percentile only from 40 samples on; with
    fewer, the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 40:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


class Runner:
    """Set-up, timed calls and failure accounting for one workload."""

    def __init__(self, args):
        import gridabs.config as config
        from gridabs import (CompositionViolation, InputBoundViolation, IntegrationError,
                             WellPosednessViolation)
        import workloads
        self.args = args
        self.config = config
        self.workloads = workloads
        self.failures = (WellPosednessViolation, CompositionViolation,
                         InputBoundViolation, IntegrationError, ValueError,
                         workloads.CheckFailed)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def set_up(self):
        """Config load, admissibility check and input generation."""
        cfg = self.config.load_config(REFERENCE)
        params = cfg.params()
        if not params.admissible:
            raise SystemExit(f"reference config is not admissible: {params.reason}")
        workload = self.workloads.WORKLOADS[self.args.workload](cfg, params,
                                                                 self.args.seed)
        workload.prepare(cfg.model)
        return workload

    def timed(self, call, model, wrap=None):
        """Run one call; returns (seconds, digest or None). Failures are counted."""
        run = call.run if wrap is None else wrap(call.run)
        self.attempted += call.units
        start = time.perf_counter()
        try:
            digest = run(model)
        except self.failures as exc:
            digest = None
            self.failed += call.units
            self.errors.append(f"{call.label}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, digest


def digest_of(digests):
    return hashlib.sha256("\n".join(d or "FAILED" for d in digests).encode()).hexdigest()


# Run in a fresh interpreter: the import of gridabs alone, its dependencies
# (numpy, yaml) loaded first and not timed.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy, yaml; "
                "start = time.perf_counter(); import gridabs; "
                "print(time.perf_counter() - start)")


def timed_import():
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def measure(runner):
    """Untraced run: end-to-end metrics.

    Set-up is timed SETUP_REPEATS times, spread over the run (the machine's
    speed drifts over seconds): once before the first call, then between
    calls whenever another share of ``--seconds`` of timed work is done. The
    first set-up's workload is the one measured.
    """
    setups = []

    def set_up():
        imported = timed_import()
        start = time.perf_counter()
        workload = runner.set_up()
        setups.append(imported + time.perf_counter() - start)
        return workload

    workload = set_up()
    model = workload.cfg.model

    per_unit_ms, call_ms, digests = [], [], []
    busy = 0.0
    done = 0
    k = 0
    while True:
        call = workload.call(k)
        seconds, digest = runner.timed(call, model)
        busy += seconds
        per_unit_ms.append(1e3 * seconds / call.units)
        call_ms.append(round(1e3 * seconds, 3))
        if digest is not None:
            done += call.units
        if k < workload.quota:
            digests.append(digest)
        k += 1
        if k >= workload.quota and k % workload.group == 0 and busy >= runner.args.seconds:
            break
        if (len(setups) < SETUP_REPEATS
                and busy >= runner.args.seconds * len(setups) / SETUP_REPEATS):
            set_up()
    while len(setups) < SETUP_REPEATS:
        set_up()

    tail_ms, tail_pct = tail(per_unit_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (done / busy, "1/s"),
        "unit_p50_ms": (statistics.median(per_unit_ms), "ms"),
        "unit_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {"calls": k, "units": done, "timed_s": busy, "setup_runs_s": setups, "tail_percentile": tail_pct,
              "tail_samples": len(per_unit_ms), "call_ms": call_ms,
              "digest": digest_of(digests)}
    return metrics, detail


def memory_point(config_module):
    """tracemalloc peak of one build: agent 1, 4x4 window, 256 substeps."""
    import tracemalloc
    import gridabs.abstraction as abstraction
    cfg = config_module.load_config(REFERENCE)
    params = cfg.params()
    window = abstraction.Window(MEMORY_WINDOW)
    tracemalloc.start()
    try:
        ts = abstraction.build_transition_system(cfg.model, cfg.grid, params, 1, window,
                                                 substeps=MEMORY_SUBSTEPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    configs = len(ts.transitions)
    # states and derivs of the reference integration, each (steps+1, B, n) float64
    dense = 2 * (MEMORY_SUBSTEPS + 1) * configs * cfg.grid.dimension * 8
    return {"configs": configs, "peak_bytes": peak, "dense_bytes": dense}


def layer_metrics(units, setup, overhead, memory):
    """Per-layer (value, unit) from the unit spans, set-up spans and memory point."""
    def get(name, key="calls"):
        return units.get(name, {}).get(key, 0)

    def seconds(name, key="ns", layers=units):
        return layers.get(name, {}).get(key, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    rows = get("dynamics.eval", "work")
    members = get("controller.bank_build", "work")
    run_agent_steps = get("simulate.closed_loop", "work2")
    m = {}
    for layer in ("geometry.cell_of", "geometry.sample_in_cell"):
        m[layer + ".calls"] = (get(layer), "count")
        m[layer + ".s"] = (seconds(layer), "s")
    m["dynamics.eval.calls"] = (get("dynamics.eval"), "count")
    m["dynamics.eval.rows"] = (rows, "count")
    m["dynamics.eval.s"] = (seconds("dynamics.eval"), "s")
    m["dynamics.eval.ns_per_row"] = (ratio(get("dynamics.eval", "ns"), rows), "ns")
    m["config.load.s"] = (seconds("config.load", layers=setup), "s")
    m["admissibility.check.s"] = (seconds("admissibility.check", layers=setup), "s")
    m["integrate.rk4_path.calls"] = (get("integrate.rk4_path"), "count")
    m["integrate.rk4_path.steps"] = (get("integrate.rk4_path", "work"), "count")
    m["integrate.rk4_path.s"] = (seconds("integrate.rk4_path"), "s")
    m["integrate.dense_at.calls"] = (get("integrate.dense_at"), "count")
    m["integrate.dense_at.queries"] = (get("integrate.dense_at", "work"), "count")
    m["integrate.dense_at.s"] = (seconds("integrate.dense_at"), "s")
    m["integrate.dense_bytes"] = (get("integrate.rk4_path", "max_work2"), "B")
    m["controller.bank_build.calls"] = (get("controller.bank_build"), "count")
    m["controller.bank_build.members"] = (members, "count")
    m["controller.bank_build.self_s"] = (seconds("controller.bank_build", "self_ns"), "s")
    m["controller.bank_build.us_per_member"] = (
        ratio(get("controller.bank_build", "self_ns") / 1e3, members), "us")
    m["controller.feedback.calls"] = (get("controller.feedback"), "count")
    m["controller.feedback.self_s"] = (seconds("controller.feedback", "self_ns"), "s")
    m["controller.bound_sample.calls"] = (get("controller.bound_sample"), "count")
    m["controller.bound_sample.samples"] = (get("controller.bound_sample", "work"), "count")
    m["controller.bound_sample.s"] = (seconds("controller.bound_sample"), "s")
    m["controller.inflated_sample.s"] = (seconds("controller.inflated_sample"), "s")
    m["simulate.closed_loop.calls"] = (get("simulate.closed_loop"), "count")
    m["simulate.closed_loop.runs"] = (get("simulate.closed_loop", "work"), "count")
    m["simulate.closed_loop.run_agent_steps"] = (run_agent_steps, "count")
    m["simulate.closed_loop.self_s"] = (seconds("simulate.closed_loop", "self_ns"), "s")
    m["simulate.closed_loop.us_per_run_agent_step"] = (
        ratio(get("simulate.closed_loop", "self_ns") / 1e3, run_agent_steps), "us")
    m["abstraction.build.configs"] = (get("abstraction.build", "work"), "count")
    m["abstraction.build.s"] = (seconds("abstraction.build"), "s")
    m["abstraction.build.peak_traced_mb"] = (memory["peak_bytes"] / 1e6, "MB")
    m["abstraction.build.bytes_per_config"] = (memory["peak_bytes"] / memory["configs"], "B")
    m["abstraction.export.s"] = (seconds("abstraction.export"), "s")
    m["abstraction.export.bytes"] = (get("abstraction.export", "work"), "B")
    for stage in ("verify", "certify", "compose"):
        m[f"abstraction.{stage}.self_s"] = (seconds(f"abstraction.{stage}", "self_ns"), "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def counts_digest(layers):
    """Digest of every exact count (calls and work counters) per span name."""
    counts = {name: [row["calls"], row["work"], row["work2"]]
              for name, row in sorted(layers.items())}
    return hashlib.sha256(json.dumps(counts).encode()).hexdigest()


def traced(runner, quota=None):
    """Traced run: the quota once untraced, once traced; per-layer metrics."""
    from spans import Tracer
    tracer = Tracer()
    with tracer.install():
        workload = runner.set_up()
    plain = workload.cfg.model
    counted = tracer.counted_model(plain)
    quota = workload.quota if quota is None else quota

    untraced_s, traced_s = 0.0, 0.0
    plain_digests, traced_digests = [], []
    for k in range(quota):
        seconds, digest = runner.timed(workload.call(k), plain)
        untraced_s += seconds
        plain_digests.append(digest)
    with tracer.install():
        for k in range(quota):
            tracer.unit = k
            seconds, digest = runner.timed(workload.call(k), counted,
                                           wrap=lambda run: tracer.wrap("unit", run))
            traced_s += seconds
            traced_digests.append(digest)
        tracer.unit = -1

    problems = []
    if traced_digests != plain_digests:
        problems.append("traced calls returned other results than untraced calls")
    units = tracer.layers()
    for layer in PREDICTED_ZERO[runner.args.workload]:
        if layer in units:
            problems.append(f"{layer} was called {units[layer]['calls']} times")
    memory = memory_point(runner.config)
    metrics = layer_metrics(units, tracer.layers(setup=True),
                            traced_s / untraced_s, memory)
    detail = {"calls": quota, "untraced_s": untraced_s, "traced_s": traced_s,
              "spans": len(tracer.spans), "counts_digest": counts_digest(units),
              "digest": digest_of(plain_digests), "memory_point": memory,
              "problems": problems}
    return metrics, detail, tracer


def run_all(args):
    """Each workload in its own process, one after another; a combined summary."""
    merged, correct, attempted, failed = {}, True, 0, 0
    table = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}.{metric}"] = (entry["value"], entry["unit"])
        table.append((name, result))
    if args.trace == 0:
        print(f"{'workload':<10} " + " ".join(f"{m:>14}" for m in END_TO_END_UNITS)
              + f" {'fail_ratio':>10}")
        for name, result in table:
            values = " ".join(f"{result['metrics'][m]['value']:>14.6g}"
                              for m in END_TO_END_UNITS)
            ratio = result["failed"] / result["attempted"]
            print(f"{name:<10} {values} {ratio:>10.4g}")
        print(f"{'(unit)':<10} " + " ".join(f"{u:>14}" for u in END_TO_END_UNITS.values())
              + f" {'ratio':>10}")
    print(result_line(correct, attempted, failed, merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gridabs" / "__init__.py").is_file():
        print(f"no gridabs sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    import gridabs
    if Path(gridabs.__file__).resolve().parent != SRC / "gridabs":
        print(f"imported gridabs from {gridabs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args)
    if args.trace:
        metrics, detail, tracer = traced(runner)
        tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.json.gz")
        correct = not detail["problems"]
    else:
        metrics, detail = measure(runner)
        correct = True
    correct = correct and runner.failed == 0
    detail["fail_ratio"] = runner.failed / runner.attempted
    detail["errors"] = runner.errors[:10]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<44} {detail['fail_ratio']:>16.6g} ratio "
          f"({runner.failed}/{runner.attempted} units)")
    print("env " + json.dumps(environment(args)))
    print("detail " + json.dumps(detail))
    print(result_line(correct, runner.attempted, runner.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
