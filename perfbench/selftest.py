"""Self-test of the benchmark's own accounting.

    python3 perfbench/selftest.py

Checks that a failing unit is counted and does not stop the run, that two
traced runs at one seed give identical counts, that the metric names and
units match BENCHMARK.json, and the tail rule. Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)
        print("FAIL", message)


def far_origin_unit_is_counted(runner):
    """A falsify unit on a grid at origin (1e6, -1e6) fails and is counted.

    The library's corner inset (1e-9 * side) is below the spacing of doubles
    near 1e6, so the inset corners round onto the cell face and
    verify_transition rejects the initial states. That is a known defect of
    the library; here it serves as a unit that must be recorded as failed
    while the next unit still runs.
    """
    from gridabs import GridDecomposition, build_transition_system
    from workloads import REFERENCE_WINDOW

    workload = runner.set_up()
    cfg = workload.cfg
    far = GridDecomposition(cfg.grid.dimension, cfg.grid.side, origin=[1e6, -1e6])
    system = build_transition_system(cfg.model, far, workload.params, 0, REFERENCE_WINDOW,
                                     substeps=256)
    bad = workload.verify(system.transitions[40], "far-origin", 7, far)
    _, digest = runner.timed(bad, cfg.model)
    check(digest is None, "far-origin unit passed; expected it to be counted as failed")
    check(runner.failed == 1 and runner.attempted == 1,
          f"far-origin unit: failed={runner.failed} attempted={runner.attempted}")
    check(len(runner.errors) == 1, "far-origin failure was not recorded")
    print("far-origin unit:", runner.errors[:1])
    _, digest = runner.timed(workload.call(0), cfg.model)
    check(digest is not None, f"the unit after the failure did not pass: {runner.errors}")
    check(runner.failed == 1 and runner.attempted == 2,
          f"after the next unit: failed={runner.failed} attempted={runner.attempted}")


def traced_counts_repeat(args):
    """Two traced runs at one seed record identical counts."""
    digests = []
    for _ in range(2):
        metrics, detail, _ = run.traced(run.Runner(args), quota=2)
        check(not detail["problems"], f"traced run problems: {detail['problems']}")
        digests.append(detail["counts_digest"])
    check(digests[0] == digests[1], f"counts differ between traced runs: {digests}")
    return metrics


def names_match_benchmark(layer):
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == run.END_TO_END_UNITS,
          f"end_to_end in BENCHMARK.json {declared} != emitted {run.END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, (_, unit) in layer.items()}
    check(declared == emitted, "per_layer in BENCHMARK.json differs from the emitted "
          f"metrics: {sorted(set(declared) ^ set(emitted))}")
    check(set(w["name"] for w in spec["workloads"]) <= set(run.NAMES),
          "BENCHMARK.json names a workload run.py does not have")


def tail_rule():
    check(run.tail(list(range(50))) == (39, 80.0), f"tail of 50: {run.tail(list(range(50)))}")
    check(run.tail(list(range(39))) == (38, 100.0), f"tail of 39: {run.tail(list(range(39)))}")


def main():
    sys.path.insert(0, str(run.SRC))
    args = argparse.Namespace(workload="falsify", seed=3, seconds=0.0, trace=0)
    far_origin_unit_is_counted(run.Runner(args))
    args = argparse.Namespace(workload="plan", seed=3, seconds=0.0, trace=1)
    names_match_benchmark(traced_counts_repeat(args))
    tail_rule()
    print("selftest", "failed" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
