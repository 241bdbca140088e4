"""The benchmark workloads still compute what they computed.

``perfbench/run.py`` hashes every result of a workload into the ``digest`` of
its ``detail`` line. A refactor that claims bit-identical results must leave
the seed-101 digests of ``falsify`` (the one-agent loop), ``plan`` (the joint
loop) and ``enumerate`` (the build and both writers) as they are.
``certify`` is left out: its quota takes several seconds, and its sampler
streams are pinned by ``tests/test_kernels.py``. The runs are untraced
(``--trace 0``), so they write nothing under ``perfbench/``. A smaller
certificate of the same kind, agent 1 on the reference 3x3 window, is pinned
by a direct call instead: it evaluates the same ``feedback`` and
``drift_compensation`` as the closed loops, one sample at a time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridabs as ga

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload, digest", [
    ("falsify", "ce1e5963875281833d64edefdee77ac316e1c5f06567b09e4c26a26aa3adf4da"),
    ("plan", "0600e6774088b08a2e9543a196b3e0547acc906e0b3e2f907f55a17ae87ba094"),
], ids=["falsify", "plan"])
def test_closed_loop_workload_results_are_unchanged(workload, digest):
    assert _digest(workload) == digest


def test_enumerate_results_are_unchanged():
    assert _digest("enumerate") == (
        "ecd87f7c7335ab7d2dce54c890aa46b2a867a945c4747f402b86f249ee06b0b0")


def test_certificate_result_is_unchanged(ref_model, ref_grid, ref_params, ref_window):
    cert = ga.certify_window_input_bound(ref_model, ref_grid, ref_params, 1, ref_window,
                                         samples=1000, seed=27, reference_policy="center",
                                         substeps=32)
    assert cert.configurations == 729 and cert.ok
    assert cert.max_magnitude.hex() == "0x1.4b75c5b0bc965p-3"
    assert cert.worst_configuration == ((0, -1), (-1, 1), (1, -1))


def _digest(workload):
    """The seed-101 result digest of one untraced quota run of ``workload``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "101",
                           "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return detail["digest"]
