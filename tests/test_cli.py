"""Command-line interface: exit codes, outputs, determinism."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridabs
from gridabs.abstraction import from_json, verify_transition
from gridabs.admissibility import diameter_upper_bound
from gridabs.cli import main
from gridabs.config import load_config

CONFIG = """
grid:
  dimension: 2
  side: 0.0028284271247461903
network:
  agents: 3
  edges: [[0, 1], [1, 2]]
dynamics:
  builtin: saturated_consensus
  gain: 0.5
  input_bound: 0.5
discretization:
  period: {period}
run:
  substeps: 64
  trials: 30
  seed: 7
  window: [[-1, 1], [-1, 1]]
simulate:
  initial: [[0.001, 0.001], [0.0005, -0.002], [-0.002, 0.0015]]
  targets: [[0, 0], [0, -1], [-1, 0]]
controller_dump:
  agent: 1
  cells: [[0, -1], [0, 0], [-1, 0]]
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.format(period=0.02))
    return str(path)


@pytest.fixture()
def bad_period_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(CONFIG.format(period=0.005))
    return str(path)


def test_check_prints_interval_and_passes(config_path, capsys):
    assert main(["check", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "admissible interval" in out
    assert "admissible: yes" in out
    assert "0.0107986711" in out
    assert "0.0308679954" in out


def test_check_agrees_with_the_verdict_just_above_the_diameter_bound(tmp_path, capsys):
    # a diameter of bound * (1 + 5e-13): above the bound, but within the slack
    # that admissibility allows, where the period interval shrinks to a point
    side, period = 0.003682847818681776, 0.020833333333343747
    path = tmp_path / "edge.yaml"
    path.write_text(CONFIG.format(period=period).replace("0.0028284271247461903", repr(side)))
    cfg = load_config(str(path))
    assert cfg.grid.diameter() > diameter_upper_bound(cfg.model)
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "no admissible interval" not in out
    assert f"period: {period!r} (admissible interval" in out
    assert "admissible: yes" in out


def test_check_fails_below_interval(bad_period_path, capsys):
    assert main(["check", "--config", bad_period_path]) == 1
    out = capsys.readouterr().out
    assert "admissible: no" in out


@pytest.mark.parametrize("key", ["neighbor_lipschitz", "self_lipschitz"])
def test_check_rejects_a_nan_lipschitz_constant(tmp_path, capsys, key):
    constants = {"feedback_bound": "1.0", "neighbor_lipschitz": "1.4142135623730951",
                 "self_lipschitz": "2.0", "input_bound": "0.5", key: ".nan"}
    block = "".join(f"    {k}: {v}\n" for k, v in constants.items())
    path = tmp_path / "nan.yaml"
    path.write_text(CONFIG.format(period=0.02).replace(
        "  builtin: saturated_consensus\n  gain: 0.5\n  input_bound: 0.5\n",
        "  constants:\n" + block))
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "Lipschitz constants must be nonnegative" in captured.err
    assert "admissible" not in captured.out


def test_missing_config_is_an_input_error(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_malformed_config_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("grid: {dimension: 2}\n")
    assert main(["check", "--config", str(path)]) == 2


def test_region_rows_and_determinism(config_path, tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["region", "--config", config_path, "--samples", "25",
                 "--out", str(out1)]) == 0
    assert main(["region", "--config", config_path, "--samples", "25",
                 "--out", str(out2)]) == 0
    data1 = (out1 / "region.csv").read_bytes()
    data2 = (out2 / "region.csv").read_bytes()
    assert data1 == data2
    lines = data1.decode().strip().splitlines()
    assert lines[0] == "diameter,period_min,period_max,reach_line,input_line"
    assert len(lines) == 26
    for line in lines[1:]:
        d, lo, hi, reach, _ = map(float, line.split(","))
        assert lo >= reach


def test_abstract_writes_all_agents(config_path, tmp_path, capsys):
    out = tmp_path / "abs"
    assert main(["abstract", "--config", config_path, "--out", str(out)]) == 0
    for i, count in ((0, 81), (1, 729), (2, 81)):
        ts = from_json((out / f"transitions_agent{i}.json").read_text())
        assert ts.agent == i
        assert len(ts.transitions) == count
        dot = (out / f"transitions_agent{i}.dot").read_text()
        assert dot.startswith("digraph")
    # a second run produces identical bytes
    again = tmp_path / "abs2"
    assert main(["abstract", "--config", config_path, "--out", str(again)]) == 0
    assert ((out / "transitions_agent1.json").read_bytes()
            == (again / "transitions_agent1.json").read_bytes())


# SHA-256 of the `abstract` files on the README config, as written by the full
# enumeration with json.dumps-based export; the relative build and the
# template writers must reproduce them byte for byte
README_ABSTRACT_SHA256 = {
    "transitions_agent0.json": "1ae77856fcb3bb66e27647e5a12e6912de47b7c1664be599d2b58c5868b5e245",
    "transitions_agent0.dot": "c8f9c083f1dffe4800f5ff0d03cfa12ac4db50329bf5e222cfc37c64b992d751",
    "transitions_agent1.json": "1d29eea72413b1ecf9bbfe0f3a6dc915efcdccec1777e30ea2aa728ad5c6600e",
    "transitions_agent1.dot": "575fdb4e84fcfb4cae51e4790b0b47ab8e9706a2dbedba860229e70c72ee06bc",
    "transitions_agent2.json": "a53953262b262db396904dee630df3da6450a4c61abb102d88346589eac32031",
    "transitions_agent2.dot": "1dac7dfa8db5a529e0466fe04d688cb3dbdab0f01ef285d7d6c223bb7d234f8a",
}


def test_abstract_files_are_pinned_on_the_readme_config(tmp_path, capsys):
    path = tmp_path / "readme.yaml"
    path.write_text(CONFIG.format(period=0.02).replace("substeps: 64", "substeps: 256")
                    .replace("trials: 30", "trials: 500").replace("seed: 7", "seed: 0"))
    out = tmp_path / "abs"
    assert main(["abstract", "--config", str(path), "--out", str(out)]) == 0
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()} == README_ABSTRACT_SHA256
    assert capsys.readouterr().out == "".join(
        f"agent {i}: {count} actions, {count} transitions -> "
        f"{os.path.join(str(out), f'transitions_agent{i}.json')}\n"
        for i, count in ((0, 81), (1, 729), (2, 81)))


def test_abstract_without_window_is_an_input_error(config_path, tmp_path, capsys):
    text = CONFIG.format(period=0.02).replace("  window: [[-1, 1], [-1, 1]]\n", "")
    path = tmp_path / "nowin.yaml"
    path.write_text(text)
    assert main(["abstract", "--config", str(path)]) == 2


def test_verify_single_transition(config_path, capsys):
    assert main(["verify", "--config", config_path, "1:0", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "min margin" in out
    assert out.count("agent 1") == 1


def test_verify_seeds_each_transition_by_its_index(config_path, capsys, monkeypatch):
    # a transition draws the same trials whichever selector checks it, so one
    # line of `verify all` reruns alone with the same witness
    seeds = []

    def recording(*args, seed, **kwargs):
        seeds.append(seed)
        return verify_transition(*args, seed=seed, **kwargs)

    monkeypatch.setattr(gridabs.cli, "verify_transition", recording)
    assert main(["verify", "--config", config_path, "all", "--limit", "3"]) == 0
    every = capsys.readouterr().out.splitlines()
    assert seeds == [7, 8, 9] * 3
    seeds.clear()
    assert main(["verify", "--config", config_path, "1:2"]) == 0
    assert seeds == [9]
    assert capsys.readouterr().out.splitlines() == [every[5]]


def test_verify_ends_with_one_summary_line_on_stderr(config_path, capsys):
    assert main(["verify", "--config", config_path, "--limit", "2", "all"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 6 and all(": ok, 30 trials, min margin " in line for line in lines)
    summary = captured.err.splitlines()
    assert len(summary) == 1, summary
    match = re.fullmatch(r"verified 6 transitions: worst min margin (\S+), (\d+) marginal, "
                         r"(\d+\.\d\d) s", summary[0])
    assert match, summary[0]
    margins = [line.split("min margin ")[1].split(" ")[0] for line in lines]
    assert match[1] == min(margins, key=float)
    assert int(match[2]) == sum(line.endswith("(marginal)") for line in lines)
    assert float(match[3]) > 0.0


def test_verify_bad_selector(config_path, capsys):
    assert main(["verify", "--config", config_path, "9"]) == 2
    assert main(["verify", "--config", config_path, "one:two"]) == 2
    assert main(["verify", "--config", config_path, "0:1:junk"]) == 2


def test_verify_inadmissible_period_exits_one(bad_period_path, capsys):
    assert main(["verify", "--config", bad_period_path, "0:0"]) == 1


def test_simulate_writes_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "landed: true" in report
    assert "agent_2_containment: true" in report
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "t,x0_0,x0_1,x1_0,x1_1,x2_0,x2_1"
    assert len(rows) == 66
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.001)


def test_simulate_exits_one_when_an_input_breaks_the_budget(config_path, tmp_path, capsys,
                                                            monkeypatch):
    # with a negative slack every logged |k| breaks the budget
    monkeypatch.setattr(gridabs.simulate, "INPUT_ATOL", -1.0)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 1
    assert "applied |input|" in capsys.readouterr().err
    assert (out / "trajectory.csv").exists() and (out / "report.txt").exists()


def test_simulate_rejects_wrong_target(config_path, tmp_path, capsys):
    text = CONFIG.format(period=0.02).replace("[0, -1]", "[4, 4]")
    path = tmp_path / "wrong.yaml"
    path.write_text(text)
    assert main(["simulate", "--config", str(path)]) == 2


def test_controller_dump_columns(config_path, tmp_path, capsys):
    out = tmp_path / "dump"
    assert main(["controller-dump", "--config", config_path, "--out", str(out)]) == 0
    rows = (out / "controller_agent1.csv").read_text().strip().splitlines()
    assert rows[0] == "t,ref_0,ref_1,homing_0,homing_1,drift_bound"
    assert len(rows) == 66
    last = rows[-1].split(",")
    assert float(last[0]) == pytest.approx(0.02)
    assert float(last[-1]) == pytest.approx(0.0, abs=1e-15)


def test_controller_dump_inadmissible_period_exits_one(bad_period_path, tmp_path,
                                                       capsys):
    assert main(["simulate", "--config", bad_period_path, "--out", str(tmp_path)]) == 1
    simulate_err = capsys.readouterr().err
    out = tmp_path / "dump"
    assert main(["controller-dump", "--config", bad_period_path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == simulate_err
    assert "not admissible" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("check", ["--trials", "3", "--samples", "9", "--seed", "4", "--substeps", "2"]),
    ("check", ["--out", "x"]),
    ("region", ["--seed", "4"]),
    ("abstract", ["--trials", "3"]),
    ("verify", ["--samples", "9"]),
    ("verify", ["--out", "x"]),
    ("simulate", ["--trials", "3"]),
    ("controller-dump", ["--seed", "4"]),
    ("validate-constants", ["--substeps", "2"]),
])
def test_flags_a_subcommand_ignores_are_input_errors(config_path, capsys, command, flags):
    with pytest.raises(SystemExit) as info:
        main([command, "--config", config_path, *flags])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validate_constants_passes(config_path, capsys):
    assert main(["validate-constants", "--config", config_path,
                 "--trials", "300"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


CONSTANTS_ONLY = """dynamics:
  constants:
    feedback_bound: 1.0
    neighbor_lipschitz: 1.4142135623730951
    self_lipschitz: 2.0
    input_bound: 0.5"""


@pytest.mark.parametrize("command, writes", [
    ("abstract", True),
    ("verify", False),
    ("simulate", True),
    ("controller-dump", True),
    ("validate-constants", False),
])
def test_a_constants_only_config_is_an_input_error(tmp_path, capsys, command, writes):
    # check and region need only the constants; these subcommands need the field
    text = CONFIG.format(period=0.02).replace(
        "dynamics:\n  builtin: saturated_consensus\n  gain: 0.5\n  input_bound: 0.5",
        CONSTANTS_ONLY)
    assert "constants:" in text
    path = tmp_path / "constants.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    flags = ["--out", str(out)] if writes else []
    assert main([command, "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()
    assert main(["check", "--config", str(path)]) == 0


def test_enumeration_cap_exit_code(tmp_path, capsys):
    text = CONFIG.format(period=0.02).replace(
        "window: [[-1, 1], [-1, 1]]", "window: [[-60, 60], [-60, 60]]")
    path = tmp_path / "huge.yaml"
    path.write_text(text)
    assert main(["abstract", "--config", str(path), "--out", str(tmp_path)]) == 3


def test_console_entry_point(config_path):
    # the child finds the same gridabs as this process, installed or not
    src = str(Path(gridabs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gridabs.cli", "check",
                           "--config", config_path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "admissible: yes" in proc.stdout


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_verify_rejects_a_limit_below_one(config_path, capsys, limit):
    assert main(["verify", "--config", config_path, "0", "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit must be positive" in captured.err


@pytest.mark.parametrize("args, key", [
    (["verify", "--seed", "-3"], "--seed"),
    (["validate-constants"], "run.seed"),
])
def test_a_negative_seed_is_an_input_error(config_path, capsys, args, key):
    Path(config_path).write_text(CONFIG.format(period=0.02).replace("seed: 7", "seed: -1")
                                 if key == "run.seed" else CONFIG.format(period=0.02))
    assert main([args[0], "--config", config_path, *args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be nonnegative\n"


@pytest.mark.parametrize("command, first_file", [
    ("region", "region.csv"),
    ("abstract", "transitions_agent0.json"),
    ("simulate", "trajectory.csv"),
    ("controller-dump", "controller_agent1.csv"),
])
@pytest.mark.parametrize("blocked", ["a-file", "under-a-file", "a-directory-as-file"])
def test_an_unusable_out_is_an_input_error(config_path, tmp_path, capsys, command,
                                           first_file, blocked):
    # an --out that cannot be made a directory, or whose file cannot be written
    stray = tmp_path / "stray"
    stray.write_text("kept\n")
    out = {"a-file": stray, "under-a-file": stray / "sub",
           "a-directory-as-file": tmp_path / "out"}[blocked]
    (tmp_path / "out" / first_file).mkdir(parents=True)
    assert main([command, "--config", config_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert stray.read_text() == "kept\n"
