"""YAML configuration loading and validation."""

import pytest

from gridabs.config import ConfigError, load_config

BASE = """
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
  period: 0.02
"""


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.network.agent_count == 3
    assert cfg.network.neighbors[1] == (0, 2)
    assert cfg.period == 0.02
    assert cfg.substeps == 256
    assert cfg.trials == 500
    assert cfg.seed == 0
    assert cfg.window is None
    assert cfg.model.feedback_bound == pytest.approx(1.0)
    params = cfg.params()
    assert params.admissible


def test_run_overrides_and_window(tmp_path):
    text = BASE + """
run:
  substeps: 64
  trials: 50
  seed: 9
  window: [[-1, 1], [0, 2]]
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.substeps == 64
    assert cfg.trials == 50
    assert cfg.seed == 9
    assert cfg.window.size == 9


def test_run_samples_is_an_unknown_key(tmp_path):
    text = BASE + """
run:
  samples: 123
"""
    with pytest.raises(ConfigError, match="unknown key.*samples"):
        load_config(write(tmp_path, text))


def test_neighbors_listing(tmp_path):
    text = BASE.replace("edges: [[0, 1], [1, 2]]",
                        "neighbors: [[1], [0, 2], [1]]")
    cfg = load_config(write(tmp_path, text))
    assert cfg.network.neighbors == ((1,), (0, 2), (1,))


def test_constants_only_dynamics(tmp_path):
    text = BASE.replace(
        """dynamics:
  builtin: saturated_consensus
  gain: 0.5
  input_bound: 0.5""",
        """dynamics:
  constants:
    feedback_bound: 1.0
    neighbor_lipschitz: 1.4142135623730951
    self_lipschitz: 2.0
    input_bound: 0.5""")
    cfg = load_config(write(tmp_path, text))
    assert cfg.model.evaluators is None
    assert cfg.params().admissible


def test_smooth_builtin_with_scale(tmp_path):
    text = BASE.replace("builtin: saturated_consensus",
                        "builtin: smooth_consensus\n  scale: 2.0")
    cfg = load_config(write(tmp_path, text))
    assert cfg.model.feedback_bound == pytest.approx(2.0)


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE + "\nbogus: 1\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE.replace("  side:", "  sides: 1\n  side:")))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE + "\nrun:\n  tirals: 3\n"))


def test_topology_requires_exactly_one_listing(tmp_path):
    text = BASE.replace("edges: [[0, 1], [1, 2]]",
                        "edges: [[0, 1]]\n  neighbors: [[1], [0], []]")
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, text))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE.replace("  edges: [[0, 1], [1, 2]]", "")))


def test_simulate_block_lengths(tmp_path):
    text = BASE + """
simulate:
  initial: [[0.0, 0.0], [0.001, 0.0]]
  targets: [[0, 0], [0, 0], [0, 0]]
"""
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, text))


def test_simulate_block_parses(tmp_path):
    text = BASE + """
simulate:
  initial: [[0.001, 0.001], [0.0005, -0.002], [-0.002, 0.0015]]
  targets: [[0, 0], [0, -1], [-1, 0]]
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.simulate["initial"].shape == (3, 2)
    assert cfg.simulate["targets"][1] == (0, -1)


def test_controller_dump_block(tmp_path):
    text = BASE + """
controller_dump:
  agent: 1
  cells: [[0, 0], [1, 0], [-1, 0]]
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.controller_dump["agent"] == 1
    assert len(cfg.controller_dump["cells"]) == 3
    assert cfg.controller_dump["initial"] is None
    bad = text.replace("cells: [[0, 0], [1, 0], [-1, 0]]", "cells: [[0, 0]]")
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))


def test_bad_window_shape(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE + "\nrun:\n  window: [[-1, 1]]\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE + "\nrun:\n  window: [[-1, 1], [0.5, 2]]\n"))


def test_missing_file_raises():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/cfg.yaml")


def test_nonpositive_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE.replace("period: 0.02", "period: -1")))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE.replace("side: 0.0028284271247461903",
                                                 "side: 0")))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE.replace("agents: 3", "agents: 0")))
