"""Transition-system construction, falsification, and export."""

import json

import numpy as np
import pytest

import gridabs as ga
import gridabs.abstraction as abstraction
from gridabs.abstraction import (CompositionViolation, EnumerationCap, Transition,
                                 Window, WellPosednessViolation,
                                 agent_transition, build_transition_system,
                                 certify_window_input_bound, compose_plan,
                                 enumerate_configurations,
                                 from_json, to_dot, to_json, verify_transition)
from gridabs.admissibility import FeasibilityError
from gridabs.dynamics import project_configuration
from gridabs.geometry import CellConfiguration


def test_window_enumeration():
    window = Window(((-1, 1), (0, 2)))
    assert window.dimension == 2
    assert window.size == 9
    cells = list(window.cells())
    assert len(cells) == 9
    assert (-1, 0) in window
    assert (2, 0) not in window
    with pytest.raises(ValueError):
        Window(((1, -1),))


def test_agent_transition_is_the_reference_endpoint(ref_model, ref_grid, ref_params):
    config = CellConfiguration(agent=1, cells=((0, 0), (1, 1), (-1, 0)))
    target, controller = agent_transition(ref_model, ref_grid, ref_params, config,
                                          substeps=32)
    assert target == ref_grid.cell_of(controller.endpoint[0])
    assert controller.agent == config.agent and controller.configurations == (config.cells,)


def test_agent_transition_needs_admissible_params(ref_model, ref_grid):
    bad = ga.check_discretization(ref_model, 0.004, 0.005)
    config = CellConfiguration(agent=0, cells=((0, 0), (0, 0)))
    with pytest.raises(FeasibilityError):
        agent_transition(ref_model, ref_grid, bad, config)


def test_build_counts_every_configuration(ref_model, ref_grid, ref_params,
                                          ref_window):
    end = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                  substeps=32)
    middle = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                     substeps=32)
    assert len(end.transitions) == 81
    assert len(middle.transitions) == 729
    assert len(set(t.action for t in middle.transitions)) == 729
    for t in middle.transitions[:40]:
        assert t.source == t.action[0]
        assert len(t.reference_points) == 3
    # every configuration has a successor
    for ts in (end, middle):
        for t in ts.transitions:
            post = ts.post_set(t.source, t.action)
            assert t.target in post and len(post) >= 1


def test_post_set_rejects_mismatched_source(ref_model, ref_grid, ref_params,
                                            ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    t = ts.transitions[0]
    with pytest.raises(ValueError):
        ts.post_set((1, 1) if t.source != (1, 1) else (0, 0), t.action)


def test_enumeration_cap(ref_model, ref_grid, ref_params, ref_window):
    with pytest.raises(EnumerationCap):
        build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                substeps=16, max_actions=100)
    assert len(list(enumerate_configurations(ref_window, 1, cap=81))) == 81
    with pytest.raises(EnumerationCap):
        enumerate_configurations(ref_window, 1, cap=80)


def test_verify_transition_accepts_constructed_one(ref_model, ref_grid, ref_params,
                                                   ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                 substeps=32)
    transition = ts.transitions[200]
    check = verify_transition(ref_model, ref_grid, ref_params, transition,
                              ref_window, trials=60, seed=2, substeps=32)
    assert check.trials == 60
    assert check.min_margin > 0.0
    assert check.min_margin <= check.max_margin
    assert sum(check.histogram_counts) == check.trials


def test_verify_transition_histogram_of_near_equal_margins(ref_model, ref_grid, ref_params,
                                                          ref_window):
    # every trial lands on the reference endpoint, so the margins agree to a
    # few ulps: too narrow a range for numpy to cut ten distinct bins
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=64)
    check = verify_transition(ref_model, ref_grid, ref_params, ts.transitions[17],
                              ref_window, trials=100, seed=17, substeps=64)
    edges = np.array(check.histogram_edges)
    assert sum(check.histogram_counts) == check.trials == 100
    assert len(check.histogram_counts) == 10 and len(edges) == 11
    assert np.all(np.diff(edges) >= 0.0)
    assert edges[0] == check.min_margin
    assert edges[-1] >= check.max_margin


def test_verify_transition_rejects_tampered_target(ref_model, ref_grid, ref_params,
                                                   ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=32)
    t = ts.transitions[10]
    wrong = (t.target[0] + 3, t.target[1])
    tampered = Transition(t.agent, t.source, t.action, wrong, t.reference_points)
    with pytest.raises(ValueError):
        verify_transition(ref_model, ref_grid, ref_params, tampered, ref_window,
                          trials=10, seed=0, substeps=32)


def pushed_endpoints(monkeypatch, moves):
    """Make the closed loop shift the final state of (run, agent) by a vector."""
    integrate = abstraction.integrate_closed_loop_batch

    def shifted(*args, **kwargs):
        trajectory, reports = integrate(*args, **kwargs)
        for (b, i), delta in moves.items():
            trajectory.states[-1, b, i] += delta
        return trajectory, reports

    monkeypatch.setattr(abstraction, "integrate_closed_loop_batch", shifted)


def test_verify_transition_reports_the_first_miss(ref_model, ref_grid, ref_params,
                                                  ref_window, monkeypatch):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 1, ref_window,
                                 substeps=16)
    t = ts.transitions[300]
    step = np.array([ref_grid.side, 0.0])
    pushed_endpoints(monkeypatch, {(9, 1): step, (4, 1): -2.0 * step, (2, 0): step})
    with pytest.raises(WellPosednessViolation, match="trial 4: agent 1") as info:
        verify_transition(ref_model, ref_grid, ref_params, t, ref_window,
                          trials=12, seed=3, substeps=16)
    witness = info.value.witness
    assert witness["trial"] == 4
    assert witness["declared"] == t.target
    assert witness["landed"] == (t.target[0] - 2, t.target[1])
    assert witness["landed"] == ref_grid.cell_of(witness["endpoint"])


def test_compose_plan_reports_the_first_miss(ref_model, ref_grid, ref_params,
                                             monkeypatch):
    source = ((0, 0), (1, 0), (0, 1))
    targets = tuple(agent_transition(ref_model, ref_grid, ref_params,
                                     project_configuration(ref_model.network, source, i),
                                     substeps=16)[0] for i in range(3))
    step = np.array([0.0, ref_grid.side])
    pushed_endpoints(monkeypatch, {(5, 0): step, (3, 2): step, (3, 1): -step})
    with pytest.raises(CompositionViolation, match="run 3: agent 1") as info:
        compose_plan(ref_model, ref_grid, ref_params, source, targets, samples=8,
                     seed=1, substeps=16)
    witness = info.value.witness
    assert (witness["run"], witness["agent"]) == (3, 1)
    assert witness["landed"] == (targets[1][0], targets[1][1] - 1)
    assert witness["declared"] == targets[1]


def test_compose_plan_lands_all_agents(ref_model, ref_grid, ref_params):
    source = ((0, 0), (1, 0), (0, 1))
    targets = []
    for i in range(3):
        cfg = project_configuration(ref_model.network, source, i)
        targets.append(agent_transition(ref_model, ref_grid, ref_params, cfg,
                                        substeps=32)[0])
    controllers, report = compose_plan(ref_model, ref_grid, ref_params, source,
                                       tuple(targets), samples=30, seed=1,
                                       substeps=32)
    assert len(controllers) == 3
    assert all(report.containment_ok)
    assert max(report.endpoint_deviation) <= 1e-10


def test_compose_plan_rejects_unreachable_target(ref_model, ref_grid, ref_params):
    source = ((0, 0), (1, 0), (0, 1))
    targets = [(5, 5), (1, 0), (0, 1)]
    with pytest.raises(ValueError):
        compose_plan(ref_model, ref_grid, ref_params, source, tuple(targets),
                     samples=5, seed=0, substeps=16)


def test_certificate_holds_on_admissible_window(ref_model, ref_grid, ref_params,
                                                ref_window):
    cert = certify_window_input_bound(ref_model, ref_grid, ref_params, 0,
                                      ref_window, samples=200, seed=0,
                                      substeps=16)
    assert cert.ok
    assert cert.configurations == 81
    assert cert.max_magnitude <= ref_model.input_bound + 1e-12
    assert cert.worst_witness["magnitude"] == pytest.approx(cert.max_magnitude)


def test_certificate_fails_below_admissible_period(ref_model, ref_grid, ref_window):
    bad = ga.check_discretization(ref_model, 0.004, 0.005)
    cert = certify_window_input_bound(ref_model, ref_grid, bad, 1, ref_window,
                                      samples=1500, seed=0,
                                      reference_policy="random", substeps=16,
                                      stop_on_violation=True)
    assert not cert.ok
    assert cert.max_magnitude > ref_model.input_bound


def test_json_round_trip(ref_model, ref_grid, ref_params, ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    text = to_json(ts)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["agent"] == 0
    assert len(parsed["transitions"]) == 81
    back = from_json(text)
    assert back == ts
    assert to_json(back) == text


def test_dot_export_mentions_states_and_edges(ref_model, ref_grid, ref_params,
                                              ref_window):
    ts = build_transition_system(ref_model, ref_grid, ref_params, 0, ref_window,
                                 substeps=16)
    dot = to_dot(ts)
    assert dot.startswith("digraph")
    t = ts.transitions[0]
    assert f'"{t.source}"' in dot
    assert "->" in dot
