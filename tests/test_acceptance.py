"""Acceptance suite: one test per numbered guarantee of the synthesis pipeline.

The reference setting throughout is a three-agent path topology with the
saturated consensus field (gain 0.5, input bound 0.5) on a planar grid of
cell diameter 0.004 and period 0.02. Every tolerance below is pinned; each
test also enforces its runtime budget.
"""

import time

import numpy as np
import pytest

import gridabs as ga
from gridabs.controller import ControllerBank
from gridabs.dynamics import project_configuration
from gridabs.simulate import integrate_closed_loop_batch

DIAMETER = 0.004
PERIOD = 0.02
SUBSTEPS = 1024


@pytest.fixture(scope="module")
def setting():
    net = ga.AgentNetwork.from_edges(2, 3, [(0, 1), (1, 2)])
    model = ga.saturated_consensus(net, gain=0.5, input_bound=0.5)
    grid = ga.GridDecomposition(2, DIAMETER / np.sqrt(2.0))
    params = ga.check_discretization(model, grid.diameter(), PERIOD)
    assert params.admissible
    window = ga.Window(((-1, 1), (-1, 1)))
    return net, model, grid, params, window


def random_joint_banks(net, model, grid, params, window, batch, rng, substeps):
    """One bank per agent holding `batch` random configurations with random
    reference points, plus matching initial states inside the own cells."""
    lo = np.array([r[0] for r in window.ranges])
    hi = np.array([r[1] for r in window.ranges])
    cells = rng.integers(lo, hi + 1, size=(batch, net.agent_count, net.dimension))
    banks = []
    for i in range(net.agent_count):
        member_cells, refs = [], []
        for b in range(batch):
            assignment = tuple(tuple(int(v) for v in c) for c in cells[b])
            cfg = project_configuration(net, assignment, i)
            member_cells.append(cfg.cells)
            refs.append([grid.sample_in_cell(z, rng)[0] for z in cfg.cells])
        banks.append(ControllerBank(model, grid, params, i, member_cells,
                                    np.array(refs), substeps=substeps))
    x0 = np.stack([np.stack([grid.sample_in_cell(tuple(int(v) for v in cells[b, i]),
                                                 rng)[0]
                             for i in range(net.agent_count)])
                   for b in range(batch)])
    return banks, x0


@pytest.fixture(scope="module")
def closed_loop_runs(setting):
    """100 randomized admissible joint runs, shared by the identity checks."""
    net, model, grid, params, window = setting
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    banks, x0 = random_joint_banks(net, model, grid, params, window, 100, rng,
                                   SUBSTEPS)
    trajectory, reports = integrate_closed_loop_batch(model, banks, x0)
    elapsed = time.perf_counter() - start
    return banks, x0, trajectory, reports, elapsed


def test_01_admissibility_arithmetic(setting):
    net, model, grid, params, window = setting
    start = time.perf_counter()
    bound = ga.diameter_upper_bound(model)
    lo, hi = ga.admissible_period_interval(model, DIAMETER)
    elapsed = time.perf_counter() - start
    assert bound == pytest.approx(0.005208333333333333, rel=1e-9)
    assert lo == pytest.approx(0.010798671184339754, rel=1e-9)
    assert hi == pytest.approx(0.030867995482326913, rel=1e-9)
    _, coupling = ga.coupling_constants(model)
    m, v = model.feedback_bound, model.input_bound
    for t in (lo, hi):
        assert abs(m * coupling * t * t - v * t + DIAMETER) <= 1e-12
    assert elapsed < 1e-3


def test_02_period_floor_clears_reach_line(setting):
    net, model, grid, params, window = setting
    bound = ga.diameter_upper_bound(model)
    m, v = model.feedback_bound, model.input_bound
    diameters = bound * np.arange(1, 201) / 200.0
    start = time.perf_counter()
    floors = np.array([ga.period_lower_bound(model, d) for d in diameters])
    elapsed = time.perf_counter() - start
    violations = int(np.sum(floors < diameters / (m + v)))
    assert violations == 0
    assert elapsed < 1e-2


def test_03_input_bound_certificate(setting):
    net, model, grid, params, window = setting
    start = time.perf_counter()
    worst = 0.0
    total = 0
    for agent in range(net.agent_count):
        cert = ga.certify_window_input_bound(model, grid, params, agent, window,
                                             samples=10000, seed=17,
                                             substeps=32)
        assert cert.ok, f"agent {agent} exceeded the bound: {cert.worst_witness}"
        assert cert.samples_per_configuration == 10000
        worst = max(worst, cert.max_magnitude)
        total += cert.configurations
    elapsed = time.perf_counter() - start
    assert total == 81 + 729 + 81
    assert worst <= model.input_bound + 1e-12
    assert elapsed < 30.0


def test_04_endpoints_match_reference(setting, closed_loop_runs):
    net, model, grid, params, window = setting
    banks, x0, trajectory, reports, elapsed = closed_loop_runs
    merged = reports.worst()
    assert reports.endpoint_deviation.shape == (100, net.agent_count)
    assert max(merged.endpoint_deviation) <= 1e-8

    # fourth-order check: on a curved field the deviation from the reference
    # endpoint shrinks about sixteenfold per substep doubling
    net2 = ga.AgentNetwork.from_edges(2, 3, [(0, 1), (1, 2)])
    smooth = ga.smooth_consensus(net2, gain=1.0, input_bound=1.5, scale=1.0)
    d2 = 0.02
    params2 = ga.check_discretization(smooth, d2, 0.03)
    assert params2.admissible
    grid2 = ga.GridDecomposition(2, d2 / np.sqrt(2.0))
    window2 = ga.Window(((-1, 1), (-1, 1)))
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    cells = rng.integers(-1, 2, size=(20, 3, 2))
    refs_all, cells_all = [], []
    for i in range(3):
        mc, rf = [], []
        for b in range(20):
            cfg = project_configuration(net2, tuple(tuple(int(v) for v in c)
                                                    for c in cells[b]), i)
            mc.append(cfg.cells)
            rf.append([grid2.sample_in_cell(z, rng)[0] for z in cfg.cells])
        cells_all.append(mc)
        refs_all.append(np.array(rf))
    x0s = np.stack([np.stack([grid2.sample_in_cell(tuple(int(v) for v in cells[b, i]),
                                                   rng)[0]
                              for i in range(3)]) for b in range(20)])
    deviations = []
    for steps in (2, 4, 8):
        banks2 = [ControllerBank(smooth, grid2, params2, i, cells_all[i],
                                 refs_all[i], substeps=steps) for i in range(3)]
        _, reports2 = integrate_closed_loop_batch(smooth, banks2, x0s)
        deviations.append(max(reports2.worst().endpoint_deviation))
    elapsed2 = time.perf_counter() - start
    assert 8.0 < deviations[0] / deviations[1] < 32.0
    assert 8.0 < deviations[1] / deviations[2] < 32.0
    assert elapsed + elapsed2 < 60.0


def test_05_linear_interpolation_identity(setting, closed_loop_runs):
    banks, x0, trajectory, reports, elapsed = closed_loop_runs
    merged = reports.worst()
    assert max(merged.interpolation_deviation) <= 1e-8
    assert elapsed < 60.0


def test_06_containment_within_reach_radius(setting, closed_loop_runs):
    net, model, grid, params, window = setting
    banks, x0, trajectory, reports, elapsed = closed_loop_runs
    assert params.reach_radius == pytest.approx(0.03, rel=1e-12)
    merged = reports.worst()
    assert all(merged.containment_ok)
    # independent recheck on the stored states, all knots and all runs
    states = trajectory.states
    for i in range(net.agent_count):
        for b in range(0, 100, 7):
            cell = grid.cell_of(x0[b, i])
            dists = grid.distance_to_cell(cell, states[:, b, i, :].reshape(-1, 2))
            assert np.max(dists) <= params.reach_radius + 1e-12


def test_07_every_configuration_has_a_wellposed_transition(setting):
    net, model, grid, params, window = setting
    start = time.perf_counter()
    systems = [ga.build_transition_system(model, grid, params, i, window,
                                          substeps=256)
               for i in range(net.agent_count)]
    counts = [len(ts.transitions) for ts in systems]
    assert counts == [81, 729, 81]
    for ts in systems:
        for t in ts.transitions:
            assert len(ts.post_set(t.source, t.action)) >= 1

    rng = np.random.default_rng(23)
    for _ in range(20):
        ts = systems[int(rng.integers(net.agent_count))]
        transition = ts.transitions[int(rng.integers(len(ts.transitions)))]
        check = ga.verify_transition(model, grid, params, transition, window,
                                     trials=500, seed=int(rng.integers(2 ** 31)),
                                     substeps=256)
        assert check.trials == 500
        assert check.min_margin > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0


def test_08_joint_plans_land_simultaneously(setting):
    net, model, grid, params, window = setting
    rng = np.random.default_rng(29)
    lo = np.array([r[0] for r in window.ranges])
    hi = np.array([r[1] for r in window.ranges])
    start = time.perf_counter()
    for _ in range(100):
        source = tuple(tuple(int(v) for v in rng.integers(lo, hi + 1))
                       for _ in range(net.agent_count))
        targets = []
        for i in range(net.agent_count):
            cfg = project_configuration(net, source, i)
            targets.append(ga.agent_transition(model, grid, params, cfg,
                                               substeps=128)[0])
        controllers, report = ga.compose_plan(model, grid, params, source,
                                              tuple(targets), samples=100,
                                              seed=int(rng.integers(2 ** 31)),
                                              substeps=128)
        assert all(report.containment_ok)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


def test_09_endpoint_ignores_neighbor_behavior(setting):
    net, model, grid, params, window = setting
    rng = np.random.default_rng(31)
    B = 50
    assignment = ((0, 0), (0, 1), (1, 1))
    start = time.perf_counter()
    # agent 1 keeps one fixed controller; its neighbors resample reference
    # points and initial states on every run
    fixed_cfg = project_configuration(net, assignment, 1)
    fixed_refs = np.array([grid.sample_in_cell(z, rng)[0] for z in fixed_cfg.cells])
    banks = []
    for i in range(net.agent_count):
        cfg = project_configuration(net, assignment, i)
        if i == 1:
            banks.append(ControllerBank(model, grid, params, i, [cfg.cells],
                                        fixed_refs[None], substeps=SUBSTEPS))
            continue
        refs = np.stack([np.stack([grid.sample_in_cell(z, rng)[0]
                                   for z in cfg.cells]) for _ in range(B)])
        banks.append(ControllerBank(model, grid, params, i, [cfg.cells] * B,
                                    refs, substeps=SUBSTEPS))
    x0 = np.empty((B, net.agent_count, net.dimension))
    for i, z in enumerate(assignment):
        if i == 1:
            x0[:, i, :] = grid.sample_in_cell(z, rng)[0]
        else:
            x0[:, i, :] = grid.sample_in_cell(z, rng, count=B)
    trajectory, _ = integrate_closed_loop_batch(model, banks, x0)
    endpoints = trajectory.states[-1, :, 1, :]
    spread = np.max(np.linalg.norm(endpoints - endpoints[0], axis=-1))
    elapsed = time.perf_counter() - start
    assert spread <= 2e-8
    assert elapsed < 30.0


def test_10_inflated_boundary_keeps_its_distance(setting):
    net, model, grid, params, window = setting
    rng = np.random.default_rng(37)
    radius = params.reach_radius
    start = time.perf_counter()
    checked = 0
    for z in ((0, 0), (2, -1), (-3, 4), (17, 23)):
        box = grid.cell_box(z)
        # 1250 points per face: a point on the face pushed out along the normal
        pts = []
        for axis in range(2):
            for side, sign in ((box.lo, -1.0), (box.hi, 1.0)):
                face = rng.uniform(box.lo, box.hi, size=(1250, 2))
                face[:, axis] = side[axis]
                normal = np.zeros(2)
                normal[axis] = sign
                pts.append(face + radius * normal)
        # corner fan: outward directions within the corner's quadrant
        corners = grid.cell_corners(z)
        signs = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        for corner, sgn in zip(corners[[0, 1, 2, 3]], signs):
            u = np.abs(rng.normal(size=(1250, 2))) * sgn
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            pts.append(corner + radius * u)
        pts = np.concatenate(pts)
        dists = grid.distance_to_cell(z, pts)
        assert np.min(dists) >= radius - 1e-12
        assert np.max(dists) <= radius + 1e-12
        checked += len(pts)
    elapsed = time.perf_counter() - start
    assert checked >= 10000
    assert elapsed < 1.0


def test_11_short_period_violates_the_bound(setting, tmp_path):
    net, model, grid, params, window = setting
    start = time.perf_counter()
    bad = ga.check_discretization(model, DIAMETER, 0.005)
    assert not bad.admissible
    cert = ga.certify_window_input_bound(model, grid, bad, 1, window,
                                         samples=2000, seed=17,
                                         reference_policy="random", substeps=32,
                                         stop_on_violation=True)
    assert not cert.ok
    assert cert.max_magnitude > model.input_bound

    from gridabs.cli import main
    cfg = tmp_path / "short_period.yaml"
    cfg.write_text("""
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
  period: 0.005
""")
    assert main(["check", "--config", str(cfg)]) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
