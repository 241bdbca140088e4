"""Enumerate a finite abstraction over a window and falsify-test it.

Every cell configuration of an agent inside the window produces exactly one
constructive transition: steer to the reference endpoint of the frozen
neighbor field. Randomized falsification then tries to break a few recorded
transitions with adversarial neighbor behavior and initial states.
"""

import os
import tempfile

import numpy as np

import gridabs as ga

net = ga.AgentNetwork.from_edges(2, 3, [(0, 1), (1, 2)])
model = ga.saturated_consensus(net, gain=0.5, input_bound=0.5)
grid = ga.GridDecomposition(2, 0.004 / np.sqrt(2.0))
params = ga.check_discretization(model, grid.diameter(), 0.02)
window = ga.Window(((-1, 1), (-1, 1)))

systems = [ga.build_transition_system(model, grid, params, i, window,
                                      substeps=256) for i in range(3)]
for ts in systems:
    moved = sum(1 for t in ts.transitions if t.target != t.source)
    print(f"agent {ts.agent}: {len(ts.transitions)} transitions, "
          f"{moved} leave their source cell")

# with centered reference points the drift per period is far below the cell
# side, so every transition self-loops; a reference point close to a face in
# the drift direction makes the successor cross into the adjacent cell
middle = systems[1]
config = ga.CellConfiguration(agent=1, cells=((0, 0), (1, 0), (1, 1)))
box = grid.cell_box((0, 0))
near_face = np.array([box.hi[0] - 1e-5, grid.cell_center((0, 0))[1]])
refs = np.array([near_face, grid.cell_center((1, 0)), grid.cell_center((1, 1))])
target, crossing = ga.agent_transition(model, grid, params, config,
                                       reference_points=refs, substeps=256)
print(f"\nreference point {near_face} against neighbors at +x:")
print(f"  endpoint {crossing.endpoint} lands in cell {target}")

rng = np.random.default_rng(6)
print("\nrandomized falsification, 200 trials each:")
for _ in range(3):
    t = middle.transitions[int(rng.integers(len(middle.transitions)))]
    check = ga.verify_transition(model, grid, params, t, window, trials=200,
                                 seed=int(rng.integers(2 ** 31)), substeps=256)
    print(f"  {t.source} -> {t.target}: held over {check.trials} trials, "
          f"worst landing margin {check.min_margin:.2e}"
          + (" (marginal)" if check.marginal else ""))

with tempfile.TemporaryDirectory(prefix="abstraction_") as out:
    for ts in systems:
        base = os.path.join(out, f"transitions_agent{ts.agent}")
        with open(base + ".json", "w") as fh:
            fh.write(ga.to_json(ts))
        with open(base + ".dot", "w") as fh:
            fh.write(ga.to_dot(ts))
    written = sorted(os.listdir(out))
print(f"\nwrote and removed {len(written)} JSON and DOT exports: {', '.join(written)}")

round_trip = ga.from_json(ga.to_json(middle))
print(f"JSON round trip preserves the system: {round_trip == middle}")
