"""Take one hybrid controller apart and watch its three terms.

The feedback is a sum of three pieces: cancellation of the live neighbor
coupling, a constant drive that homes the initial offset onto the reference
point, and a term that compensates the drift the offset induces in the
frozen-neighbor field. The last two die out linearly and by construction the
agent lands exactly on the reference trajectory endpoint.
"""

import numpy as np

import gridabs as ga

net = ga.AgentNetwork.from_edges(2, 3, [(0, 1), (1, 2)])
model = ga.saturated_consensus(net, gain=0.5, input_bound=0.5)
grid = ga.GridDecomposition(2, 0.004 / np.sqrt(2.0))
params = ga.check_discretization(model, grid.diameter(), 0.02)

# agent 1 sits in the origin cell and sees its neighbors in adjacent cells
config = ga.CellConfiguration(agent=1, cells=((0, 0), (1, 0), (-1, 1)))
# the controller of one configuration is a size-1 bank
controller = ga.ControllerBank(model, grid, params, config.agent, [config.cells],
                               substeps=256)
own_reference = controller.reference_points[0, 0]

print(f"own reference point      = {own_reference}")
print(f"reference endpoint       = {controller.endpoint[0]}")
print(f"successor cell           = {tuple(controller.target_cells()[0].tolist())}\n")

rng = np.random.default_rng(1)
start = grid.sample_in_cell((0, 0), rng)[0]
print(f"initial state            = {start}")
print(f"initial offset           = {start - own_reference}\n")

# neighbors wander inside their declared cells; sample a frozen instant
nbr_now = np.stack([grid.sample_in_cell(z, rng)[0]
                    for z in config.neighbor_cells])[None]

print(f"{'t':>8} {'|coupling|':>12} {'|homing|':>12} {'|drift comp|':>14} {'|total|':>10}")
for t in np.linspace(0.0, params.period, 9):
    ref = controller.dense.at(t)
    k1 = controller.coupling_cancellation(ref, nbr_now)
    k2 = controller.offset_homing(start)
    k3 = controller.drift_compensation(t, start)
    total = controller.feedback(t, ref, nbr_now, start)
    print(f"{t:8.4f} {np.linalg.norm(k1):12.3e} {np.linalg.norm(k2):12.3e} "
          f"{np.linalg.norm(k3):14.3e} {np.linalg.norm(total):10.3e}")

worst, witness = ga.sample_feedback_bound(controller, samples=4000, seed=3)
print(f"\nsampled max |feedback| over the inflated region = {worst:.6f}")
print(f"input bound = {model.input_bound} (certified margin {model.input_bound - worst:.6f})")
