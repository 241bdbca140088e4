"""Run the coupled system in closed loop and check the landing identities.

Every agent applies its own hybrid controller while its neighbors move under
theirs. The realized state stays a linear blend of the reference trajectory
and the initial offset, so the endpoint matches the reference endpoint to
integrator precision and every agent lands in its declared successor cell.
"""

import numpy as np

import gridabs as ga
from gridabs.dynamics import project_configuration

net = ga.AgentNetwork.from_edges(2, 3, [(0, 1), (1, 2)])
model = ga.saturated_consensus(net, gain=0.5, input_bound=0.5)
grid = ga.GridDecomposition(2, 0.004 / np.sqrt(2.0))
params = ga.check_discretization(model, grid.diameter(), 0.02)

rng = np.random.default_rng(42)
cells = ((0, 0), (1, 0), (1, 1))
controllers = []
for i in range(3):
    cfg = project_configuration(net, cells, i)
    refs = np.array([[grid.sample_in_cell(z, rng)[0] for z in cfg.cells]])
    controllers.append(ga.ControllerBank(model, grid, params, i, [cfg.cells],
                                         reference_points=refs, substeps=512))

x0 = np.stack([grid.sample_in_cell(z, rng)[0] for z in cells])
trajectory, report = ga.integrate_closed_loop(controllers, x0)

print("agent  start cell  ->  landed cell   (declared successor)")
for i, c in enumerate(controllers):
    landed = grid.cell_of(trajectory.states[-1, i])
    print(f"  {i}    {cells[i]}      ->  {landed}        {tuple(c.target_cells()[0].tolist())}")

print("\nendpoint deviation from the reference endpoint, per agent:")
for i, dev in enumerate(report.endpoint_deviation):
    print(f"  agent {i}: {dev:.3e}")

print("\nworst knot residual of the linear-homing identity, per agent:")
for i, r in enumerate(report.interpolation_deviation):
    print(f"  agent {i}: {r:.3e}")

print(f"\nmax |input| over the run = {max(report.max_input):.6f} "
      f"(bound {model.input_bound})")
print(f"all states stayed within reach radius {params.reach_radius}: "
      f"{all(report.containment_ok)}")
ga.check_input_bound(trajectory, model)
print("input bound check passed")
