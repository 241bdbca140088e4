"""Sweep the admissible (diameter, period) region for a small network.

For each cell diameter below the feasibility bound there is a closed interval
of sampling periods for which the synthesis is well posed. The lower endpoint
always clears d/(M + v), which is exactly what makes the reach radius of one
period cover the cell.
"""

import gridabs as ga

net = ga.AgentNetwork.from_edges(2, 3, [(0, 1), (1, 2)])
model = ga.saturated_consensus(net, gain=0.5, input_bound=0.5)

per_agent, coupling = ga.coupling_constants(model)
bound = ga.diameter_upper_bound(model)
print(f"feedback bound M = {model.feedback_bound}")
print(f"input bound  v = {model.input_bound}")
print(f"coupling constants per agent: {[round(c, 6) for c in per_agent]}")
print(f"worst coupling = {coupling:.6f}")
print(f"largest workable cell diameter = {bound:.8f}\n")

print(f"{'diameter':>12} {'period_min':>12} {'period_max':>12} {'d/(M+v)':>12}")
for k in range(1, 11):
    d = bound * k / 10.0
    lo, hi = ga.admissible_period_interval(model, d)
    print(f"{d:12.6f} {lo:12.6f} {hi:12.6f} {d / (model.feedback_bound + model.input_bound):12.6f}")

# the pair used throughout the test suite
d, period = 0.004, 0.02
params = ga.check_discretization(model, d, period)
lo, hi = ga.admissible_period_interval(model, d)
print(f"\nreference pair d = {d}, period = {period}:")
print(f"  admissible interval [{lo:.6f}, {hi:.6f}]")
print(f"  reach radius per period = {params.reach_radius}")
print(f"  admissible: {params.admissible}")

# shrink the period below the interval and the certificate must fail
short = ga.check_discretization(model, d, 0.005)
print(f"\nperiod 0.005 instead: admissible = {short.admissible}")
print(f"  reason: {short.reason}")
