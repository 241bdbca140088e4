"""Random admissible setups keep the pipeline's guarantees.

Each example draws a network (a path or a ring of 2-4 agents in R^1-R^3), a
builtin field with its gain and input budget, a cell diameter below the
admissible bound, a grid origin and a period from the admissible interval
(either end or inside). For one agent it then builds the transition system of
a small window and checks it against the controllers, falsifies one of its
transitions, certifies the input budget on one cell, and composes one joint
step of every agent from drawn source cells.

The example count comes from the loaded hypothesis profile (see
``conftest.py``): 30 setups in the default run, a longer sweep with
``pytest --hypothesis-profile=sweep tests/test_scenarios.py``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridabs as ga

SUBSTEPS = 32
BUILTINS = {"saturated": ga.saturated_consensus, "smooth": ga.smooth_consensus}


def _setup(n, count, ring, builtin, log_gain, v_share, log_d, origin, period_at):
    edges = [(k, k + 1) for k in range(count - 1)] + ([(count - 1, 0)] if ring else [])
    net = ga.AgentNetwork.from_edges(n, count, edges)
    gain = 10.0**log_gain
    # both builtins have feedback_bound gain * maxdeg
    model = BUILTINS[builtin](net, gain, v_share * gain * net.max_degree)
    d = 10.0**log_d * ga.diameter_upper_bound(model)
    grid = ga.GridDecomposition(n, d / np.sqrt(n), origin=d * np.asarray(origin[:n]))
    lo, hi = ga.admissible_period_interval(model, grid.diameter())
    period = {0.0: lo, 1.0: hi}.get(period_at, lo + period_at * (hi - lo))
    return model, grid, ga.check_discretization(model, grid.diameter(), period)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 3), count=st.integers(2, 4), ring=st.booleans(),
       builtin=st.sampled_from(sorted(BUILTINS)), log_gain=st.floats(-2.0, 2.0),
       v_share=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
       log_d=st.floats(-3.0, 0.0),
       origin=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
       period_at=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
# at gain >= 4 a clip factor of gain / max(|diff|, tiny) overflowed at the
# coincident states every window has
@example(n=2, count=3, ring=False, builtin="saturated", log_gain=1.0, v_share=0.5,
         log_d=-1.0, origin=[0.0, 0.0, 0.0], period_at=0.5, seed=0)
def test_random_admissible_setups_keep_the_guarantees(n, count, ring, builtin, log_gain,
                                                      v_share, log_d, origin, period_at,
                                                      seed):
    model, grid, params = _setup(n, count, ring, builtin, log_gain, v_share, log_d,
                                 origin, period_at)
    assert params.admissible, params.reason

    rng = np.random.default_rng(seed)
    agent = int(rng.integers(count))
    window = ga.Window(((-1, 1),) * n if n < 3 else ((0, 1),) * n)
    ts = ga.build_transition_system(model, grid, params, agent, window, substeps=SUBSTEPS)
    bank = ga.ControllerBank(model, grid, params, agent, ts.action_cells,
                             ts.reference_points, SUBSTEPS)
    np.testing.assert_array_equal(ts.target_cells, bank.target_cells())

    transition = ts.transitions[int(rng.integers(len(ts.transitions)))]
    ga.verify_transition(model, grid, params, transition, window, trials=40, seed=seed,
                         substeps=SUBSTEPS)

    cert = ga.certify_window_input_bound(model, grid, params, agent, ga.Window(((0, 0),) * n),
                                         samples=300, seed=seed, reference_policy="random",
                                         substeps=SUBSTEPS)
    assert cert.ok, cert.violations

    cells = window.cells()
    source = [cells[k] for k in rng.integers(len(cells), size=count)]
    target = [ga.agent_transition(model, grid, params,
                                  ga.project_configuration(model.network, source, i),
                                  substeps=SUBSTEPS)[0]
              for i in range(count)]
    ga.compose_plan(model, grid, params, source, target, samples=20, seed=seed,
                    substeps=SUBSTEPS)
