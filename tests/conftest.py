import numpy as np
import pytest
from hypothesis import settings

import gridabs as ga

SIDE = 0.004 / np.sqrt(2.0)

# Every property test sets its own example count except the scenario sweep of
# test_scenarios.py, which takes it from the loaded profile: 30 setups by
# default, and 1,000 under `pytest --hypothesis-profile=sweep`.
settings.register_profile("default", max_examples=30)
settings.register_profile("sweep", max_examples=1000)


@pytest.fixture(scope="session")
def path_network():
    return ga.AgentNetwork.from_edges(2, 3, [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def ref_model(path_network):
    return ga.saturated_consensus(path_network, gain=0.5, input_bound=0.5)


@pytest.fixture(scope="session")
def ref_grid():
    return ga.GridDecomposition(2, SIDE)


@pytest.fixture(scope="session")
def ref_params(ref_model, ref_grid):
    return ga.check_discretization(ref_model, ref_grid.diameter(), 0.02)


@pytest.fixture(scope="session")
def ref_window():
    return ga.Window(((-1, 1), (-1, 1)))
