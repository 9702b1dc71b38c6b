import pytest
from hypothesis import strategies as st

from vrpdr.core import FleetSpec, Instance, Node


@pytest.fixture
def fleet():
    """Default benchmark parameter set, one truck / one drone / one robot."""
    return FleetSpec()


def make_instance(points, weights=None, fleet=None, reachable=None, seed=0):
    """Build an instance from (x, y) customer points; depot at points[0]."""
    fleet = fleet or FleetSpec()
    weights = weights or [1.0] * (len(points) - 1)
    reachable = reachable or [True] * (len(points) - 1)
    nodes = [Node(0, points[0][0], points[0][1])]
    for idx, (p, w, r) in enumerate(zip(points[1:], weights, reachable), start=1):
        nodes.append(Node(idx, p[0], p[1], w, r))
    return Instance(nodes, fleet, seed=seed)


def energy_rate(hi):
    """A fleet energy parameter in [0, hi], zero drawn often (hypothesis)."""
    return st.one_of(st.just(0.0), st.floats(0.0, hi))


@pytest.fixture
def line_instance(fleet):
    """Depot at origin, three customers along the x axis."""
    return make_instance([(0, 0), (1, 0), (2, 0), (3, 0)], weights=[2.0, 3.0, 1.0], fleet=fleet)
