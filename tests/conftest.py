import random
import time
from fractions import Fraction

import pytest

from tetravol.majorant import NodeSet
from tetravol.moments import moment_table
from tetravol.node_search import LpProblem, solve_onesided_lp


@pytest.fixture(scope="session")
def table13_timed():
    """Moment table to order 13 (fast path, every order checked against its
    pinned direct-enumerator value), plus its wall-clock build time."""
    t0 = time.monotonic()
    table = moment_table(13)
    return table, time.monotonic() - t0


@pytest.fixture(scope="session")
def table13(table13_timed):
    return table13_timed[0]


@pytest.fixture(scope="session")
def sol13(table13):
    """The degree-13 grid LP on 1000 points, solved once per session."""
    return solve_onesided_lp(LpProblem.equispaced(13, 1000, table13))


@pytest.fixture(scope="session")
def sol12(table13):
    """The degree-12 grid LP on 100 points, solved once per session."""
    return solve_onesided_lp(LpProblem.equispaced(12, 100, table13))


@pytest.fixture(scope="session")
def seeded_node_sets():
    """200 seeded node sets of 1-8 nodes in (0, 1/3] with denominators up to
    10^4 (the bound drawn per node from 10, 100, 10^3 and 10^4); every third
    set holds the node 1/3."""
    rng = random.Random(1612)
    sets = []
    for i in range(200):
        xs = {Fraction(1, 3)} if i % 3 == 0 else set()
        while len(xs) < 1 + i % 8:
            q = rng.randint(3, 10 ** rng.randint(1, 4))
            xs.add(Fraction(rng.randint(1, q // 3), q))
        sets.append(NodeSet(tuple(sorted(xs))))
    return sets
