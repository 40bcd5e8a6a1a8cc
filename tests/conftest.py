import time

import pytest

from tetravol.moments import moment_table


@pytest.fixture(scope="session")
def table13_timed():
    """Moment table to order 13 (fast path, every order verified against the
    direct enumerator), plus its wall-clock build time."""
    t0 = time.monotonic()
    table = moment_table(13)
    return table, time.monotonic() - t0


@pytest.fixture(scope="session")
def table13(table13_timed):
    return table13_timed[0]
