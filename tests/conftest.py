import multiprocessing

import numpy as np
import pytest

from causeweave import CIEngine, InjectedBackend

# p-value pattern of the three-variable motivating case: both Y and Z are
# marginally associated with X, yet each renders X independent of the other.
EXAMPLE1_ENTRIES = [
    ("X", "Y", (), 0.01),
    ("X", "Z", (), 0.02),
    ("X", "Y", ("Z",), 0.30),
    ("X", "Z", ("Y",), 0.20),
    ("Y", "Z", (), 0.001),
    ("Y", "Z", ("X",), 0.001),
]


@pytest.fixture
def example1_engine():
    return CIEngine(InjectedBackend.from_entries(EXAMPLE1_ENTRIES))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail any test that leaves a worker process running."""
    yield
    assert multiprocessing.active_children() == []
