import multiprocessing

import numpy as np
import pytest

from causeweave import CIEngine, InjectedBackend

# p-value pattern of the three-variable motivating case: both Y and Z are
# marginally associated with X, yet each renders X independent of the other.
EXAMPLE1_ENTRIES = [
    {"x": "X", "y": "Y", "s": [], "p": 0.01},
    {"x": "X", "y": "Z", "s": [], "p": 0.02},
    {"x": "X", "y": "Y", "s": ["Z"], "p": 0.30},
    {"x": "X", "y": "Z", "s": ["Y"], "p": 0.20},
    {"x": "Y", "y": "Z", "s": [], "p": 0.001},
    {"x": "Y", "y": "Z", "s": ["X"], "p": 0.001},
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
