import multiprocessing
import os
import time

import pytest

from causeweave.experiments import _map_reps

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


def _fail(rep):
    # Replicate 0 fails last, so only an ordered map reports it first.
    if rep == 0:
        time.sleep(0.3)
    raise ValueError(f"rep {rep}")


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_replicate_error_is_independent_of_worker_count(monkeypatch, threads):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match=r"^rep 0$"):
        _map_reps(_fail, 4, threads)


@needs_fork
def test_pool_runs_replicates_side_by_side(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # Each replicate waits for a second one, which only another live worker
    # process can bring; a serial or one-worker run breaks the barrier.
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=30)

    def worker(rep):
        barrier.wait()
        return os.getpid()

    pids = _map_reps(worker, 4, 2)
    assert len(pids) == 4 and len(set(pids)) == 2
    assert os.getpid() not in pids
    assert _map_reps(lambda rep: os.getpid(), 4, 1) == [os.getpid()] * 4


@pytest.mark.parametrize("cores", [1, None])
def test_pool_never_exceeds_the_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert _map_reps(lambda rep: os.getpid(), 4, 8) == [os.getpid()] * 4


def test_one_replicate_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _map_reps(lambda rep: (rep, os.getpid()), 1, 2) == [(0, os.getpid())]
