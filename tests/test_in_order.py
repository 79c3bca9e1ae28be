"""dataset.in_order, the one scheduler of the feature pipeline and of
surrogate-gen, on plain functions: job order, the bound on jobs in the pool,
the serial order of errors, cancellation, and no thread left behind."""

import os
import threading
import time

import pytest

from pehfault.dataset import in_order


@pytest.fixture(autouse=True)
def threads_left_behind():
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def echo(value, delay=0.0):
    time.sleep(delay)
    return value


@pytest.mark.parametrize("count", [1, 2, 4])
def test_results_arrive_in_job_order_on_the_calling_thread(count, monkeypatch):
    """Later calls finish first, yet every job's results reach finish in
    job order, each job's in call order."""
    cpus(monkeypatch, count)
    got, caller = [], threading.get_ident()

    def finish(results):
        assert threading.get_ident() == caller
        got.append(results)

    jobs = ([(echo, (i, 0)), (echo, (i, 1), 0.002 * (8 - i))] for i in range(8))
    in_order(jobs, finish, 8)
    assert got == [[(i, 0), (i, 1)] for i in range(8)]


@pytest.mark.parametrize("per_worker", [1, 2])
@pytest.mark.parametrize("count, n_jobs, workers", [(1, 5, 1), (2, 5, 2), (4, 5, 4), (4, 2, 2)])
def test_at_most_workers_jobs_are_in_the_pool_while_the_next_is_drawn(count, n_jobs, workers, per_worker, monkeypatch):
    """One worker per CPU, at most one per job, and per_worker jobs per
    worker in the pool (depth): job i is drawn while the min(i, depth) jobs
    before it are in the pool, and finish of job i comes once job i + depth
    has been drawn."""
    cpus(monkeypatch, count)
    depth = workers * per_worker
    events, finished = [], []

    def jobs():
        for i in range(n_jobs):
            events.append(("draw", i, i - len(finished)))
            yield [(echo, i)]

    def finish(results):
        finished.append(results[0])
        events.append(("finish", results[0]))

    in_order(jobs(), finish, n_jobs, per_worker=per_worker)
    expected = [("draw", i, min(i, depth)) for i in range(min(depth, n_jobs))]
    for i in range(depth, n_jobs):
        expected += [("draw", i, depth), ("finish", i - depth)]
    expected += [("finish", i) for i in range(max(0, n_jobs - depth), n_jobs)]
    assert events == expected


def test_the_pool_has_at_most_one_thread_per_job(monkeypatch):
    """On four CPUs, the four calls of a single job share one thread."""
    cpus(monkeypatch, 4)
    threads = []
    in_order([[(lambda: threads.append(threading.get_ident()) or time.sleep(0.02),)] * 4], len, 1)
    assert len(threads) == 4 and len(set(threads)) == 1


def test_a_draw_error_comes_after_every_earlier_jobs_finish(monkeypatch):
    """Job 3 fails to draw while jobs 1 and 2 are still running: both are
    finished before the error comes out, so the count finished names job 3."""
    cpus(monkeypatch, 2)
    finished = []

    def jobs():
        for i in range(3):
            yield [(echo, i, 0.05)]
        raise ValueError("draw fault")

    with pytest.raises(ValueError, match="draw fault"):
        in_order(jobs(), lambda results: finished.append(results[0]), 5)
    assert finished == [0, 1, 2]


def test_an_earlier_jobs_error_comes_before_a_draw_error(monkeypatch):
    cpus(monkeypatch, 2)

    def fail():
        time.sleep(0.05)
        raise ValueError("call fault")

    def jobs():
        yield [(echo, 0)]
        yield [(fail,)]
        raise ValueError("draw fault")

    finished = []
    with pytest.raises(ValueError, match="call fault"):
        in_order(jobs(), lambda results: finished.append(results[0]), 3)
    assert finished == [0]


def slow_then(started, name, delay=0.3):
    def call():
        started.append(name)
        time.sleep(delay)
        return name

    return call


def test_a_call_error_cancels_the_calls_not_yet_started(monkeypatch):
    """Job 0's first call fails while its other two hold both workers (or
    wait for them): job 1's calls wait in the queue and never start, and
    nothing is finished."""
    cpus(monkeypatch, 2)
    started = []

    def fail():
        started.append("fail")
        raise ValueError("call fault")

    jobs = [
        [(fail,), (slow_then(started, "a"),), (slow_then(started, "b"),)],
        [(slow_then(started, "later", 0),), (slow_then(started, "later", 0),)],
    ]
    finished = []
    with pytest.raises(ValueError, match="call fault"):
        in_order(jobs, finished.append, len(jobs))
    assert "later" not in started and finished == []


def test_a_finish_error_cancels_the_calls_not_yet_started(monkeypatch):
    """finish of job 0 fails while job 1's first two calls hold both
    workers (or wait for them): its third call never starts."""
    cpus(monkeypatch, 2)
    started = []

    def finish(results):
        raise RuntimeError(f"finish fault {results}")

    jobs = [
        [(echo, 0)],
        [(slow_then(started, "a"),), (slow_then(started, "b"),), (slow_then(started, "later", 0),)],
        [(slow_then(started, "later", 0),)],
    ]
    with pytest.raises(RuntimeError, match=r"finish fault \[0\]"):
        in_order(jobs, finish, len(jobs))
    assert "later" not in started


def test_no_jobs_start_no_finish():
    in_order(iter(()), lambda results: pytest.fail("finish called"), 0)
