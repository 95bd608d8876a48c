"""Tests for the Server busy-time resource."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Server


def test_idle_server_starts_immediately():
    s = Server()
    start, finish = s.admit(5.0, 2.0)
    assert (start, finish) == (5.0, 7.0)


def test_busy_server_queues_fifo():
    s = Server()
    s.admit(0.0, 3.0)
    start, finish = s.admit(1.0, 2.0)
    assert (start, finish) == (3.0, 5.0)


def test_utilisation_and_jobs():
    s = Server()
    s.admit(0.0, 2.0)
    s.admit(0.0, 2.0)
    assert s.jobs == 2
    assert s.busy_time == 4.0
    assert s.utilisation(8.0) == 0.5
    assert s.utilisation(0.0) == 0.0


def test_negative_service_time_rejected():
    with pytest.raises(SimulationError):
        Server().admit(0.0, -1.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=10),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_server_never_overlaps_jobs(jobs):
    """FIFO invariant: each job starts no earlier than the previous finished."""
    s = Server()
    jobs = sorted(jobs)  # arrivals in time order, as the engine guarantees
    last_finish = 0.0
    for arrival, duration in jobs:
        start, finish = s.admit(arrival, duration)
        assert start >= arrival
        assert start >= last_finish
        assert finish == start + duration
        last_finish = finish
