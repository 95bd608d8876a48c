"""Session-wide checks over the whole test run."""

import pytest

from repro.utils.locks import WITNESS


@pytest.fixture(scope="session", autouse=True)
def no_edge_leaves_a_fast_lock():
    """Over everything the suite executed, no lock was taken while a fast
    lock (catalog or cache) was held."""
    yield
    assert WITNESS.fast_edges() == []
