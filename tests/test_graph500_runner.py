"""End-to-end Graph500 runner tests."""

import pytest

from repro import Graph500Runner
from repro.core import BFSConfig
from repro.errors import ConfigError

CFG = BFSConfig(hub_count_topdown=8, hub_count_bottomup=8)


def test_full_benchmark_small():
    runner = Graph500Runner(
        scale=9, nodes=4, seed=3, config=CFG, nodes_per_super_node=2
    )
    report = runner.run(num_roots=3)
    assert len(report.runs) == 3
    assert report.all_validated
    assert report.gteps > 0
    assert report.construction_seconds > 0
    for run in report.runs:
        assert run.traversed_edges > 0
        assert run.seconds > 0
        assert run.levels >= 1


def test_report_rendering():
    report = Graph500Runner(
        scale=8, nodes=2, seed=1, config=CFG, nodes_per_super_node=2
    ).run(num_roots=2)
    summary = report.summary()
    assert "GTEPS" in summary
    assert "all validated" in summary
    table = report.per_root_table()
    assert "root" in table and "levels" in table


def test_roots_are_deterministic_across_runs():
    kw = dict(scale=8, nodes=2, seed=7, config=CFG, nodes_per_super_node=2)
    r1 = Graph500Runner(**kw).run(num_roots=2)
    r2 = Graph500Runner(**kw).run(num_roots=2)
    assert [a.root for a in r1.runs] == [b.root for b in r2.runs]
    assert [a.traversed_edges for a in r1.runs] == [b.traversed_edges for b in r2.runs]
    assert r1.gteps == pytest.approx(r2.gteps)


def test_variant_selection():
    report = Graph500Runner(
        scale=8, nodes=4, variant="direct-mpe", config=CFG, nodes_per_super_node=2
    ).run(num_roots=2)
    assert report.variant == "direct-mpe"
    assert report.all_validated


def test_runner_validation():
    with pytest.raises(ConfigError):
        Graph500Runner(scale=10, nodes=0)


def test_run_destroys_shared_segment_on_failure(monkeypatch):
    """Regression: a crash propagating out of the run (e.g. a worker
    dying mid-root) must not strand the hosted CSR segment."""
    from multiprocessing import shared_memory

    from repro.graph import shm

    if not shm.shared_memory_available():
        pytest.skip("no usable shared-memory mount")
    names = []
    real_host = shm.SharedCSR.host.__func__

    def capturing_host(cls, graph):
        shared = real_host(cls, graph)
        names.append(shared.name)
        return shared

    monkeypatch.setattr(shm.SharedCSR, "host", classmethod(capturing_host))
    runner = Graph500Runner(scale=8, nodes=4, seed=3, config=CFG,
                            nodes_per_super_node=2, workers=2)

    def boom(*args, **kwargs):
        raise RuntimeError("worker died mid-root")

    monkeypatch.setattr(runner, "_run_steps", boom)
    with pytest.raises(RuntimeError, match="worker died"):
        runner.run(num_roots=2)
    assert names, "workers>1 run must host the CSR in shared memory"
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=names[0])
