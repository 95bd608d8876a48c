"""Multi-root parallel execution: parity, determinism, fallbacks."""

import pytest

from repro import Graph500Runner
from repro.core import BFSConfig
from repro.errors import ConfigError
from repro.graph500.runner import fork_available

CFG = BFSConfig(hub_count_topdown=8, hub_count_bottomup=8)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel root execution requires os.fork"
)


def _assert_rows_match(seq, par, seconds_rel=1e-9):
    assert len(seq.runs) == len(par.runs)
    for a, b in zip(seq.runs, par.runs):
        assert a.root == b.root
        assert a.traversed_edges == b.traversed_edges
        assert a.levels == b.levels
        assert a.validated == b.validated
        assert a.failure == b.failure
        # Simulated seconds agree to round-off: the sequential path measures
        # each span against a clock advanced by earlier roots.
        assert b.seconds == pytest.approx(a.seconds, rel=seconds_rel)


def test_workers_match_sequential_row_for_row():
    kw = dict(scale=9, nodes=4, seed=3, config=CFG, nodes_per_super_node=2)
    seq = Graph500Runner(**kw).run(num_roots=4)
    par = Graph500Runner(workers=2, **kw).run(num_roots=4)
    _assert_rows_match(seq, par)
    assert par.all_validated
    assert par.gteps == pytest.approx(seq.gteps, rel=1e-9)
    assert set(par.extra) == set(seq.extra)


def test_parallel_runs_are_deterministic():
    kw = dict(scale=9, nodes=4, seed=3, config=CFG, workers=3)
    r1 = Graph500Runner(**kw).run(num_roots=5)
    r2 = Graph500Runner(**kw).run(num_roots=5)
    for a, b in zip(r1.runs, r2.runs):
        assert (a.root, a.traversed_edges, a.levels, a.seconds) == (
            b.root, b.traversed_edges, b.levels, b.seconds
        )


def test_more_workers_than_roots():
    kw = dict(scale=8, nodes=2, seed=1, config=CFG)
    seq = Graph500Runner(**kw).run(num_roots=2)
    par = Graph500Runner(workers=16, **kw).run(num_roots=2)
    _assert_rows_match(seq, par)


def test_single_root_stays_sequential():
    runner = Graph500Runner(scale=8, nodes=2, config=CFG, workers=4)
    assert runner._effective_workers(num_roots=1) == 1
    report = runner.run(num_roots=1)
    assert len(report.runs) == 1 and report.all_validated


def test_fault_configs_fall_back_to_sequential():
    from repro.sim.faults import RandomFaultPlan

    plan = RandomFaultPlan(drop_rate=0.01, seed=5)
    runner = Graph500Runner(
        scale=8, nodes=2, config=CFG, workers=4, fault_plan=plan
    )
    assert runner._effective_workers(num_roots=4) == 1


def test_resilience_configs_fall_back_to_sequential():
    from repro.resilience.config import ResilienceConfig

    runner = Graph500Runner(
        scale=8, nodes=2, config=CFG, workers=4,
        resilience=ResilienceConfig(reliable_transport=True),
    )
    assert runner._effective_workers(num_roots=4) == 1


def test_parallel_distributed_validation():
    kw = dict(scale=9, nodes=4, seed=3, config=CFG, validate="distributed")
    seq = Graph500Runner(**kw).run(num_roots=3)
    par = Graph500Runner(workers=2, **kw).run(num_roots=3)
    _assert_rows_match(seq, par)
    assert par.extra["validation_seconds"] == pytest.approx(
        seq.extra["validation_seconds"], rel=1e-9
    )


def _crash_on(monkeypatch, bad_root):
    """Make the kernel hit an SPM overflow on ``bad_root`` (fork inherits
    the patch, so forked workers crash the same way)."""
    from repro.core.bfs import DistributedBFS
    from repro.errors import SpmOverflow

    real_run = DistributedBFS.run

    def run(self, root):
        if root == bad_root:
            raise SpmOverflow("staging buffers exceed 64 KB", node=1)
        return real_run(self, root)

    monkeypatch.setattr(DistributedBFS, "run", run)


def test_crashed_root_is_recorded_alike_in_process_and_forked(monkeypatch):
    kw = dict(scale=9, nodes=4, seed=3, config=CFG, on_root_failure="skip")
    roots = Graph500Runner(**kw).run(num_roots=4).runs
    _crash_on(monkeypatch, roots[1].root)
    seq = Graph500Runner(**kw).run(num_roots=4)
    par = Graph500Runner(workers=2, **kw).run(num_roots=4)
    _assert_rows_match(seq, par)
    assert [r.failure for r in par.runs] == [
        None, "crash: staging buffers exceed 64 KB", None, None
    ]


def test_forked_abort_raises_the_roots_own_crash(monkeypatch):
    from repro.errors import SpmOverflow

    kw = dict(scale=9, nodes=4, seed=3, config=CFG)
    roots = Graph500Runner(**kw).run(num_roots=4).runs
    _crash_on(monkeypatch, roots[2].root)
    raised = []
    for workers in (1, 2):
        with pytest.raises(SpmOverflow) as info:
            Graph500Runner(workers=workers, **kw).run(num_roots=4)
        raised.append((info.value.reason, info.value.node, str(info.value)))
    assert raised[0] == raised[1] == (
        "staging buffers exceed 64 KB", 1,
        "simulated crash on node 1: staging buffers exceed 64 KB",
    )


def _exit_child(*args, **kwargs):
    import os

    os._exit(3)


def _raise_in_child(*args, **kwargs):
    raise ValueError("boom in root worker")


@pytest.mark.parametrize(
    "body, message",
    [(_exit_child, "exited with code 3"), (_raise_in_child, "boom in root worker")],
    ids=["dies", "raises"],
)
def test_failed_worker_raises_instead_of_hanging(monkeypatch, body, message):
    monkeypatch.setattr(Graph500Runner, "run_root", body)
    runner = Graph500Runner(scale=8, nodes=2, config=CFG, workers=2)
    with pytest.raises(RuntimeError, match=message):
        runner.run(num_roots=2)


def test_forked_run_shares_the_graph_without_shared_memory(monkeypatch):
    """Fork workers read the parent's CSR copy-on-write: no shm segment."""
    from repro.graph import shm

    def refuse(*args, **kwargs):
        raise AssertionError("the runner must not rehost the CSR")

    monkeypatch.setattr(shm.SharedCSR, "host", classmethod(refuse))
    report = Graph500Runner(scale=8, nodes=2, config=CFG, workers=2).run(
        num_roots=2
    )
    assert report.all_validated and len(report.runs) == 2


def test_workers_validation():
    with pytest.raises(ConfigError):
        Graph500Runner(scale=8, nodes=2, workers=0)


def test_cli_workers_flag(capsys):
    from repro.cli import main

    code = main(
        ["graph500", "--scale", "8", "--nodes", "2", "--roots", "2",
         "--workers", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all validated" in out
