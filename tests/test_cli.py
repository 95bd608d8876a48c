"""CLI tests (invoked in-process through main())."""

import pytest

from repro.cli import main


def test_specs_prints_table1(capsys):
    assert main(["specs"]) == 0
    out = capsys.readouterr().out
    assert "64KB SPM" in out
    assert "40 Cabinets" in out


def test_graph500_small_run(capsys):
    rc = main(
        ["graph500", "--scale", "8", "--nodes", "4", "--roots", "2",
         "--super-node", "2", "--per-root"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "all validated" in out
    assert "GTEPS" in out
    assert "root" in out  # the per-root table


def test_fig11_prints_crashes(capsys):
    assert main(["fig11"]) == 0
    out = capsys.readouterr().out
    assert "CRASH:spm-overflow" in out
    assert "CRASH:connection-memory" in out
    assert "relay-cpe" in out


def test_fig12_prints_headline(capsys):
    assert main(["fig12"]) == 0
    out = capsys.readouterr().out
    assert "23,755.7" in out
    assert "40768" in out


def test_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "K Computer" in out
    assert "Present Work" in out


def test_generate_writes_archive(tmp_path, capsys):
    out_path = tmp_path / "graph.npz"
    assert main(["generate", "--scale", "8", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    from repro.graph.io import load_edgelist

    edges = load_edgelist(out_path)
    assert edges.num_edges == 16 << 8


def test_profile_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "prof"
    rc = main(
        ["profile", "--scale", "8", "--nodes", "4", "--roots", "2",
         "--out", str(out_dir)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "attribution check" in out and "within 1%: True" in out
    assert "Per-level time attribution" in out
    import json

    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["traceEvents"] and {e["ph"] for e in trace["traceEvents"]} == {"X"}
    report = json.loads((out_dir / "run_report.json").read_text())
    assert report["attribution_check"]["within_1pct"] is True
    assert len(report["roots"]) == 2
    assert (out_dir / "summary.csv").read_text().startswith("root,")
    assert "# Run report summary" in (out_dir / "summary.md").read_text()


def test_sssp_subcommand(capsys):
    rc = main(["sssp", "--scale", "8", "--nodes", "2", "--roots", "2",
               "--super-node", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SSSP" in out and "GTEPS" in out


def test_chaos_campaign_writes_report(tmp_path, capsys):
    import json

    out_path = tmp_path / "chaos.json"
    rc = main(
        ["chaos", "--scale", "9", "--scenarios", "3", "--seed", "7",
         "--out", str(out_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict OK" in out
    assert "aborted 0/3" in out
    doc = json.loads(out_path.read_text())
    assert doc["ok"] is True
    assert len(doc["scenarios"]) == 3


def test_graph500_rs_mode_with_disk_faults(capsys):
    rc = main(
        ["graph500", "--scale", "9", "--nodes", "8", "--roots", "1",
         "--checkpoint-interval", "1", "--checkpoint-mode", "rs",
         "--scrub-interval", "1", "--disk-lose", "5",
         "--disk-corrupt", "2:2e-4", "--disk-degrade", "3:1.5"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "all validated" in out
    assert "disk_losses: 1" in out
    assert "disk_corruptions: 1" in out
    assert "scrub_passes" in out


def test_graph500_rejects_bad_disk_fault_spec():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="--disk-lose"):
        main(
            ["graph500", "--scale", "8", "--nodes", "8", "--roots", "1",
             "--checkpoint-interval", "1", "--disk-lose", "nope"]
        )


def test_unknown_command_errors():
    with pytest.raises(SystemExit):
        main(["bogus"])


# --- service commands ---------------------------------------------------------
def test_serve_graph_spec_parsing():
    from repro.cli import _parse_graph_spec
    from repro.errors import ConfigError

    name, spec = _parse_graph_spec("web:13:4:7")
    assert name == "web" and (spec.scale, spec.nodes, spec.seed) == (13, 4, 7)
    name, spec = _parse_graph_spec("g:10")
    assert (spec.nodes, spec.seed) == (8, 1)  # defaults
    for bad in ("g", ":10", "g:ten", "g:1:2:3:4"):
        with pytest.raises(ConfigError, match="spec"):
            _parse_graph_spec(bad)


def test_serve_tenant_spec_parsing():
    from repro.cli import _parse_tenant_spec
    from repro.errors import ConfigError

    name, cfg = _parse_tenant_spec("gold:100:16:2")
    assert name == "gold"
    assert (cfg.rate, cfg.burst, cfg.weight) == (100.0, 16.0, 2.0)
    _, unlimited = _parse_tenant_spec("free:-")
    assert unlimited.rate is None
    with pytest.raises(ConfigError, match="spec"):
        _parse_tenant_spec("lonely")


def test_query_requires_graph_and_algo():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="GRAPH and ALGO"):
        main(["query", "--port", "1"])


def test_serve_and_query_roundtrip(capsys):
    """End-to-end through the real CLI: a server thread and the query
    command talking over a loopback socket."""
    import asyncio
    import re
    import threading

    # Run the server pieces in-process (the serve command itself blocks on
    # signals, so drive its components directly at the same layer).
    from repro.service import (
        GraphService,
        GraphSpec,
        ServiceConfig,
        ServiceServer,
    )

    svc = GraphService(ServiceConfig(workers=1, host_shared=False))
    svc.load_graph("g", GraphSpec(scale=7, nodes=2))
    loop = asyncio.new_event_loop()
    server = ServiceServer(svc)
    ready = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10)
    try:
        port = str(server.port)
        rc = main(["query", "g", "bfs", "--port", port, "--param", "root=0",
                   "--no-arrays", "--tenant", "cli"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok: bfs on g" in out
        assert re.search(r"latency \d", out)

        rc = main(["query", "--port", port, "--ping"])
        assert rc == 0
        assert "'g'" in capsys.readouterr().out

        rc = main(["query", "--port", port, "--report"])
        assert rc == 0
        assert "per-tenant service report" in capsys.readouterr().out
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        svc.close()
