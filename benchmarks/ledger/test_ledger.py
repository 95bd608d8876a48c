"""Checks of the benchmark itself (``python -m pytest benchmarks/ledger -q``).

Not part of the tier-1 ``testpaths``: these spawn interpreters and a server.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ledger import micro, run, trace, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = [m["name"] for m in CONTRACT["per_layer"]]
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    result["path"], result["stdout"] = str(out), done.stdout
    return result


def test_names_match_the_contract():
    names = END_TO_END + LAYERS + [w["name"] for w in CONTRACT["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert CONTRACT["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert {w["name"] for w in CONTRACT["workloads"]} == set(workloads.SIZES)
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    spans = {row[2] for table in (trace.TABLE, trace.SERVER_TABLE, trace.CLIENT_TABLE)
             for row in table}
    assert spans <= set(LAYERS)
    assert set(micro.rates()) == {n for n in LAYERS if n.startswith("micro.")}


def test_smoke_reports_every_metric(smoke):
    assert set(smoke["workloads"]) == set(workloads.SIZES)
    for name, w in smoke["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] > 0, w["failures"]
        assert list(w["end_to_end"]) == END_TO_END
        assert list(w["per_layer"]) == LAYERS
        assert all(m["value"] > 0 for m in w["end_to_end"].values()), name
        for metric in END_TO_END:
            assert f"   {metric} " in smoke["stdout"]
    assert {"nproc", "cpu", "python", "numpy", "loadavg_start", "loadavg_end",
            "commit", "seed"} <= set(smoke["fingerprint"])


def test_regimes_are_as_designed(smoke):
    layer = {n: {k: m["value"] for k, m in w["per_layer"].items()}
             for n, w in smoke["workloads"].items()}
    assert layer["svc_cold"]["service.cache.hit_ratio"] == 0
    assert layer["svc_hot"]["service.cache.hit_ratio"] >= 0.95
    assert layer["algo_mix"]["network.simmpi.send_s"] > 0
    assert layer["algo_mix"]["network.simmpi.send_batch_s"] == 0
    assert layer["g500_fabric"]["network.simmpi.send_batch_s"] > 0
    assert layer["g500_fabric"]["network.simmpi.send_s"] == 0
    for name, values in layer.items():
        assert abs(values["ledger.unattributed_s"]) <= 0.05 * values["ledger.traced_run_s"], name


@pytest.mark.parametrize("name", ["g500_fabric", "g500_bulk", "algo_mix"])
def test_span_self_times_sum_to_the_traced_unit(smoke, name):
    doc = json.loads((HERE / "out" / f"trace-{name}.json").read_text())
    cols = {k: trace.np.array(v) for k, v in doc.items() if k != "t0"}
    own = trace.self_times(cols)
    roots = cols["parent"] < 0
    unit = float((cols["end"] - cols["start"])[roots].sum())
    assert abs(own.sum() - unit) <= 0.05 * unit
    # and what no named span covers stays under 5 % of the unit
    assert own[roots].sum() <= 0.05 * unit


def test_every_wrapper_is_restored():
    tables = trace.TABLE + trace.SERVER_TABLE + trace.CLIENT_TABLE
    targets = [trace.resolve(module, path) for module, path, *_ in tables]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = trace.Tracer()
    tracer.install(tables)
    assert all(owner.__dict__[attr] is not b for (owner, attr), b in zip(targets, before))
    tracer.restore()
    assert all(owner.__dict__[attr] is b for (owner, attr), b in zip(targets, before))


def test_nothing_outlives_a_service_run(tmp_path):
    threads = threading.active_count()
    shm = workloads.shm_segments()
    doc = workloads.timed("svc_hot", workloads.SIZES["svc_hot"][1], 1, 0.2,
                          workloads.perf_counter())
    assert doc["failed"] == 0, doc["failures"]
    assert threading.active_count() == threads
    assert workloads.shm_segments() == shm
    with pytest.raises(ChildProcessError):  # no child left to wait for
        os.waitpid(-1, os.WNOHANG)


def test_compare_flags_a_regression(smoke, tmp_path, capsys):
    assert run.compare(smoke["path"], smoke["path"]) == 0
    worse = json.loads(Path(smoke["path"]).read_text())
    metric = worse["workloads"]["g500_bulk"]["end_to_end"]["run_s"]
    for key in ("value", "median", "q1", "q3"):
        metric[key] *= 1.5
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(worse))
    assert run.compare(smoke["path"], str(slow)) == 1
    assert run.compare(str(slow), smoke["path"]) == 0
    assert "WORSE" in capsys.readouterr().out
    worse["workloads"]["g500_bulk"]["end_to_end"]["run_s"] = (
        json.loads(Path(smoke["path"]).read_text())
        ["workloads"]["g500_bulk"]["end_to_end"]["run_s"])
    worse["workloads"]["svc_cold"]["failed_share"] = 0.01
    slow.write_text(json.dumps(worse))
    assert run.compare(smoke["path"], str(slow)) == 1
