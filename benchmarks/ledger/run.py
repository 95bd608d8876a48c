#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 benchmarks/ledger/run.py [--seed N] [--out FILE] [--smoke]
        all five workloads, timed then traced: prints every metric by name
        with its unit, writes the result JSON, exits 1 if an operation failed
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, one run; the last stdout line is the result object
        (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
    python3 benchmarks/ledger/run.py --compare A.json B.json
        exits 1 if B is worse than A beyond a metric's bound

This process only orchestrates: every workload segment runs in a fresh
child interpreter (``python -m ledger.workloads``), so peak RSS, import
state and allocator history never leak from one measurement into the next.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"

#: Fresh children per timed run. Each sets up from nothing and measures a
#: third of ``--seconds``, so ``setup_s`` and ``peak_rss_mb`` are medians of
#: three and the timed samples come from three independent heaps.
SEGMENTS = 3
#: Simulated metrics repeat for a seed (svc_* to 1e-3, the rest exactly), so
#: --compare holds two results of one seed to this instead of the (much
#: wider) BENCHMARK.json bound, which exists because the driver varies seeds.
EXACT = ("sim_gteps", "sim_s")
SAME_SEED_BOUND = 1e-3
SMOKE_SECONDS = 0.5
CHILD_TIMEOUT = 120  # seconds; a healthy segment takes under 15


def contract() -> dict:
    return json.loads(CONTRACT.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(HERE.parent), str(SRC)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def segment(workload: str, seed: int, budget: float, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, "-m", "ledger.workloads", "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget), "--trace", str(trace),
           "--spawned-at", repr(perf_counter())]
    if smoke:
        cmd.append("--smoke")
    # Own session, so a child that hangs is killed with the server it started.
    child = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"{workload}: child exceeded {CHILD_TIMEOUT} s")
    if child.returncode != 0:
        raise SystemExit(f"{workload}: child exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_timed(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    n = 1 if smoke else SEGMENTS
    segs = [segment(workload, seed, seconds / n, 0, smoke) for _ in range(n)]
    attempted = sum(s["attempted"] for s in segs) + 1
    failures = [f for s in segs for f in s["failures"]]
    failed = sum(s["failed"] for s in segs)
    # Fresh interpreters, same seed: the simulated answers must not move.
    first = segs[0]
    if any(s["digest"] != first["digest"]
           or any(not math.isclose(s["sim"][k], v, rel_tol=first["sim_rel_tol"], abs_tol=0.0)
                  for k, v in first["sim"].items())
           for s in segs):
        failed += 1
        failures.append("determinism digest differs between segments")
    samples = {k: [x for s in segs for x in s["samples"][k]] for k in segs[0]["samples"]}
    # Interference on a shared host is one-sided: it only ever slows a unit
    # down, by 1.3-1.5x for seconds at a time on the reference box. The best
    # unit of the run estimates the undisturbed cost and repeats from run to
    # run where the median does not; every sample stays in the result JSON.
    better = {m["name"]: m["better"] for m in contract()["end_to_end"]}
    values = {k: (min if better[k] == "lower" else max)(v) for k, v in samples.items()}
    samples["setup_s"] = [s["setup_s"] for s in segs]
    samples["peak_rss_mb"] = [s["peak_rss_mb"] for s in segs]
    values["setup_s"] = statistics.median(samples["setup_s"])
    values["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    values.update(segs[0]["sim"])
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "values": values, "samples": samples, "digest": segs[0]["digest"],
        "units": sum(s["units"] for s in segs),
        "latency_samples": sum(s["latency_samples"] for s in segs),
    }


def result_line(spec: list, values: dict, run: dict) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"],
        "failed": run["failed"], "metrics": metrics,
    })


def one_run(args) -> int:
    spec = contract()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if args.trace:
        run = segment(args.workload, args.seed, args.seconds, 1, args.smoke)
        line = result_line(spec["per_layer"], run["layers"], run)
    else:
        run = run_timed(args.workload, args.seed, args.seconds, args.smoke)
        line = result_line(spec["end_to_end"], run["values"], run)
    for failure in run["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(line)
    return 0


# ---------------------------------------------------------- the full command --
def fingerprint(seed: int) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(), "cpu": model, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "loadavg_start": os.getloadavg()[0], "commit": commit, "seed": seed,
    }


def full(args) -> int:
    spec = contract()
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    result = {"fingerprint": fingerprint(args.seed), "smoke": args.smoke, "workloads": {}}
    failed = 0
    for w in spec["workloads"]:
        name = w["name"]
        start = perf_counter()
        timed = run_timed(name, args.seed, seconds, args.smoke)
        traced = segment(name, args.seed, seconds, 1, args.smoke)
        end_to_end = {}
        for m in spec["end_to_end"]:
            samples = timed["samples"].get(m["name"], [timed["values"][m["name"]]])
            q1, q2, q3 = quartiles(samples)
            end_to_end[m["name"]] = {
                "value": timed["values"][m["name"]], "unit": m["unit"],
                "median": q2, "q1": q1, "q3": q3, "samples": samples,
            }
        per_layer = {m["name"]: {"value": traced["layers"][m["name"]], "unit": m["unit"]}
                     for m in spec["per_layer"]}
        attempted = timed["attempted"] + traced["attempted"]
        bad = timed["failed"] + traced["failed"]
        failed += bad
        result["workloads"][name] = {
            "attempted": attempted, "failed": bad, "failed_share": bad / attempted,
            "failures": timed["failures"] + traced["failures"],
            "digest": timed["digest"], "units": timed["units"],
            "latency_samples": timed["latency_samples"],
            "end_to_end": end_to_end, "per_layer": per_layer,
            "wall_s": perf_counter() - start,
        }
        print(f"\n== {name}: {w['why']}")
        print(f"   {timed['units']} timed units, {timed['latency_samples']} latency "
              f"samples, failed {bad}/{attempted}, {perf_counter() - start:.1f} s")
        for key, m in end_to_end.items():
            print(f"   {key:<44} {m['value']:>14.6g} {m['unit']:<8}"
                  f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {len(m['samples'])}")
        for key, m in per_layer.items():
            print(f"   {key:<44} {m['value']:>14.6g} {m['unit']}")
        for failure in result["workloads"][name]["failures"]:
            print(f"   FAILED: {failure}")
    result["fingerprint"]["loadavg_end"] = os.getloadavg()[0]
    out = Path(args.out) if args.out else HERE / "out" / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"\nresult written to {out}")
    return 1 if failed else 0


# ------------------------------------------------------------------ compare --
def compare(path_a: str, path_b: str) -> int:
    spec = contract()
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    same_seed = a["fingerprint"]["seed"] == b["fingerprint"]["seed"]
    worse_any = False
    print(f"A = {path_a}\nB = {path_b}   (ratio = B / A, base A)")
    print(f"{'workload':<12} {'metric':<16} {'A':>12} {'B':>12} {'ratio':>8}  verdict")
    for w in spec["workloads"]:
        wa, wb = a["workloads"][w["name"]], b["workloads"][w["name"]]
        for m in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            bound = m["bound"]
            if same_seed and m["name"] in EXACT:
                bound = SAME_SEED_BOUND
            va, vb = ma["value"], mb["value"]
            loss = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            spread = max((x["q3"] - x["q1"]) / x["median"] for x in (ma, mb))
            if loss > bound:
                verdict = f"WORSE by {loss:.1%} (bound {bound:.1%})"
                worse_any = True
            elif spread > bound:
                verdict = f"unresolved (quartile spread {spread:.1%} > bound {bound:.1%})"
            else:
                verdict = "ok"
            print(f"{w['name']:<12} {m['name']:<16} {va:>12.6g} {vb:>12.6g} "
                  f"{vb / va:>8.3f}  {verdict}")
        if wb["failed_share"] > wa["failed_share"]:
            print(f"{w['name']:<12} failed_share rose: "
                  f"{wa['failed_share']:.4f} -> {wb['failed_share']:.4f}")
            worse_any = True
    return 1 if worse_any else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs, one segment, under 20 s in all")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir() or not CONTRACT.is_file():
        print(f"the program under test is missing: need {SRC / 'repro'} and {CONTRACT}",
              file=sys.stderr)
        return 2
    if args.workload:
        if args.seconds is None:
            args.seconds = SMOKE_SECONDS if args.smoke else contract()["run_seconds"]
        return one_run(args)
    return full(args)


if __name__ == "__main__":
    sys.exit(main())
