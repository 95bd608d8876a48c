"""Exporters: Chrome/Perfetto trace JSON, JSON run reports, CSV/markdown.

Busy-interval collection and Chrome Trace Event rendering live here,
together with span events and the machine-readable run report that
``repro profile`` writes.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.sim.resources import Server
from repro.telemetry.critical_path import CLASSES, CriticalPathReport
from repro.telemetry.spans import Span


# -- busy intervals ------------------------------------------------------------
def enable_tracing(servers: Iterable[Server]) -> None:
    """Attach interval logs to servers (idempotent)."""
    for s in servers:
        if getattr(s, "intervals", None) is None:
            s.intervals = []  # type: ignore[attr-defined]


def collect_intervals(servers: Iterable[Server]) -> dict[str, list[tuple[float, float]]]:
    out = {}
    for s in servers:
        intervals = getattr(s, "intervals", None)
        if intervals:
            out[s.name] = list(intervals)
    return out


def interval_events(
    intervals_by_server: dict[str, list[tuple[float, float]]],
    time_scale: float = 1e6,
) -> list[dict]:
    """Busy intervals as Trace Event Format ``X`` events (times in us).

    Servers group by node (``node3.C0`` -> pid ``node3``); links group
    under a ``network`` process so the viewer shows one row per link.
    """
    events = []
    for name in sorted(intervals_by_server):
        if "." in name:
            pid, tid = name.split(".", 1)
        elif "[" in name:
            pid, tid = "network", name
        else:
            pid, tid = "machine", name
        for start, finish in intervals_by_server[name]:
            events.append(
                {
                    "name": tid,
                    "cat": "sim",
                    "ph": "X",
                    "ts": start * time_scale,
                    "dur": max(finish - start, 0.0) * time_scale,
                    "pid": pid,
                    "tid": tid,
                }
            )
    return events


def span_events(spans: Iterable[Span], time_scale: float = 1e6) -> list[dict]:
    """Spans as ``X`` events under a dedicated ``spans`` process.

    Each category gets its own thread row, so the run/root/level hierarchy
    reads as stacked timelines in ``chrome://tracing``.
    """
    events = []
    for span in spans:
        if not span.closed:
            continue
        args = {k: str(v) for k, v in span.attrs.items()}
        if span.parent is not None:
            args["parent"] = str(span.parent)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * time_scale,
                "dur": max(span.seconds, 0.0) * time_scale,
                "pid": "spans",
                "tid": span.category,
                "args": args,
            }
        )
    return events


def to_chrome_trace(
    intervals_by_server: dict[str, list[tuple[float, float]]],
    time_scale: float = 1e6,
    spans: Iterable[Span] = (),
) -> str:
    """Render busy intervals (and optional spans) as Trace Event JSON."""
    events = interval_events(intervals_by_server, time_scale)
    events.extend(span_events(spans, time_scale))
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=None)


# -- run reports ---------------------------------------------------------------
def run_report(
    benchmark: dict,
    metrics_snapshot: dict[str, float],
    roots: list[dict],
    critical_path: CriticalPathReport | None = None,
    span_counts: dict[str, int] | None = None,
) -> dict:
    """Assemble the machine-readable run report.

    ``roots`` carries one entry per traversal with its per-level
    attribution (see :func:`root_attribution_entry`); the report-level
    ``attribution_check`` summarises how closely each root's attributed
    seconds re-sum to its ``sim_seconds`` — the profile acceptance gate.
    """
    worst = 0.0
    for entry in roots:
        err = entry.get("attribution_error", 0.0)
        if err > worst:
            worst = err
    report = {
        "report": "repro.telemetry run report",
        "version": 1,
        "benchmark": benchmark,
        "metrics": metrics_snapshot,
        "roots": roots,
        "attribution_check": {
            "worst_relative_error": worst,
            "within_1pct": worst <= 0.01,
        },
    }
    if critical_path is not None:
        report["critical_path"] = critical_path.to_dict()
    if span_counts is not None:
        report["spans"] = span_counts
    return report


def root_attribution_entry(
    root: int,
    sim_seconds: float,
    levels: list[dict],
    attribution: list[dict],
) -> dict:
    """One root's report entry: levels, class attribution, and the check.

    ``attribution`` rows carry per-level class seconds (summing to the
    level window); ``control`` is the remainder between the sum of level
    windows and ``sim_seconds`` — the inter-level allreduce/allgather
    charges that happen outside any level window.

    ``attribution_error`` is the real check, not an identity: the sweep's
    class seconds must re-sum to the level windows (any drift means the
    attribution algorithm lost or double-counted time), and the control
    remainder must be non-negative (levels must fit inside the root's
    span). Both failures show up as relative error against
    ``sim_seconds``.
    """
    attributed = sum(sum(row["seconds"].values()) for row in attribution)
    window_total = sum(row["finish"] - row["start"] for row in attribution)
    control = sim_seconds - window_total
    total = attributed + max(control, 0.0)
    error = (
        (abs(attributed - window_total) + max(-control, 0.0)) / sim_seconds
        if sim_seconds > 0
        else 0.0
    )
    classes = dict.fromkeys(CLASSES, 0.0)
    for row in attribution:
        for cls, value in row["seconds"].items():
            classes[cls] = classes.get(cls, 0.0) + value
    classes["control"] = control
    return {
        "root": root,
        "sim_seconds": sim_seconds,
        "levels": levels,
        "attribution": attribution,
        "class_seconds": classes,
        "attributed_seconds": total,
        "attribution_error": error,
    }


# -- flat summaries ------------------------------------------------------------
def summary_rows(report: dict) -> list[dict]:
    """Per-root rows of the run report, flattened for CSV/markdown."""
    rows = []
    for entry in report.get("roots", []):
        row = {
            "root": entry["root"],
            "sim_seconds": entry["sim_seconds"],
            "levels": len(entry.get("levels", [])),
        }
        for cls in (*CLASSES, "control"):
            row[cls] = entry.get("class_seconds", {}).get(cls, 0.0)
        rows.append(row)
    return rows


def summary_csv(report: dict) -> str:
    rows = summary_rows(report)
    header = ["root", "sim_seconds", "levels", *CLASSES, "control"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                str(row[h]) if h in ("root", "levels") else f"{row[h]:.9e}"
                for h in header
            )
        )
    return "\n".join(lines) + "\n"


def summary_markdown(report: dict) -> str:
    rows = summary_rows(report)
    header = ["root", "sim_seconds", "levels", *CLASSES, "control"]
    lines = [
        "# Run report summary",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append(
            "| "
            + " | ".join(
                str(row[h]) if h in ("root", "levels") else f"{row[h]:.3e}"
                for h in header
            )
            + " |"
        )
    check = report.get("attribution_check", {})
    lines += [
        "",
        f"Worst attribution error vs `sim_seconds`: "
        f"{100 * check.get('worst_relative_error', 0.0):.4f}% "
        f"(within 1%: {check.get('within_1pct', True)})",
        "",
    ]
    return "\n".join(lines)
