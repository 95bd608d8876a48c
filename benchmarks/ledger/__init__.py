"""The repo benchmark: five workloads, end-to-end metrics, per-layer ledger.

Run ``python3 benchmarks/ledger/run.py``; see README.md in this directory.
"""
