"""Deliberately nondeterministic module — every lint rule fires here.

Never imported; linted by tests/test_sanitizers_lint.py with the
``sim-core`` scope forced (REP101-REP105, REP109) and again with the ``service``
scope (REP108), to prove ``repro lint`` rejects each hazard class and
exits nonzero.
"""

import random
import time
from dataclasses import dataclass


def wall_clock() -> float:
    return time.perf_counter()  # REP101: host clock in simulated code


def stray_draw() -> float:
    return random.random()  # REP102: global RNG outside sim.rng


def hash_ordered(items: list[int]) -> list[int]:
    out = []
    for x in set(items):  # REP103: hash-ordered iteration
        out.append(x)
    return out


def merged(a: list[int], b: list[int]) -> list[int]:
    return sorted(set(a) | set(b))  # REP104: set union merge


@dataclass
class HotPathMessage:  # REP105: hot dataclass without slots=True
    src: int
    dst: int
    payload: bytes


def rogue_query(edges):
    # REP108: kernel construction inside repro.service outside the
    # catalog module bypasses entry pinning and the result cache.
    from repro.baselines import make_variant

    return make_variant("relay-cpe", edges, 4).run(0)


def leaky_critical_section(lock, work) -> None:
    # REP109: a bare acquire leaks the lock when work() raises; the
    # next taker deadlocks. Use 'with lock:' or release in a finally.
    lock.acquire()
    work()
    lock.release()
