"""Seed for REP204: effect declarations the bodies contradict.

One finding per shape: a ``pure`` function that stores through an
attribute, a ``pure`` function that takes a lock, a ``locked:`` function
that does not acquire the named lock, and an effect comment naming an
unknown spec.
"""

import threading

from repro.analysis.effects import effects


class Ledger:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    @effects("pure")
    def add(self, amount):
        # SEED REP204: declared pure, stores through self.
        self.total += amount
        return self.total

    def tally(self, amount):  # repro: effect=pure
        # SEED REP204: declared pure, acquires a lock.
        with self._lock:
            return self.total + amount

    @effects("locked:Ledger._lock")
    def peek(self):
        # SEED REP204: declared locked, acquires nothing.
        return self.total

    def snapshot(self):  # repro: effect=frozen
        # SEED REP204: 'frozen' is not a recognised effect spec.
        return dict(total=self.total)
