"""Named locks that witness their own acquisition order and blocking.

The query service and the metrics registry share a handful of host
locks. Each one is a :class:`NamedLock`, and one process-wide
:class:`Witness` keeps, like lockdep's lock classes, an order graph keyed
by lock *name* (every ``CatalogEntry._kernel_lock`` is one node) plus a
held stack per thread. It raises :class:`LockDisciplineError`, before it
takes or releases anything, when

- a new ``held -> acquired`` edge would close a cycle in the graph
  (re-taking a name that is already held included): a potential
  deadlock, reported even if no two threads ever race for it;
- :func:`blocking` runs while this thread holds a *fast* lock, one that
  every admission or lookup crosses and that may only guard dict work;
- ``Condition.wait`` runs while this thread holds a fast lock other than
  the condition's own.

The witness is always on and sees only the paths that execute. An
acquisition whose edges are all known already costs a few set lookups.
"""

from __future__ import annotations

import threading


class LockDisciplineError(RuntimeError):
    """A lock acquisition, blocking call or wait broke the lock order or
    the fast-lock policy."""


class Witness:
    """Lock-order graph keyed by lock name, and a held stack per thread."""

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        self._fast: set[str] = set()
        self._mutex = threading.Lock()
        self._local = threading.local()

    def held(self) -> list[NamedLock]:
        """This thread's held locks, oldest first (the live stack)."""
        try:
            stack: list[NamedLock] = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        return stack

    def edges(self) -> list[tuple[str, str]]:
        """Every recorded ``(held, acquired)`` edge, sorted."""
        with self._mutex:
            return sorted((a, b) for a, bs in self._edges.items() for b in bs)

    def fast_edges(self) -> list[tuple[str, str]]:
        """Recorded edges that leave a fast lock; the policy wants none."""
        return [edge for edge in self.edges() if edge[0] in self._fast]

    def _path(self, start: str, goal: str) -> list[str] | None:
        """Lock names ``start -> ... -> goal`` along recorded edges."""
        parent: dict[str, str] = {}
        todo = [start]
        seen = {start}
        while todo:
            name = todo.pop()
            if name == goal:
                path = [name]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return path[::-1]
            for nxt in sorted(self._edges.get(name, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = name
                    todo.append(nxt)
        return None

    def acquiring(self, lock: NamedLock, held: list[NamedLock]) -> None:
        """Record ``held -> lock`` edges; raise if one closes a cycle."""
        name = lock.name
        new = [h.name for h in held if name not in self._edges.get(h.name, ())]
        if not new:
            return
        with self._mutex:
            for prior in new:
                path = self._path(name, prior)
                if path is not None:
                    raise LockDisciplineError(
                        f"lock-order cycle {' -> '.join([prior, *path])}: "
                        f"{name} taken while {prior} is held"
                    )
            for prior in new:
                self._edges.setdefault(prior, set()).add(name)

    def blocking(self, operation: str, own: NamedLock | None = None) -> None:
        """Raise if this thread holds a fast lock other than ``own``."""
        for lock in self.held():
            if lock.fast and lock is not own:
                raise LockDisciplineError(
                    f"blocking operation {operation} while holding fast "
                    f"lock {lock.name}"
                )


#: The process-wide witness every :class:`NamedLock` reports to by default.
WITNESS = Witness()


class NamedLock:
    """A ``threading.Lock`` with a name that reports to a :class:`Witness`;
    also a ``threading.Condition`` lock (see :func:`named_condition`)."""

    def __init__(
        self, name: str, fast: bool = False, witness: Witness = WITNESS
    ) -> None:
        self.name = name
        self.fast = fast
        self._witness = witness
        self._lock = threading.Lock()
        if fast:
            witness._fast.add(name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = self._witness.held()
        if held:
            self._witness.acquiring(self, held)
        if not self._lock.acquire(blocking, timeout):  # repro: noqa[REP109]
            return False
        held.append(self)
        return True

    __enter__ = acquire

    def release(self) -> None:
        self._witness.held().remove(self)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __exit__(self, *exc: object) -> None:
        self.release()

    # -- threading.Condition hooks -------------------------------------------
    def _release_save(self) -> None:
        self._witness.blocking(f"Condition.wait on {self.name}", own=self)
        self.release()

    def _acquire_restore(self, _state: object) -> None:
        self.acquire()  # repro: noqa[REP109]

    def _is_owned(self) -> bool:
        return self in self._witness.held()


def named_condition(name: str, witness: Witness = WITNESS) -> threading.Condition:
    """A ``threading.Condition`` over a (non-fast) :class:`NamedLock`."""
    return threading.Condition(NamedLock(name, witness=witness))  # type: ignore[arg-type]


def blocking(operation: str) -> None:
    """Mark a real blocking site: raise if this thread holds a fast lock."""
    WITNESS.blocking(operation)
