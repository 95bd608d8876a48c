"""Seed for REP203: blocking socket I/O under a catalog fast lock.

``FrontCatalog._lock`` is a fast lock by the checker's policy (a
``_lock`` attribute on a ``*Catalog`` class — the kind every admission
and lookup crosses). ``publish`` blocks under it directly;
``publish_all`` blocks through a call hop (``_flush``), which only the
transitive pass can see.
"""

import threading


class FrontCatalog:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self._entries = {}
        self._sock = sock

    def publish(self, payload):
        # SEED REP203 (direct): socket send while holding the fast lock.
        with self._lock:
            self._sock.sendall(payload)

    def publish_all(self, payloads):
        # SEED REP203 (one hop deep): _flush blocks on the socket.
        with self._lock:
            for payload in payloads:
                self._stage(payload)
            self._flush()

    def _stage(self, payload):
        self._entries[len(self._entries)] = payload

    def _flush(self):
        self._sock.sendall(b"".join(self._entries.values()))
        self._entries.clear()
