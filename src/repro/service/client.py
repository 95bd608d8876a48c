"""Blocking socket client for the service frontend.

The counterpart of :mod:`repro.service.server`, used by ``repro query``,
the load benchmark, and the over-socket parity tests. One
:class:`ServiceClient` wraps one TCP connection; requests are serialised
on a lock, so a client object is safe to share across threads (each
request occupies the connection until its response frame arrives — run
several clients for concurrency, they are cheap).
"""

from __future__ import annotations

import socket

from repro.errors import ProtocolError, ReproError
from repro.service.protocol import encode_frame, recv_frame
from repro.service.query import QueryResult
from repro.utils.locks import NamedLock


class ServiceError(ReproError, RuntimeError):
    """The server answered ``ok: false``."""


class ServiceClient:
    """One connection to a :class:`~repro.service.server.ServiceServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float | None = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._lock = NamedLock("ServiceClient._lock")

    # -- plumbing -----------------------------------------------------------------
    def call(self, request: dict) -> dict:
        """One request frame → the response document; raises
        :class:`ServiceError` on an ``ok: false`` answer."""
        with self._lock:
            self._sock.sendall(encode_frame(request))
            response = recv_frame(self._sock)
        if response is None:
            raise ProtocolError("server closed the connection")
        if not response.get("ok", False):
            raise ServiceError(response.get("error", "unknown server error"))
        return response

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- ops ----------------------------------------------------------------------
    def ping(self) -> dict:
        return self.call({"op": "ping"})

    def query(
        self,
        graph: str,
        algo: str,
        params: dict | None = None,
        tenant: str = "default",
        timeout: float | None = None,
        arrays: bool = True,
    ) -> QueryResult:
        doc = self.call(
            {
                "op": "query",
                "graph": graph,
                "algo": algo,
                "params": params or {},
                "tenant": tenant,
                "timeout": timeout,
                "arrays": arrays,
            }
        )
        return QueryResult.from_dict(doc)

    def load(
        self,
        graph: str,
        scale: int,
        edge_factor: int = 16,
        seed: int = 1,
        nodes: int = 8,
        nodes_per_super_node: int | None = None,
    ) -> dict:
        return self.call(
            {
                "op": "load",
                "graph": graph,
                "scale": scale,
                "edge_factor": edge_factor,
                "seed": seed,
                "nodes": nodes,
                "nodes_per_super_node": nodes_per_super_node,
            }
        )

    def evict(self, graph: str) -> dict:
        return self.call({"op": "evict", "graph": graph})

    def configure_tenant(
        self,
        tenant: str,
        rate: float | None = None,
        burst: float = 64.0,
        weight: float = 1.0,
        max_queue_depth: int = 256,
    ) -> dict:
        return self.call(
            {
                "op": "configure_tenant",
                "tenant": tenant,
                "rate": rate,
                "burst": burst,
                "weight": weight,
                "max_queue_depth": max_queue_depth,
            }
        )

    def stats(self) -> dict:
        return self.call({"op": "stats"})

    def report(self) -> str:
        return self.call({"op": "report"})["report"]
