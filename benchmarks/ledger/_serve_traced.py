"""Traced twin of ``python -m repro serve --preload SPEC --port 0``.

Same service, same ``ServiceConfig`` defaults, same ``serving on`` line, so
timed and traced runs share one topology. The span wrappers go in before the
service is constructed; on SIGTERM the server stops, the service closes and
every span is written to ``--spans-out`` (an ``.npz`` of the columns
:meth:`ledger.trace.Tracer.columns` returns).

A request has no public entry point of its own (a connection handler reads,
dispatches and writes in private coroutines), so its span is built from the
two public calls that bracket it on the event loop: it opens when
``decode_body`` is entered and closes when ``encode_frame`` returns, keyed by
the asyncio task of the connection. Spans recorded while a worker thread
executes the query are parented under the same request: ``submit`` notes
which request a ``QueryRequest`` belongs to and ``take`` adopts it for the
worker that dequeues it. One request span is one query's id.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

import numpy as np

from ledger.trace import SERVER_TABLE, Tracer

REQUEST = "service.server.request|decode_body..encode_frame"


def link_requests(tracer: Tracer) -> None:
    import repro.service.scheduler as scheduler
    import repro.service.server as server
    import repro.service.service as service

    open_requests: dict[object, tuple] = {}  # connection task -> request token
    owner: dict[int, int] = {}  # id(QueryRequest) -> request span id

    decode, encode = server.decode_body, server.encode_frame
    submit, take = service.GraphService.submit, scheduler.FairScheduler.take

    def decode_body(body):
        token = tracer.begin(REQUEST, parent=-1)
        open_requests[asyncio.current_task()] = token
        tracer.adopt(token[0])
        return decode(body)

    def encode_frame(doc):
        token = open_requests.pop(asyncio.current_task(), None)
        if token is None:
            return encode(doc)
        tracer.adopt(token[0])
        try:
            return encode(doc)
        finally:
            tracer.end(token)
            tracer.adopt(-1)

    def traced_submit(self, request):
        owner[id(request)] = tracer.current()
        future = submit(self, request)
        if future.done():  # cache hit or shed: no worker will claim it
            owner.pop(id(request), None)
        return future

    def traced_take(self, timeout=None):
        tracer.adopt(-1)
        item = take(self, timeout)
        if item is not None:
            tracer.adopt(owner.pop(id(item.request), -1))
        return item

    tracer.replace(server, "decode_body", decode_body)
    tracer.replace(server, "encode_frame", encode_frame)
    tracer.replace(service.GraphService, "submit", traced_submit)
    tracer.replace(scheduler.FairScheduler, "take", traced_take)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--preload", required=True, metavar="NAME:SCALE:NODES:SEED")
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args()
    name, scale, nodes, seed = args.preload.split(":")

    tracer = Tracer()
    tracer.install(SERVER_TABLE)
    link_requests(tracer)
    try:
        from repro.service import GraphService, GraphSpec, ServiceConfig, run_server

        service = GraphService(ServiceConfig())
        service.load_graph(name, GraphSpec(scale=int(scale), nodes=int(nodes), seed=int(seed)))

        async def serve() -> None:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop.set)
            task = asyncio.create_task(run_server(
                service, port=0,
                ready_callback=lambda s: print(f"serving on {s.host}:{s.port}", flush=True),
            ))
            await stop.wait()
            task.cancel()
            await task

        asyncio.run(serve())
        service.close()
    finally:
        tracer.restore()
    np.savez(args.spans_out, **tracer.columns())
    return 0


if __name__ == "__main__":
    sys.exit(main())
