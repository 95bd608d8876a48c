"""Alpha-beta transfer-time model over the fat tree with link contention.

A message from ``src`` to ``dst`` serialises, in order, on:

1. the source node's NIC egress (1.2 GB/s effective, the paper's measured
   per-node bandwidth for large messages);
2. if it leaves the super node: the source super node's aggregate uplink
   and the destination super node's aggregate downlink, each provisioned at
   ``nodes_per_super_node * nic_bw / oversubscription`` — the 1:4 central
   network cap of Section 3.3;
3. the destination node's NIC ingress;

plus a propagation latency (1 us intra, 3 us inter) — the "alpha" — paid
once per message. Per-message *software* cost on the MPE is charged by the
runtime, not here, because it depends on which MPE is free.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.machine.specs import MachineSpec, TAIHULIGHT
from repro.network.links import Link
from repro.network.topology import FatTreeTopology


class NetworkModel:
    """Shared-state link model for one simulated machine."""

    def __init__(self, topology: FatTreeTopology, spec: MachineSpec = TAIHULIGHT):
        self.topology = topology
        self.spec = spec
        t = spec.taihulight
        nic_bw = t.nic_effective_bandwidth
        self.nic_out = [Link(f"nic_out[{i}]", nic_bw) for i in range(topology.num_nodes)]
        self.nic_in = [Link(f"nic_in[{i}]", nic_bw) for i in range(topology.num_nodes)]
        trunk_bw = (
            topology.nodes_per_super_node * nic_bw / topology.central_oversubscription
        )
        n_sn = topology.num_super_nodes
        self.uplink = [Link(f"uplink[{s}]", trunk_bw) for s in range(n_sn)]
        self.downlink = [Link(f"downlink[{s}]", trunk_bw) for s in range(n_sn)]
        self.nic_bandwidth = float(nic_bw)
        self.trunk_bandwidth = float(trunk_bw)

    # -- queries ----------------------------------------------------------------
    def latency(self, src: int, dst: int) -> float:
        t = self.spec.taihulight
        if src == dst:
            return 0.0
        if self.topology.is_intra_super_node(src, dst):
            return t.intra_super_node_latency
        return t.inter_super_node_latency

    def links_on_route(self, src: int, dst: int) -> list[Link]:
        if src == dst:
            return []
        route = [self.nic_out[src]]
        if not self.topology.is_intra_super_node(src, dst):
            route.append(self.uplink[self.topology.super_node_of(src)])
            route.append(self.downlink[self.topology.super_node_of(dst)])
        route.append(self.nic_in[dst])
        return route

    # -- transfers ---------------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: float, now: float) -> float:
        """Send ``nbytes`` from ``src`` to ``dst`` starting at ``now``.

        Returns the arrival time. Each link on the static route is occupied
        FIFO (store-and-forward at message granularity — conservative but
        simple, and the paper's messages are batched large precisely so that
        per-hop pipelining stops mattering).
        """
        if nbytes < 0:
            raise ConfigError(f"negative message size: {nbytes}")
        self.topology.check_node(src)
        self.topology.check_node(dst)
        if src == dst:
            return now
        t = now
        for link in self.links_on_route(src, dst):
            _, t = link.transfer(t, nbytes)
        return t + self.latency(src, dst)

    # -- batched transfers --------------------------------------------------------
    def price_batch(
        self, src: int, dests: np.ndarray, nbytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised pricing inputs for ``N`` sends from one source.

        Returns ``(d_nic, d_trunk, latency, intra)``: per-message service
        durations on a NIC and on a central trunk, the propagation latency,
        and the intra-super-node mask. Inputs must be boundary-validated.
        The per-message *admissions* are deliberately not computed here:
        FIFO admission is an order-dependent ``max`` recurrence over shared
        ``free_at`` state and must run in simulated-time order, interleaved
        with every other sender's traffic, to stay exact.
        """
        t = self.spec.taihulight
        sn = self.topology.super_ids
        intra = sn[dests] == sn[src]
        d_nic = nbytes / self.nic_bandwidth
        d_trunk = nbytes / self.trunk_bandwidth
        latency = np.where(
            intra, t.intra_super_node_latency, t.inter_super_node_latency
        )
        return d_nic, d_trunk, latency, intra

    def transfer_batch(
        self,
        src: int,
        dests: np.ndarray,
        nbytes: np.ndarray,
        at_times: np.ndarray,
    ) -> np.ndarray:
        """Price ``N`` transfers from ``src`` in one call; returns arrivals.

        Equivalent to calling :meth:`transfer` once per message in
        simulated-time order (ties broken by batch position), but with the
        per-message route classification, durations and latencies computed
        vectorised up front. The FIFO admissions themselves stay a
        sequential scan: ``start = max(now, free_at)`` chains through every
        link's state, and reassociating that recurrence (e.g. a cumsum over
        idle-free spans) changes float rounding — this path is pinned
        bit-identical against the scalar one.

        Precondition: between ``min(at_times)`` and the last arrival no
        *other* traffic is admitted onto the touched links — the batch owns
        its window. :class:`~repro.network.simmpi.SimCluster` therefore
        defers admission to per-message injection events instead of calling
        this; use this entry point for closed-form batch pricing (analysis,
        collectives sized offline, microbenchmarks).
        """
        dests = np.asarray(dests, dtype=np.int64)
        nbytes = np.asarray(nbytes)
        at_times = np.asarray(at_times, dtype=np.float64)
        if len(nbytes) and nbytes.min() < 0:
            raise ConfigError(f"negative message size: {int(nbytes.min())}")
        self.topology.check_node(src)
        self.topology.check_nodes(dests)
        d_nic, d_trunk, latency, intra = self.price_batch(src, dests, nbytes)
        order = np.argsort(at_times, kind="stable")
        arrivals = np.empty(len(dests), dtype=np.float64)
        out = self.nic_out[src]
        up = self.uplink[self.topology.super_node_of(src)]
        nic_in, downlink = self.nic_in, self.downlink
        sn_dst = self.topology.super_ids[dests]
        for i in order.tolist():
            dst = int(dests[i])
            if dst == src:
                arrivals[i] = at_times[i]
                continue
            nb, dn, dt = nbytes[i], d_nic[i], d_trunk[i]
            if intra[i]:
                route = ((out, dn), (nic_in[dst], dn))
            else:
                route = (
                    (out, dn), (up, dt),
                    (downlink[sn_dst[i]], dt), (nic_in[dst], dn),
                )
            t = at_times[i]
            for link, d in route:
                link.bytes_carried += nb
                _, t = link.admit(t, d)
            arrivals[i] = t + latency[i]
        return arrivals

    # -- bookkeeping ----------------------------------------------------------------
    def all_links(self):
        """Every link in the model (NICs then trunks), for tracing/telemetry."""
        yield from self.nic_out
        yield from self.nic_in
        yield from self.uplink
        yield from self.downlink

    def reset(self) -> None:
        for group in (self.nic_out, self.nic_in, self.uplink, self.downlink):
            for link in group:
                link.reset()

    def total_bytes(self) -> float:
        """Bytes injected at source NICs (each message counted once)."""
        return sum(link.bytes_carried for link in self.nic_out)

    def central_bytes(self) -> float:
        """Bytes that crossed the oversubscribed central switches."""
        return sum(link.bytes_carried for link in self.uplink)
