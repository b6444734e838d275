"""Driving simulated episodes through the server's ingest-queue seam.

The network front door (:mod:`repro.server`) touches the engine in
exactly one place: decoded ``INSERT`` frames become
:class:`~repro.server.ingest.IngestBatch` items on an
:class:`~repro.server.ingest.IngestQueue`, drained by the
:class:`~repro.server.ingest.ServerIngestPump` transition.  Because the
pump is an ordinary transition, the simulated scheduler can drive the
whole network path without sockets or an event loop: a
:class:`WireIngress` transition polls the episode's scripted channel
(through the fault proxy, so batch faults still apply), round-trips each
batch through the *real* wire encoding — ``insert_message`` →
``encode_message`` → :class:`~repro.server.protocol.FrameDecoder` — and
enqueues the decoded batches for the pump.

Under ``Config(wire=True)`` the differential harness runs the
streaming side through this path, extending the streaming ≡ one-shot
claim over frame encoding, decoding, and the queue seam itself.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Tuple

from ..adapters.channels import Channel
from ..core.factory import ActivationResult
from ..kernel.types import AtomType
from ..server.ingest import IngestBatch, IngestQueue, ServerIngestPump
from ..server.protocol import (
    FrameDecoder,
    Message,
    encode_message,
    insert_message,
)

__all__ = ["WireIngress", "attach_server_ingress"]

ColumnSpec = Tuple[str, AtomType]


class WireIngress:
    """The simulated wire: channel events → real frames → ingest queue.

    Takes the receptor's place in a server-path episode.  Priority 10,
    like a receptor — ingest drains ahead of queries.  Every polled
    batch is encoded into one ``INSERT`` frame and decoded back through
    the stateful :class:`FrameDecoder` before it reaches the queue, so a
    wire-format bug breaks the oracle exactly like an engine bug would.
    """

    def __init__(
        self,
        channel: Channel,
        basket: str,
        columns: Sequence[ColumnSpec],
        queue: IngestQueue,
        batch_size: int = 1024,
        tenant: str = "default",
        replies: Optional[List[Message]] = None,
        name: str = "server_wire",
        priority: int = 10,
    ):
        self.channel = channel
        self.basket = basket
        self.columns = list(columns)
        self.queue = queue
        self.batch_size = batch_size
        self.tenant = tenant
        #: ACK/ERROR messages the pump sent back (assertable in tests)
        self.replies: List[Message] = replies if replies is not None else []
        self.name = name
        self.priority = priority
        self.decoder = FrameDecoder()
        self.activations = 0
        self.frames_sent = 0
        self._seq = 0

    def enabled(self) -> bool:
        return self.channel.pending() > 0

    def activate(self) -> ActivationResult:
        started = time.perf_counter()
        events = self.channel.poll(self.batch_size)
        queued = 0
        if events:
            self._seq += 1
            frame = encode_message(
                insert_message(
                    self.basket,
                    self.columns,
                    [tuple(e) for e in events],
                    seq=self._seq,
                )
            )
            self.frames_sent += 1
            for message in self.decoder.feed(frame):
                assert message.columns is not None
                assert message.arrays is not None
                self.queue.put(
                    IngestBatch(
                        str(message.meta["basket"]),
                        message.columns,
                        message.arrays,
                        message.row_count,
                        seq=message.meta.get("seq"),
                        tenant=self.tenant,
                        reply=self.replies.append,
                    )
                )
                queued += message.row_count
        self.activations += 1
        return ActivationResult(
            fired=True,
            tuples_in=len(events),
            tuples_out=queued,
            consumed=len(events),
            elapsed=time.perf_counter() - started,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WireIngress({self.basket!r}, "
            f"pending={self.channel.pending()})"
        )


def attach_server_ingress(
    cell: Any,
    channel: Channel,
    basket: str,
    columns: Sequence[ColumnSpec],
    batch_size: int = 1024,
    tenant: str = "default",
) -> WireIngress:
    """Wire a cell for server-path ingest: registers a
    :class:`WireIngress` plus the real :class:`ServerIngestPump` with
    the cell's scheduler and returns the ingress (its ``replies`` list
    collects the pump's ACKs)."""
    queue = IngestQueue()
    ingress = WireIngress(
        channel, basket, columns, queue,
        batch_size=batch_size, tenant=tenant,
    )
    pump = ServerIngestPump(cell, queue, batch_limit=batch_size)
    cell.scheduler.register(ingress)
    cell.scheduler.register(pump)
    return ingress
