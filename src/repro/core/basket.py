"""Baskets — the key data structure of the DataCell (paper §2.2).

A basket holds a portion of a stream as a temporary main-memory table.  It
aligns with SQL'03 table semantics as much as possible; the prime
differences are the retention period (a tuple is removed once consumed by
all relevant continuous queries) and the implicit ``dc_time`` column
stamping each tuple's arrival time.

Implementation notes
--------------------
* A basket *is* a catalog :class:`~repro.kernel.catalog.Table` (the paper
  stores baskets as ordinary BATs), extended with:

  - the implicit ``dc_time`` timestamp column;
  - a hidden, monotonically increasing per-tuple sequence number used to
    give tuples a stable identity across consume cycles;
  - consumption primitives (:meth:`consume_all`, :meth:`consume_positions`);
  - per-reader cursors implementing the *shared baskets* strategy, where a
    tuple stays in the basket until every registered reader has seen it.

* There is deliberately **no arrival order guarantee** beyond what the
  caller imposes: the paper treats a basket as a multi-set and considers
  arrival order a semantic issue.  Sequence numbers reflect ingest order at
  this node, which window operators may use, but nothing reorders tuples.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BasketError
from ..kernel.bat import BAT
from ..kernel.catalog import ColumnDef, Schema, Table
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.spans import SpanRecorder
from .clock import Clock, WallClock

__all__ = ["Basket", "BasketSnapshot", "TIME_COLUMN"]

TIME_COLUMN = "dc_time"


class BasketSnapshot:
    """An immutable view of a basket's content at activation time.

    Columns are the basket's BATs re-based to a dense 0..n-1 head, so
    candidate lists produced by plans are directly usable as positions when
    telling the basket which tuples were consumed.  ``seqs`` carries the
    stable per-tuple sequence numbers for the same positions.
    """

    def __init__(
        self,
        names: Sequence[str],
        bats: Sequence[BAT],
        seqs: np.ndarray,
        monos: Optional[np.ndarray] = None,
        tokens: Optional[np.ndarray] = None,
    ):
        self.names = list(names)
        self.bats = list(bats)
        self.seqs = seqs
        self._monos = monos
        self.tokens = tokens

    def first_token(self) -> int:
        """The first sampled trace token among the snapshot's tuples.

        Span causality plumbing: factories/emitters continue the trace
        of the oldest sampled tuple they process.  ``0`` when nothing in
        view is part of a sampled batch (or tokens are not tracked).
        """
        if self.tokens is None or not len(self.tokens):
            return 0
        nonzero = self.tokens[self.tokens != 0]
        return int(nonzero[0]) if nonzero.size else 0

    @property
    def monos(self) -> np.ndarray:
        """Hidden monotonic arrival stamps (same positions as ``seqs``).

        The end-to-end latency plumbing — never user-visible.  Baskets
        with stamping disabled (no-op metrics) produce snapshots without
        stamps; those materialize as "now" lazily, only if read.
        """
        if self._monos is None:
            self._monos = np.full(len(self.seqs), time.monotonic())
        return self._monos

    @property
    def count(self) -> int:
        return self.bats[0].count if self.bats else 0

    def __len__(self) -> int:
        return self.count

    def column(self, name: str) -> BAT:
        try:
            return self.bats[self.names.index(name.lower())]
        except ValueError:
            raise BasketError(f"snapshot has no column {name!r}") from None

    def as_result(self) -> ResultSet:
        return ResultSet(self.names, self.bats)

    def env(self, prefix: str) -> Dict[str, BAT]:
        """Bind columns into a MAL environment as ``prefix.column``."""
        return {f"{prefix}.{n}": b for n, b in zip(self.names, self.bats)}


class Basket(Table):
    """A stream buffer with consumption semantics (see module docstring).

    ``weighted`` marks weighted-delta (Z-set) mode: the last user column
    is ``dc_weight`` and each row is an insert (+1) or retract (−1) of
    the rest of the row — the output representation of incremental
    circuit plans (:mod:`repro.incremental`).  The flag is advisory
    metadata for consumers (``fetch_integrated``, tooling); storage and
    consumption semantics are unchanged.
    """

    weighted = False

    def __init__(
        self,
        name: str,
        columns: Sequence[Tuple[str, AtomType]],
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanRecorder] = None,
    ):
        if any(col[0].lower() in (TIME_COLUMN, "dc_seq") for col in columns):
            raise BasketError(
                f"column names {TIME_COLUMN!r}/'dc_seq' are reserved"
            )
        defs = [ColumnDef(n, a) for n, a in columns]
        #: the schema without the implicit timestamp column
        self.user_columns: Tuple[ColumnDef, ...] = tuple(defs)
        defs.append(ColumnDef(TIME_COLUMN, AtomType.TIMESTAMP))
        super().__init__(name, Schema(defs), is_basket=True)
        self.clock = clock or WallClock()
        self._seq = BAT(AtomType.LNG)
        # hidden monotonic arrival stamps, aligned with ``_seq``: latency
        # measurement must survive wall-clock jumps, so ``dc_time`` (wall)
        # is user-facing and this column feeds the histograms
        self._mono = BAT(AtomType.DBL)
        self._next_seq = 0
        self.min_count = 1  # scheduler firing threshold (paper §2.4)
        self.capacity: Optional[int] = None  # load-shedding high watermark
        # system streams (repro.obs.sysstreams): reserved sys.* baskets
        # are exempt from WAL capture, checkpoints, and load shedding;
        # instead ``retention`` bounds them as a ring buffer — oldest
        # rows beyond it are trimmed silently, never counted as shed
        self.is_system = False
        self.retention: Optional[int] = None
        self.total_trimmed = 0
        # durability hook: when a DurabilityManager is attached, every
        # ingested batch is write-ahead logged at this boundary (before
        # load shedding, which replay re-applies deterministically)
        self.wal_sink = None
        self._readers: Dict[str, int] = {}
        # statistics
        self.total_in = 0
        self.total_out = 0
        self.total_shed = 0
        self.high_water = 0
        self.metrics = metrics if metrics is not None else default_registry()
        # latency stamping is skipped entirely in no-op mode: nothing
        # reads the stamps when every histogram is a null instrument
        self._stamping = self.metrics.enabled
        # trace tokens ride along only when a span recorder is attached:
        # the column marks which tuples belong to a sampled batch, so
        # causality survives basket hops exactly like the origin stamp
        self._token_tracking = tracer is not None and tracer.enabled
        self._tokens = BAT(AtomType.LNG)
        self._row_nbytes: Optional[int] = None  # row_nbytes() cache
        self._m_in = self.metrics.counter(
            "datacell_basket_inserted_total",
            "Tuples inserted into the basket",
            ("basket",),
        ).labels(name)
        self._m_out = self.metrics.counter(
            "datacell_basket_consumed_total",
            "Tuples removed from the basket by consumption",
            ("basket",),
        ).labels(name)
        self._m_shed = self.metrics.counter(
            "datacell_basket_shed_total",
            "Tuples dropped by load shedding",
            ("basket",),
        ).labels(name)
        self._m_depth = self.metrics.gauge(
            "datacell_basket_depth",
            "Tuples currently buffered",
            ("basket",),
        ).labels(name)
        self._m_hwm = self.metrics.gauge(
            "datacell_basket_high_water",
            "Maximum depth ever observed",
            ("basket",),
        ).labels(name)

    def _record_depth(self) -> None:
        """Refresh depth/high-water instruments (call under ``self.lock``)."""
        depth = self.count
        if depth > self.high_water:
            self.high_water = depth
        self._m_depth.set(depth)
        self._m_hwm.set_max(depth)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def insert_rows(
        self,
        rows: Iterable[Sequence[Any]],
        timestamp: Optional[float] = None,
        trace_token: int = 0,
    ) -> int:
        """Append user-arity tuples, stamping arrival time and sequence.

        Returns the number of tuples appended (after load shedding, if a
        ``capacity`` watermark is set).
        """
        rows = list(rows)
        if not rows:
            return 0
        stamp = self.clock.now() if timestamp is None else float(timestamp)
        user_cols = self.user_columns
        arity = len(user_cols)
        for row in rows:
            if len(row) != arity:
                raise BasketError(
                    f"basket {self.name!r}: row arity {len(row)} != {arity}"
                )
        with self.lock:
            # columnar ingest: transpose once, append one array per column
            columns = list(zip(*rows))
            for col, values in zip(user_cols, columns):
                self.bat(col.name).append_many(values)
            n = len(rows)
            self.bat(TIME_COLUMN).append_array(np.full(n, stamp))
            if self._stamping:
                self._mono.append_array(np.full(n, time.monotonic()))
            if self._token_tracking:
                self._tokens.append_array(
                    np.full(n, trace_token, dtype=np.int64)
                )
            self._seq.append_array(
                np.arange(self._next_seq, self._next_seq + n, dtype=np.int64)
            )
            self._next_seq += n
            self.total_in += n
            self._m_in.inc(n)
            if self.wal_sink is not None:
                self._log_ingest(n, stamp)
            shed = self._shed_if_over_capacity()
            self._trim_to_retention()
            self._record_depth()
        return len(rows) - shed

    def insert_columns(
        self,
        columns: Dict[str, np.ndarray],
        timestamp: Optional[float] = None,
        trace_token: int = 0,
    ) -> int:
        """Columnar bulk ingest (receptor fast path).

        ``columns`` covers the user columns only; ``dc_time`` and sequence
        numbers are filled in here.
        """
        stamp = self.clock.now() if timestamp is None else float(timestamp)
        user_names = {c.name.lower() for c in self.user_columns}
        provided = {k.lower() for k in columns}
        if provided != user_names:
            raise BasketError(
                f"bulk insert must cover exactly the user columns "
                f"{sorted(user_names)}, got {sorted(provided)}"
            )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise BasketError("bulk insert arrays differ in length")
        n = lengths.pop()
        with self.lock:
            for name, values in columns.items():
                self.bat(name).append_array(np.asarray(values))
            self.bat(TIME_COLUMN).append_array(np.full(n, stamp))
            if self._stamping:
                self._mono.append_array(np.full(n, time.monotonic()))
            if self._token_tracking:
                self._tokens.append_array(
                    np.full(n, trace_token, dtype=np.int64)
                )
            self._seq.append_array(
                np.arange(self._next_seq, self._next_seq + n, dtype=np.int64)
            )
            self._next_seq += n
            self.total_in += n
            self._m_in.inc(n)
            if self.wal_sink is not None:
                self._log_ingest(n, stamp)
            shed = self._shed_if_over_capacity()
            self._trim_to_retention()
            self._record_depth()
        return n - shed

    def _log_ingest(self, n: int, stamp: float) -> None:
        """WAL the batch just appended (call under ``self.lock``).

        Reads the freshly appended tails so the logged arrays carry the
        coerced storage representation, and runs before shedding so the
        log is the pre-shed ground truth (replay re-sheds identically).
        Only *ingested* batches are logged — factory output appended via
        :meth:`append_result` is derived state, recomputed by replay.
        """
        if n <= 0:
            return
        self.wal_sink.log_insert(
            self.name,
            stamp,
            [(c.name.lower(), c.atom) for c in self.user_columns],
            [self.bat(c.name).tail[-n:] for c in self.user_columns],
        )

    def _shed_if_over_capacity(self) -> int:
        """Drop oldest tuples beyond the capacity watermark (load shedding)."""
        if self.capacity is None or self.count <= self.capacity:
            return 0
        overflow = self.count - self.capacity
        self._rebuild_keeping(np.arange(overflow, self.count, dtype=np.int64))
        self.total_shed += overflow
        self._m_shed.inc(overflow)
        return overflow

    def _trim_to_retention(self) -> int:
        """Ring-buffer retention (call under ``self.lock``): drop oldest
        rows beyond ``retention`` without counting them as shed — this is
        the bounded-history semantics of ``sys.*`` streams, not a load
        response."""
        if self.retention is None or self.count <= self.retention:
            return 0
        overflow = self.count - self.retention
        self._rebuild_keeping(np.arange(overflow, self.count, dtype=np.int64))
        self.total_trimmed += overflow
        return overflow

    # ------------------------------------------------------------------
    # snapshots & consumption
    # ------------------------------------------------------------------
    def snapshot(self, since_seq: Optional[int] = None) -> BasketSnapshot:
        """Current content (optionally only tuples with seq > ``since_seq``).

        Caller should hold the basket lock for a consistent multi-column
        view; factories do (Algorithm 1 locks before reading).
        """
        with self.lock:
            seqs = self._seq.tail.copy()
            if since_seq is None:
                positions = np.arange(len(seqs), dtype=np.int64)
            else:
                positions = np.flatnonzero(seqs > since_seq).astype(np.int64)
            names = [c.name.lower() for c in self.schema]
            bats = [
                self.bat(c.name).take_positions(positions, hseqbase=0)
                for c in self.schema
            ]
            monos = (
                self._mono.tail[positions].copy() if self._stamping else None
            )
            tokens = (
                self._tokens.tail[positions].copy()
                if self._token_tracking
                else None
            )
            return BasketSnapshot(names, bats, seqs[positions], monos, tokens)

    def consume_all(self) -> int:
        """Remove every tuple (the bulk ``basket.empty`` of Algorithm 1)."""
        with self.lock:
            removed = self.count
            self._rebuild_keeping(np.empty(0, dtype=np.int64))
            self.total_out += removed
            self._m_out.inc(removed)
            self._record_depth()
            return removed

    def consume_seqs(self, seqs: np.ndarray) -> int:
        """Remove the tuples with the given sequence numbers.

        This is the basket-expression side effect (§2.6): only referenced
        tuples are removed, leaving a partially emptied basket behind.
        """
        if len(seqs) == 0:
            return 0
        with self.lock:
            current = self._seq.tail
            keep_mask = ~np.isin(current, np.asarray(seqs, dtype=np.int64))
            keep = np.flatnonzero(keep_mask).astype(np.int64)
            removed = self.count - len(keep)
            self._rebuild_keeping(keep)
            self.total_out += removed
            self._m_out.inc(removed)
            self._record_depth()
            return removed

    def _rebuild_keeping(self, positions: np.ndarray) -> None:
        """Swap in a new BAT generation holding only ``positions``."""
        new_bats = {}
        for col in self.schema:
            old = self.bat(col.name)
            new_bats[col.name.lower()] = old.take_positions(
                positions, hseqbase=0
            )
        self._seq = self._seq.take_positions(positions, hseqbase=0)
        if self._stamping:
            self._mono = self._mono.take_positions(positions, hseqbase=0)
        if self._token_tracking:
            self._tokens = self._tokens.take_positions(positions, hseqbase=0)
        self.replace_bats(new_bats)

    def truncate(self) -> int:
        """Table-compatible truncate that also clears sequence numbers."""
        with self.lock:
            removed = self.count
            self._rebuild_keeping(np.empty(0, dtype=np.int64))
            self.total_out += removed
            self._m_out.inc(removed)
            self._record_depth()
            return removed

    def frontier_seq(self) -> int:
        """The highest sequence number ever assigned (-1 when empty)."""
        with self.lock:
            return self._next_seq - 1

    def nbytes(self) -> int:
        """Estimated bytes buffered: every schema column's BAT plus the
        hidden sequence / arrival-stamp / trace-token BATs actually in
        use.  O(columns), inherits the per-BAT estimate contract."""
        with self.lock:
            total = sum(self.bat(c.name).nbytes() for c in self.schema)
            total += self._seq.nbytes()
            if self._stamping:
                total += self._mono.nbytes()
            if self._token_tracking:
                total += self._tokens.nbytes()
            return total

    def row_nbytes(self) -> int:
        """Estimated bytes per buffered tuple — the ``nbytes()`` contract
        divided out.  Column dtypes and the hidden-BAT flags are fixed at
        construction, so the width is computed once and cached; the
        resource accountant charges ``rows * row_nbytes()`` per batch
        without walking columns on the hot path."""
        width = self._row_nbytes
        if width is None:
            with self.lock:
                width = sum(
                    self.bat(c.name).element_nbytes() for c in self.schema
                )
                width += self._seq.element_nbytes()
                if self._stamping:
                    width += self._mono.element_nbytes()
                if self._token_tracking:
                    width += self._tokens.element_nbytes()
            self._row_nbytes = width
        return width

    def state_digest(self) -> str:
        """A stable hash of the basket's observable state.

        Covers buffered rows (all columns including ``dc_time``), their
        sequence numbers, the next-sequence frontier, and every reader
        cursor — everything that determines future scheduling decisions.
        Two baskets with equal digests are indistinguishable to the
        engine, which is how the simulation harness asserts that a
        ``(seed, policy, fault plan)`` episode is bit-reproducible.
        Hidden monotonic stamps are deliberately excluded: they are real
        wall-time and would differ across otherwise identical runs.

        Stability contract (the durability subsystem depends on it):
        the digest is a pure function of ``(next_seq, seq column,
        reader cursors, every schema column tail including dc_time)``
        and of nothing else — not monotonic stamps, not trace tokens,
        not the in/out/shed statistics counters, not BAT capacity or
        generation.  Exporting a basket's state and importing it into a
        same-schema basket therefore reproduces the digest exactly,
        which is how recovery tests assert post-recovery state equals
        the pre-crash checkpoint.  Changing what the digest covers
        invalidates checkpoint-equality comparisons across versions;
        extend it only with state that genuinely alters future engine
        behaviour, and update ``docs/durability.md`` when you do.
        """
        import hashlib

        with self.lock:
            parts: List[str] = [
                repr(self._next_seq),
                repr(self._seq.tail.tolist()),
                repr(sorted(self._readers.items())),
            ]
            for col in self.schema:
                parts.append(col.name.lower())
                parts.append(repr(self.bat(col.name).tail.tolist()))
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    # ------------------------------------------------------------------
    # durability export/import (checkpoint cut <-> recovery restore)
    # ------------------------------------------------------------------
    def export_state(self):
        """Copy everything :meth:`state_digest` covers, for a checkpoint.

        The checkpointer calls this while holding every basket lock (the
        engine-wide cut); the returned arrays are copies, so disk I/O
        can happen after the locks are released.
        """
        from ..durability.checkpoint import BasketState

        with self.lock:
            return BasketState(
                columns=[(c.name.lower(), c.atom) for c in self.schema],
                arrays=[self.bat(c.name).tail.copy() for c in self.schema],
                seqs=self._seq.tail.copy(),
                next_seq=self._next_seq,
                readers=dict(self._readers),
                total_in=self.total_in,
                total_out=self.total_out,
                total_shed=self.total_shed,
            )

    def import_state(self, state) -> None:
        """Replace this basket's content with a checkpointed state.

        The basket must have been created with the same schema (recovery
        restores state into a rebuilt topology, it does not create
        schema).  Hidden monotonic stamps and trace tokens are reborn
        "now"/unsampled: both are explicitly outside the digest's
        stability contract.
        """
        expected = [(c.name.lower(), c.atom) for c in self.schema]
        if list(state.columns) != expected:
            raise BasketError(
                f"basket {self.name!r}: checkpoint schema "
                f"{state.columns} != live schema {expected}"
            )
        with self.lock:
            new_bats: Dict[str, BAT] = {}
            for (col_name, atom), array in zip(state.columns, state.arrays):
                bat = BAT(atom)
                bat.append_array(np.asarray(array))
                new_bats[col_name] = bat
            self.replace_bats(new_bats)
            seq_bat = BAT(AtomType.LNG)
            seq_bat.append_array(np.asarray(state.seqs, dtype=np.int64))
            self._seq = seq_bat
            n = self._seq.count
            if self._stamping:
                self._mono = BAT(AtomType.DBL)
                self._mono.append_array(np.full(n, time.monotonic()))
            if self._token_tracking:
                self._tokens = BAT(AtomType.LNG)
                self._tokens.append_array(np.zeros(n, dtype=np.int64))
            self._next_seq = int(state.next_seq)
            self._readers = dict(state.readers)
            self.total_in = int(state.total_in)
            self.total_out = int(state.total_out)
            self.total_shed = int(state.total_shed)
            self._record_depth()

    # ------------------------------------------------------------------
    # shared-baskets reader protocol (paper §2.5, second strategy)
    # ------------------------------------------------------------------
    def register_reader(self, reader: str) -> None:
        """Register a factory as a shared reader of this basket.

        A new reader sees everything currently buffered plus all future
        tuples; tuples already consumed before registration are gone (a
        newly arriving query joins the live stream, paper §1).
        """
        with self.lock:
            if reader in self._readers:
                raise BasketError(
                    f"reader {reader!r} already registered on {self.name!r}"
                )
            if self.count:
                self._readers[reader] = int(self._seq.tail[0]) - 1
            else:
                self._readers[reader] = self._next_seq - 1

    def unregister_reader(self, reader: str) -> None:
        with self.lock:
            self._readers.pop(reader, None)
            self.gc_shared()

    def readers(self) -> List[str]:
        return list(self._readers)

    def read_new(self, reader: str) -> BasketSnapshot:
        """Tuples this reader has not yet seen (does NOT advance the cursor)."""
        with self.lock:
            if reader not in self._readers:
                raise BasketError(
                    f"reader {reader!r} not registered on {self.name!r}"
                )
            return self.snapshot(since_seq=self._readers[reader])

    def advance_reader(self, reader: str, upto_seq: int) -> None:
        """Mark tuples up to ``upto_seq`` as seen by ``reader``."""
        with self.lock:
            if reader not in self._readers:
                raise BasketError(
                    f"reader {reader!r} not registered on {self.name!r}"
                )
            self._readers[reader] = max(self._readers[reader], int(upto_seq))

    def unseen_count(self, reader: str) -> int:
        """How many buffered tuples the reader has not seen yet."""
        with self.lock:
            if reader not in self._readers:
                raise BasketError(
                    f"reader {reader!r} not registered on {self.name!r}"
                )
            cursor = self._readers[reader]
            return int(np.count_nonzero(self._seq.tail > cursor))

    def gc_shared(self) -> int:
        """Drop tuples every registered reader has seen (low-water mark).

        Implements "the shared baskets strategy removes the tuples from a
        shared input basket only once all relevant factories have seen it".
        Returns the number of tuples physically removed.
        """
        with self.lock:
            if not self._readers or self.count == 0:
                return 0
            low_water = min(self._readers.values())
            keep = np.flatnonzero(self._seq.tail > low_water).astype(np.int64)
            removed = self.count - len(keep)
            if removed:
                self._rebuild_keeping(keep)
                self.total_out += removed
                self._m_out.inc(removed)
                self._record_depth()
            return removed

    # ------------------------------------------------------------------
    def append_result(
        self,
        result: ResultSet,
        timestamp: Optional[float] = None,
        mono: Optional[float] = None,
        trace_token: int = 0,
    ) -> int:
        """Append a factory's result set (user columns) to this basket.

        ``mono`` is the monotonic *origin* stamp to credit the appended
        tuples with: factories pass the earliest arrival stamp of the
        inputs that produced this result, so insert→emit latency survives
        through intermediate baskets.  ``None`` stamps "now" (tuples born
        here).  ``trace_token`` likewise forwards the sampled trace token
        of the inputs so span causality survives basket hops.
        """
        rows_added = result.count
        if rows_added == 0:
            return 0
        user_cols = self.user_columns
        provides_time = len(result.names) == len(user_cols) + 1
        expected = len(user_cols) + (1 if provides_time else 0)
        if len(result.names) != expected:
            raise BasketError(
                f"result arity {len(result.names)} does not match basket "
                f"{self.name!r} ({len(user_cols)} user columns)"
            )
        stamp = self.clock.now() if timestamp is None else float(timestamp)
        with self.lock:
            for col, bat in zip(self.schema, result.bats):
                self.bat(col.name).append_bat(bat)
            if not provides_time:
                self.bat(TIME_COLUMN).append_array(
                    np.full(rows_added, stamp)
                )
            if self._stamping:
                mono_stamp = (
                    time.monotonic() if mono is None else float(mono)
                )
                self._mono.append_array(np.full(rows_added, mono_stamp))
            if self._token_tracking:
                self._tokens.append_array(
                    np.full(rows_added, trace_token, dtype=np.int64)
                )
            self._seq.append_array(
                np.arange(
                    self._next_seq, self._next_seq + rows_added, dtype=np.int64
                )
            )
            self._next_seq += rows_added
            self.total_in += rows_added
            self._m_in.inc(rows_added)
            self._shed_if_over_capacity()
            self._trim_to_retention()
            self._record_depth()
        return rows_added

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Basket({self.name!r}, rows={self.count}, in={self.total_in}, "
            f"out={self.total_out}, readers={len(self._readers)})"
        )
