"""The repro.server wire protocol: CRC frames around columnar payloads.

Every message on the wire is one :func:`repro.durability.serde.pack_frame`
frame — ``<u32 crc32><u64 length><payload>`` — exactly the format the WAL
uses on disk, so torn and corrupt frames are detected the same way at
both edges of the engine.  Inside the frame::

    <u8 command> <u32 meta length> <meta JSON, utf-8> <column blocks...>

``meta`` is a small JSON object (command arguments: basket names, SQL
text, sequence numbers).  Commands that carry tuples (``INSERT`` and
``DATA``) append one block per column — ``<u32 byte length>`` followed by
:func:`repro.durability.serde.encode_column` output — with the column
names and atom types listed in ``meta["columns"]`` as ``[name, atom]``
pairs.  Integers are little-endian throughout, like the durability
formats.

The :class:`FrameDecoder` is the stateful inverse: feed it arbitrary
byte chunks from a socket and it yields complete messages, raising
:class:`~repro.errors.ProtocolError` on a corrupt frame (a *stream* has
no torn-tail recovery — a bad CRC means the connection is poisoned).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..durability.serde import (
    FRAME_HEADER,
    decode_column,
    encode_column,
    pack_frame,
)
from ..errors import ProtocolError
from ..kernel.types import AtomType, numpy_dtype, python_values

__all__ = [
    "PROTOCOL_VERSION",
    "Command",
    "Message",
    "FrameDecoder",
    "encode_message",
    "decode_payload",
    "arrays_from_rows",
    "rows_from_arrays",
    "data_message",
    "insert_message",
    "error_message",
]

PROTOCOL_VERSION = 1

#: Refuse frames larger than this before buffering them: a corrupt
#: length field must not make the decoder allocate unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("<BI")  # command, meta length
_COLUMN = struct.Struct("<I")  # encoded column block length

Row = Tuple[Any, ...]
ColumnSpec = Tuple[str, AtomType]


class Command(IntEnum):
    """Wire opcodes (see docs/server.md for the command table)."""

    HELLO = 1  # client → server: version + tenant + client name
    HELLO_OK = 2  # server → client: session granted
    CREATE = 3  # client → server: DDL (create basket/table)
    INSERT = 4  # client → server: batched columnar ingest
    SUBSCRIBE = 5  # client → server: register/attach a continuous query
    UNSUBSCRIBE = 6  # client → server: detach a subscription
    PING = 7  # client → server: liveness probe
    PONG = 8  # server → client: probe reply
    DATA = 9  # server → client: delivered result rows
    ACK = 10  # server → client: command completed
    ERROR = 11  # server → client: command failed / session fault
    BYE = 12  # either direction: orderly close


@dataclass
class Message:
    """One decoded protocol message.

    ``columns``/``arrays`` are only populated for tuple-bearing commands
    (``INSERT``/``DATA``); arrays hold the kernel's storage
    representation, exactly what :mod:`repro.durability.serde` encodes.
    """

    command: Command
    meta: Dict[str, Any] = field(default_factory=dict)
    columns: Optional[List[ColumnSpec]] = None
    arrays: Optional[List[np.ndarray]] = None

    def rows(self) -> List[Row]:
        """Tuple payload as python rows (NILs become ``None``)."""
        if not self.columns or self.arrays is None:
            return []
        return rows_from_arrays(self.columns, self.arrays)

    @property
    def row_count(self) -> int:
        if self.arrays:
            return int(len(self.arrays[0]))
        return 0


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_message(message: Message) -> bytes:
    """Serialize a message into one complete CRC frame."""
    meta = dict(message.meta)
    if message.columns is not None:
        meta["columns"] = [
            [name, atom.value] for name, atom in message.columns
        ]
    raw_meta = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    parts = [_HEADER.pack(int(message.command), len(raw_meta)), raw_meta]
    if message.columns is not None:
        arrays = message.arrays if message.arrays is not None else []
        if len(arrays) != len(message.columns):
            raise ProtocolError(
                f"message carries {len(message.columns)} column specs "
                f"but {len(arrays)} arrays"
            )
        for (_, atom), array in zip(message.columns, arrays):
            block = encode_column(atom, array)
            parts.append(_COLUMN.pack(len(block)))
            parts.append(block)
    return pack_frame(b"".join(parts))


def decode_payload(payload: bytes) -> Message:
    """Inverse of :func:`encode_message` (payload = frame contents)."""
    if len(payload) < _HEADER.size:
        raise ProtocolError("frame payload shorter than its header")
    opcode, meta_len = _HEADER.unpack_from(payload, 0)
    try:
        command = Command(opcode)
    except ValueError:
        raise ProtocolError(f"unknown command opcode {opcode}") from None
    offset = _HEADER.size
    if len(payload) < offset + meta_len:
        raise ProtocolError("frame payload shorter than its metadata")
    try:
        meta = json.loads(payload[offset : offset + meta_len])
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8 and bad JSON; RecursionError a
        # nesting depth the parser cannot follow
        raise ProtocolError(f"bad frame metadata: {exc}") from None
    if not isinstance(meta, dict):
        raise ProtocolError("frame metadata must be a JSON object")
    offset += meta_len
    columns: Optional[List[ColumnSpec]] = None
    arrays: Optional[List[np.ndarray]] = None
    if "columns" in meta:
        try:
            columns = [
                (str(name), AtomType(atom))
                for name, atom in meta.pop("columns")
            ]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad column spec: {exc}") from None
        arrays = []
        for name, atom in columns:
            if len(payload) < offset + _COLUMN.size:
                raise ProtocolError(f"truncated column block {name!r}")
            (length,) = _COLUMN.unpack_from(payload, offset)
            offset += _COLUMN.size
            if len(payload) < offset + length:
                raise ProtocolError(f"truncated column block {name!r}")
            try:
                arrays.append(
                    decode_column(atom, payload[offset : offset + length])
                )
            except Exception as exc:
                raise ProtocolError(
                    f"bad column block {name!r}: {exc}"
                ) from None
            offset += length
        counts = {len(a) for a in arrays}
        if len(counts) > 1:
            raise ProtocolError(f"misaligned column blocks: {counts}")
    return Message(command, meta, columns, arrays)


# ----------------------------------------------------------------------
# row ↔ array conversion
# ----------------------------------------------------------------------
def arrays_from_rows(
    columns: Sequence[ColumnSpec], rows: Sequence[Sequence[Any]]
) -> List[np.ndarray]:
    """Python rows → storage arrays, one per column.

    ``None`` is accepted for STR columns only; numeric NILs must be
    passed as their in-domain sentinel values (the serde contract).
    """
    if rows:
        pivot = list(zip(*rows))
        if len(pivot) != len(columns):
            raise ProtocolError(
                f"rows have {len(pivot)} fields, schema has {len(columns)}"
            )
    else:
        pivot = [() for _ in columns]
    out: List[np.ndarray] = []
    for (name, atom), values in zip(columns, pivot):
        try:
            if atom is AtomType.STR:
                array = np.empty(len(values), dtype=object)
                for i, value in enumerate(values):
                    array[i] = None if value is None else str(value)
            else:
                array = np.asarray(values, dtype=numpy_dtype(atom))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"column {name!r} rejects the given values: {exc}"
            ) from None
        out.append(array)
    return out


def rows_from_arrays(
    columns: Sequence[ColumnSpec], arrays: Sequence[np.ndarray]
) -> List[Row]:
    """Storage arrays → python rows (inverse of :func:`arrays_from_rows`)."""
    cols = [
        python_values(atom, array) for (_, atom), array in zip(columns, arrays)
    ]
    return list(zip(*cols))


# ----------------------------------------------------------------------
# message builders (the handful used on hot paths)
# ----------------------------------------------------------------------
def insert_message(
    basket: str,
    columns: Sequence[ColumnSpec],
    rows: Sequence[Sequence[Any]],
    seq: Optional[int] = None,
) -> Message:
    meta: Dict[str, Any] = {"basket": basket}
    if seq is not None:
        meta["seq"] = int(seq)
    return Message(
        Command.INSERT, meta, list(columns), arrays_from_rows(columns, rows)
    )


def data_message(
    query: str,
    columns: Sequence[ColumnSpec],
    rows: Sequence[Sequence[Any]],
) -> Message:
    return Message(
        Command.DATA,
        {"query": query},
        list(columns),
        arrays_from_rows(columns, rows),
    )


def error_message(
    code: str, text: str, seq: Optional[int] = None
) -> Message:
    meta: Dict[str, Any] = {"code": code, "message": text}
    if seq is not None:
        meta["seq"] = int(seq)
    return Message(Command.ERROR, meta)


class FrameDecoder:
    """Incremental frame reassembly over a byte stream.

    Unlike the durability readers (which treat a bad frame as the torn
    tail of a crashed log), a live stream has no valid continuation
    after a corrupt frame — :meth:`feed` raises
    :class:`~repro.errors.ProtocolError` and the connection should be
    dropped.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_fed = 0

    def feed(self, data: bytes) -> List[Message]:
        """Absorb ``data``; return every newly completed message."""
        self._buffer.extend(data)
        self.bytes_fed += len(data)
        out: List[Message] = []
        offset = 0
        buffer = self._buffer
        while len(buffer) - offset >= FRAME_HEADER.size:
            crc, length = FRAME_HEADER.unpack_from(buffer, offset)
            if length > self.max_frame_bytes:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            start = offset + FRAME_HEADER.size
            if len(buffer) < start + length:
                break  # incomplete: wait for more bytes
            payload = bytes(buffer[start : start + length])
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise ProtocolError("frame CRC mismatch")
            out.append(decode_payload(payload))
            self.frames_decoded += 1
            offset = start + length
        if offset:
            del buffer[:offset]
        return out

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
