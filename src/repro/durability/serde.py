"""Binary columnar serialization for the durability subsystem.

Both the WAL and the checkpoint store basket columns in the same framed
columnar encoding, built directly on the kernel's atom storage
(:mod:`repro.kernel.types`):

* fixed-width atoms (``OID``/``BOOL``/``INT``/``LNG``/``DBL``/
  ``TIMESTAMP``) are written as ``<u64 count>`` followed by the raw
  little-endian array bytes — NIL sentinels are in-domain values, so
  they round-trip without any validity bitmap;
* ``STR`` tails are object arrays of python strings (or ``None`` for
  NIL), written as ``<u64 count>`` then, per value, ``<u32 byte
  length><utf-8 bytes>`` with length ``0xFFFFFFFF`` reserved for NIL.

Every record on disk is a *frame*::

    <u32 crc32 of payload> <u64 payload length> <payload bytes>

A frame whose length field runs past the end of the file, or whose CRC
does not match, marks the torn tail of a log cut short by a crash;
readers stop there and keep the valid prefix (see
:func:`iter_frames`).
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import DurabilityError
from ..kernel.types import AtomType, numpy_dtype

__all__ = [
    "encode_column",
    "decode_column",
    "pack_frame",
    "unpack_frame",
    "iter_frames",
    "frames_with_tail",
    "FRAME_HEADER",
]

FRAME_HEADER = struct.Struct("<IQ")  # crc32, payload length
_COUNT = struct.Struct("<Q")
_STRLEN = struct.Struct("<I")
STR_NIL_LENGTH = 0xFFFFFFFF

# on-disk byte order is fixed little-endian regardless of platform
_WIRE_DTYPES = {
    AtomType.OID: np.dtype("<i8"),
    AtomType.BOOL: np.dtype("<i1"),
    AtomType.INT: np.dtype("<i4"),
    AtomType.LNG: np.dtype("<i8"),
    AtomType.DBL: np.dtype("<f8"),
    AtomType.TIMESTAMP: np.dtype("<f8"),
}


# ----------------------------------------------------------------------
# columns
# ----------------------------------------------------------------------
def encode_column(atom: AtomType, values: np.ndarray) -> bytes:
    """Serialize one column tail (storage representation) to bytes."""
    values = np.asarray(values)
    if atom is AtomType.STR:
        parts: List[bytes] = [_COUNT.pack(len(values))]
        for value in values:
            if value is None:
                parts.append(_STRLEN.pack(STR_NIL_LENGTH))
                continue
            raw = str(value).encode("utf-8")
            if len(raw) >= STR_NIL_LENGTH:
                raise DurabilityError(
                    f"string of {len(raw)} bytes exceeds the wire format"
                )
            parts.append(_STRLEN.pack(len(raw)))
            parts.append(raw)
        return b"".join(parts)
    wire = _WIRE_DTYPES[atom]
    array = np.ascontiguousarray(values, dtype=wire)
    return _COUNT.pack(len(array)) + array.tobytes()


def decode_column(atom: AtomType, payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_column`; returns a storage-dtype array."""
    if len(payload) < _COUNT.size:
        raise DurabilityError("column payload shorter than its count header")
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    if atom is AtomType.STR:
        # every value carries at least its length prefix: an untrusted
        # count beyond that bound is rejected before anything is sized
        if count > (len(payload) - offset) // _STRLEN.size:
            raise DurabilityError(
                f"STR column payload cannot hold {count} values"
            )
        out = np.empty(count, dtype=object)
        for i in range(count):
            if len(payload) < offset + _STRLEN.size:
                raise DurabilityError("truncated STR column payload")
            (length,) = _STRLEN.unpack_from(payload, offset)
            offset += _STRLEN.size
            if length == STR_NIL_LENGTH:
                out[i] = None
                continue
            if len(payload) < offset + length:
                raise DurabilityError("truncated STR column payload")
            try:
                out[i] = payload[offset : offset + length].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DurabilityError(f"bad STR column value: {exc}") from None
            offset += length
        return out
    wire = _WIRE_DTYPES[atom]
    expected = offset + count * wire.itemsize
    if len(payload) < expected:
        raise DurabilityError(
            f"{atom.value} column payload holds fewer than {count} values"
        )
    array = np.frombuffer(payload, dtype=wire, count=count, offset=offset)
    return array.astype(numpy_dtype(atom), copy=True)


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def pack_frame(payload: bytes) -> bytes:
    """Wrap a payload in the CRC32-checksummed on-disk frame."""
    return FRAME_HEADER.pack(
        zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    ) + payload


def unpack_frame(buffer: bytes, offset: int) -> Optional[Tuple[bytes, int]]:
    """Parse one frame at ``offset``; ``None`` on a torn/corrupt frame.

    Returns ``(payload, next_offset)`` for a complete, checksum-valid
    frame.  A short header, short payload, or CRC mismatch all return
    ``None`` — the caller treats everything from ``offset`` on as the
    torn tail.
    """
    if len(buffer) < offset + FRAME_HEADER.size:
        return None
    crc, length = FRAME_HEADER.unpack_from(buffer, offset)
    start = offset + FRAME_HEADER.size
    end = start + length
    if len(buffer) < end:
        return None
    payload = buffer[start:end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    return payload, end


def iter_frames(buffer: bytes, offset: int = 0) -> Iterator[bytes]:
    """Yield checksum-valid payloads until EOF or the first bad frame.

    The prefix property of an append-only log makes this safe: a frame
    after a corrupt one cannot have been durable before it, so stopping
    at the first failure never drops acknowledged data.
    """
    while offset < len(buffer):
        parsed = unpack_frame(buffer, offset)
        if parsed is None:
            return
        payload, offset = parsed
        yield payload


def frames_with_tail(buffer: bytes) -> Tuple[List[bytes], bool]:
    """All valid payloads plus whether a torn/corrupt tail was cut off."""
    payloads: List[bytes] = []
    offset = 0
    while offset < len(buffer):
        parsed = unpack_frame(buffer, offset)
        if parsed is None:
            return payloads, True
        payload, offset = parsed
        payloads.append(payload)
    return payloads, False
