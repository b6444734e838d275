"""Fuzzing the byte decoders that face untrusted input.

``decode_column`` (WAL, checkpoints, wire column blocks),
``decode_payload`` (one wire frame's contents) and
``FrameDecoder.feed`` (a socket's byte stream) must answer every input
with either a valid decode or a typed error — ``DurabilityError`` from
the column codec, ``ProtocolError`` from the wire layer — never another
exception and never an allocation sized by an unchecked count.  Valid
encodings are cut at arbitrary chunk boundaries, truncated, and
bit-flipped; flipped payloads are also re-framed with a fresh CRC so
the damage reaches the payload decoder instead of stopping at the
checksum.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.serde import (
    FRAME_HEADER,
    decode_column,
    encode_column,
    pack_frame,
)
from repro.errors import DurabilityError, ProtocolError
from repro.kernel.types import AtomType, numpy_dtype
from repro.server.protocol import (
    Command,
    FrameDecoder,
    Message,
    decode_payload,
    encode_message,
    insert_message,
)

FUZZ = settings(max_examples=60, deadline=None)
ATOMS = list(AtomType)
COLUMNS = [("k", AtomType.INT), ("v", AtomType.DBL), ("s", AtomType.STR)]

rows = st.lists(
    st.tuples(
        st.integers(-(2**31) + 1, 2**31 - 1),
        st.floats(allow_nan=False),
        st.one_of(st.none(), st.text(max_size=8)),
    ),
    max_size=6,
)


def column_values(atom):
    if atom is AtomType.STR:
        return st.lists(st.one_of(st.none(), st.text(max_size=6)), max_size=6)
    if atom in (AtomType.DBL, AtomType.TIMESTAMP):
        return st.lists(st.floats(allow_nan=False), max_size=6)
    bits = {AtomType.BOOL: 7, AtomType.INT: 31}.get(atom, 63)
    return st.lists(st.integers(-(2**bits) + 1, 2**bits - 1), max_size=6)


@st.composite
def encoded_columns(draw):
    atom = draw(st.sampled_from(ATOMS))
    values = draw(column_values(atom))
    if atom is AtomType.STR:
        array = np.empty(len(values), dtype=object)
        array[:] = values
    else:
        array = np.array(values, dtype=numpy_dtype(atom))
    return atom, encode_column(atom, array)


def damage(data, draw):
    """Flip one bit of ``data`` or cut it short (or both)."""
    out = bytearray(data)
    if out and draw(st.booleans()):
        at = draw(st.integers(0, len(out) - 1))
        out[at] ^= 1 << draw(st.integers(0, 7))
    if draw(st.booleans()):
        out = out[: draw(st.integers(0, len(out)))]
    return bytes(out)


def decode_column_or_typed_error(atom, payload):
    try:
        out = decode_column(atom, payload)
    except DurabilityError:
        return None
    # a decode never yields more values than the payload could carry
    assert len(out) <= max(0, len(payload) - 8)
    return out


# ----------------------------------------------------------------------
# decode_column
# ----------------------------------------------------------------------
@FUZZ
@given(st.sampled_from(ATOMS), st.binary(max_size=64))
def test_decode_column_arbitrary_bytes(atom, payload):
    decode_column_or_typed_error(atom, payload)


@FUZZ
@given(encoded_columns(), st.data())
def test_decode_column_damaged_encodings(column, data):
    atom, payload = column
    decode_column_or_typed_error(atom, damage(payload, data.draw))


@FUZZ
@given(st.sampled_from(ATOMS), st.integers(2**60, 2**64 - 1),
       st.binary(max_size=32))
def test_decode_column_huge_count_is_rejected(atom, count, tail):
    payload = struct.pack("<Q", count) + tail
    try:
        decode_column(atom, payload)
    except DurabilityError:
        return
    raise AssertionError(f"count {count} over {len(tail)} bytes decoded")


# ----------------------------------------------------------------------
# decode_payload
# ----------------------------------------------------------------------
def decode_payload_or_typed_error(payload):
    try:
        message = decode_payload(payload)
    except ProtocolError:
        return None
    assert isinstance(message, Message)
    return message


@FUZZ
@given(st.binary(max_size=96))
def test_decode_payload_arbitrary_bytes(payload):
    decode_payload_or_typed_error(payload)


@FUZZ
@given(rows, st.data())
def test_decode_payload_damaged_insert(batch, data):
    frame = encode_message(insert_message("feed", COLUMNS, batch, seq=1))
    payload = frame[FRAME_HEADER.size:]
    decode_payload_or_typed_error(damage(payload, data.draw))


def test_decode_payload_deeply_nested_meta_is_a_protocol_error():
    meta = b"[" * 100_000
    payload = struct.pack("<BI", int(Command.PING), len(meta)) + meta
    assert decode_payload_or_typed_error(payload) is None


# ----------------------------------------------------------------------
# FrameDecoder.feed
# ----------------------------------------------------------------------
@FUZZ
@given(st.lists(rows, min_size=1, max_size=3), st.data())
def test_feed_any_chunking_decodes_the_same_messages(batches, data):
    stream = b"".join(
        encode_message(insert_message("feed", COLUMNS, b, seq=i))
        for i, b in enumerate(batches)
    )
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(stream)), max_size=8)
    ))
    decoder = FrameDecoder()
    got = []
    for start, end in zip([0] + cuts, cuts + [len(stream)]):
        got.extend(decoder.feed(stream[start:end]))
    assert [m.meta["seq"] for m in got] == list(range(len(batches)))
    assert [len(m.rows()) for m in got] == [len(b) for b in batches]
    assert decoder.pending_bytes == 0


@FUZZ
@given(rows, st.booleans(), st.integers(1, 32), st.data())
def test_feed_damaged_frames_decode_or_raise(batch, reframe, chunk, data):
    frame = encode_message(insert_message("feed", COLUMNS, batch, seq=7))
    if reframe:
        # fresh CRC: the damage reaches decode_payload
        frame = pack_frame(damage(frame[FRAME_HEADER.size:], data.draw))
    else:
        frame = damage(frame, data.draw)
    limit = 512
    decoder = FrameDecoder(max_frame_bytes=limit)
    try:
        for i in range(0, len(frame), chunk):
            for message in decoder.feed(frame[i : i + chunk]):
                assert isinstance(message, Message)
            # never buffers more than one frame within the limit
            assert decoder.pending_bytes <= FRAME_HEADER.size + limit
    except ProtocolError:
        pass


@FUZZ
@given(st.integers(513, 2**64 - 1), st.binary(max_size=16))
def test_feed_refuses_oversized_frame_before_buffering(length, body):
    decoder = FrameDecoder(max_frame_bytes=512)
    header = FRAME_HEADER.pack(0, length)
    try:
        decoder.feed(header + body)
    except ProtocolError:
        return
    raise AssertionError(f"{length}-byte frame accepted past the limit")
