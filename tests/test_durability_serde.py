"""Round-trip property of the durability wire format.

Every atom type the kernel stores must survive
``encode_column``/``decode_column`` exactly — including the in-domain
NIL sentinels (the wire format has no validity bitmap on purpose),
empty columns, and the object-dtype STR representation.  The frame
layer must detect corruption anywhere in a payload and treat a short
tail as torn, never as data.
"""

import struct

import numpy as np
import pytest

from repro.durability.serde import (
    decode_column,
    encode_column,
    frames_with_tail,
    iter_frames,
    pack_frame,
    unpack_frame,
)
from repro.errors import DurabilityError
from repro.kernel.types import (
    BOOL_NIL,
    INT_NIL,
    LNG_NIL,
    OID_NIL,
    AtomType,
    numpy_dtype,
)

FIXED_CASES = [
    (AtomType.OID, [0, 7, int(OID_NIL), 2**40]),
    (AtomType.BOOL, [1, 0, int(BOOL_NIL), 1]),
    (AtomType.INT, [-3, 0, int(INT_NIL), 2**30]),
    (AtomType.LNG, [-(2**62), 0, int(LNG_NIL), 5]),
    (AtomType.DBL, [1.5, -0.25, float("nan"), 1e300]),
    (AtomType.TIMESTAMP, [0.0, 1700000000.25, float("nan")]),
]


@pytest.mark.parametrize(
    "atom,values", FIXED_CASES, ids=[a.value for a, _ in FIXED_CASES]
)
def test_fixed_atom_round_trip_preserves_nil_sentinels(atom, values):
    array = np.array(values, dtype=numpy_dtype(atom))
    out = decode_column(atom, encode_column(atom, array))
    assert out.dtype == numpy_dtype(atom)
    assert np.array_equal(out, array, equal_nan=atom in (
        AtomType.DBL, AtomType.TIMESTAMP
    ))


@pytest.mark.parametrize(
    "atom", [a for a, _ in FIXED_CASES] + [AtomType.STR],
    ids=[a.value for a, _ in FIXED_CASES] + ["str"],
)
def test_empty_column_round_trip(atom):
    array = np.empty(0, dtype=numpy_dtype(atom))
    out = decode_column(atom, encode_column(atom, array))
    assert out.dtype == numpy_dtype(atom)
    assert len(out) == 0


def test_str_round_trip_none_nil_unicode_and_empty_string():
    array = np.empty(5, dtype=object)
    array[:] = ["plain", None, "", "naïve — ünïcødé", "x" * 1000]
    out = decode_column(AtomType.STR, encode_column(AtomType.STR, array))
    assert out.dtype == np.dtype(object)
    assert list(out) == list(array)


def test_str_accepts_plain_python_list():
    out = decode_column(
        AtomType.STR, encode_column(AtomType.STR, ["a", None, "b"])
    )
    assert list(out) == ["a", None, "b"]


def test_decode_rejects_truncated_fixed_payload():
    payload = encode_column(AtomType.LNG, np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(DurabilityError):
        decode_column(AtomType.LNG, payload[:-4])


def test_decode_rejects_truncated_str_payload():
    payload = encode_column(AtomType.STR, ["hello", "world"])
    with pytest.raises(DurabilityError):
        decode_column(AtomType.STR, payload[:-3])


def test_decode_rejects_str_count_beyond_payload():
    # the u64 count is untrusted: it must be checked against what the
    # payload can hold before the decoder sizes anything from it
    for count in (2**60, 2**62):
        with pytest.raises(DurabilityError):
            decode_column(AtomType.STR, struct.pack("<Q", count))


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def test_frame_round_trip_and_sequencing():
    buffer = pack_frame(b"one") + pack_frame(b"two") + pack_frame(b"three")
    assert list(iter_frames(buffer)) == [b"one", b"two", b"three"]
    payloads, torn = frames_with_tail(buffer)
    assert payloads == [b"one", b"two", b"three"]
    assert torn is False


def test_short_tail_is_torn_not_data():
    buffer = pack_frame(b"keep") + pack_frame(b"lost-in-crash")[:-2]
    payloads, torn = frames_with_tail(buffer)
    assert payloads == [b"keep"]
    assert torn is True


def test_corrupt_byte_anywhere_stops_the_read():
    frames = [pack_frame(f"rec{i}".encode()) for i in range(4)]
    buffer = b"".join(frames)
    # flip one byte inside the third frame's payload
    position = len(frames[0]) + len(frames[1]) + len(frames[2]) - 1
    corrupted = (
        buffer[:position]
        + bytes([buffer[position] ^ 0xFF])
        + buffer[position + 1 :]
    )
    payloads, torn = frames_with_tail(corrupted)
    assert payloads == [b"rec0", b"rec1"]
    assert torn is True


def test_unpack_frame_none_on_short_header():
    assert unpack_frame(b"\x01\x02", 0) is None
