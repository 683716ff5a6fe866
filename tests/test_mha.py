"""MetaImage reader/writer tests.

The round-trip oracle read(write(v)) == v is the backbone; beyond it the
reader is exercised on hand-frozen minimal files (so the byte layout is
pinned independently of the writer) and on mutated/hostile inputs, where the
contract is: a Volume or an MhaError, never anything else.
"""

import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densect.mha import (
    _CONSUMED_KEYS,
    ELEMENT_TYPES,
    MalformedHeaderError,
    MhaError,
    MhaHeader,
    TruncatedPayloadError,
    UnsupportedTypeError,
    UnsupportedVariantError,
    Volume,
    read_mha,
    to_hounsfield,
    write_mha,
)

MINIMAL = (b"ObjectType = Image\n"
           b"NDims = 3\n"
           b"DimSize = 2 2 1\n"
           b"ElementType = MET_UCHAR\n"
           b"ElementDataFile = LOCAL\n")


def test_minimal_header_hand_frozen():
    vol = read_mha(MINIMAL + bytes([1, 2, 3, 4]))
    assert vol.header.ndims == 3
    assert vol.header.dim_size == [2, 2, 1]
    assert vol.header.element_type == "MET_UCHAR"
    assert not vol.header.compressed
    # x-fastest storage -> internal (z, y, x)
    assert vol.voxels.shape == (1, 2, 2)
    npt.assert_array_equal(vol.voxels[0], [[1, 2], [3, 4]])


def test_defaults_for_optional_keys():
    vol = read_mha(MINIMAL + bytes(4))
    assert vol.header.element_spacing == [1.0, 1.0, 1.0]
    assert vol.header.offset == [0.0, 0.0, 0.0]
    npt.assert_array_equal(np.reshape(vol.header.transform_matrix, (3, 3)), np.eye(3))


def test_short_little_endian_decode_frozen():
    data = (b"ObjectType = Image\nNDims = 1\nDimSize = 1\n"
            b"ElementType = MET_SHORT\nElementDataFile = LOCAL\n\x01\x02")
    assert read_mha(data).voxels[0] == 0x0201


def test_msb_byte_order_honored():
    data = (b"ObjectType = Image\nNDims = 1\nDimSize = 1\n"
            b"ElementType = MET_SHORT\nBinaryDataByteOrderMSB = True\n"
            b"ElementDataFile = LOCAL\n\x01\x02")
    assert read_mha(data).voxels[0] == 0x0102


def test_whitespace_and_crlf_tolerated():
    data = (b"ObjectType=Image\r\nNDims   =   2\r\nDimSize = 2 1\r\n"
            b"ElementType = MET_UCHAR\r\nElementDataFile = LOCAL\r\nAB")
    vol = read_mha(data)
    assert vol.voxels.shape == (1, 2)
    npt.assert_array_equal(vol.voxels[0], [ord("A"), ord("B")])


def test_payload_starts_immediately_after_newline():
    # a payload byte that looks like a header line must not be eaten
    payload = b"X = Y\n\n\n\n"[:4]
    data = (b"ObjectType = Image\nNDims = 1\nDimSize = 4\n"
            b"ElementType = MET_UCHAR\nElementDataFile = LOCAL\n" + payload)
    npt.assert_array_equal(read_mha(data).voxels, np.frombuffer(payload, np.uint8))


# ---------------------------------------------------------------------------
# error taxonomy


@pytest.mark.parametrize("missing", ["ObjectType", "NDims", "DimSize", "ElementType"])
def test_missing_required_key_names_it(missing):
    lines = {
        "ObjectType": b"ObjectType = Image\n",
        "NDims": b"NDims = 1\n",
        "DimSize": b"DimSize = 1\n",
        "ElementType": b"ElementType = MET_UCHAR\n",
    }
    data = b"".join(v for k, v in lines.items() if k != missing)
    data += b"ElementDataFile = LOCAL\n\x00"
    with pytest.raises(MalformedHeaderError, match=missing):
        read_mha(data)


def test_external_data_file_rejected():
    data = MINIMAL.replace(b"= LOCAL", b"= scan.raw") + bytes(4)
    with pytest.raises(UnsupportedVariantError, match="scan.raw"):
        read_mha(data)


def test_unsupported_element_type():
    data = MINIMAL.replace(b"MET_UCHAR", b"MET_ULONG") + bytes(4)
    with pytest.raises(UnsupportedTypeError, match="MET_ULONG"):
        read_mha(data)


def test_truncation_reports_expected_and_actual():
    with pytest.raises(TruncatedPayloadError, match="3 bytes, expected 4"):
        read_mha(MINIMAL + bytes(3))


def test_compressed_garbage_is_structured_error():
    data = MINIMAL.replace(b"ElementDataFile", b"CompressedData = True\nElementDataFile")
    with pytest.raises(TruncatedPayloadError):
        read_mha(data + b"\x99\x99\x99\x99")


def test_compressed_stream_too_short():
    short = zlib.compress(bytes(2))
    data = MINIMAL.replace(b"ElementDataFile", b"CompressedData = True\nElementDataFile")
    with pytest.raises(TruncatedPayloadError, match="inflates to 2"):
        read_mha(data + short)


@pytest.mark.parametrize("bad", [
    b"NDims = 0", b"NDims = -3", b"NDims = 99", b"NDims = 2 2", b"NDims = x",
    b"DimSize = 2 0 1", b"DimSize = 2 -2 1", b"DimSize = 2 2", b"DimSize = a b c",
])
def test_bad_dimensionality_is_malformed(bad):
    key = bad.split(b" ", 1)[0]
    data = b"".join(
        bad + b"\n" if line.startswith(key) else line + b"\n"
        for line in MINIMAL.strip().split(b"\n")
    )
    with pytest.raises(MalformedHeaderError):
        read_mha(data + bytes(8))


def test_giant_dims_refused_before_allocation():
    data = MINIMAL.replace(b"2 2 1", b"100000 100000 100000")
    with pytest.raises(MalformedHeaderError, match="limit"):
        read_mha(data)


def test_duplicate_key_rejected():
    data = b"ObjectType = Image\nObjectType = Image\n" + MINIMAL[len(b"ObjectType = Image\n"):]
    with pytest.raises(MalformedHeaderError, match="duplicate"):
        read_mha(data + bytes(4))


def test_header_without_terminator():
    with pytest.raises(MalformedHeaderError, match="ElementDataFile"):
        read_mha(b"ObjectType = Image\nNDims = 1\n")


def test_line_without_equals():
    with pytest.raises(MalformedHeaderError, match="'='"):
        read_mha(b"ObjectType = Image\ngarbage line\n" + MINIMAL[19:] + bytes(4))


# ---------------------------------------------------------------------------
# round trips


def _random_volume(rng, element_type, ndims=3):
    base = ELEMENT_TYPES[element_type]
    dims = [int(rng.integers(1, 7)) for _ in range(ndims)]
    shape = tuple(dims[::-1])
    if base.startswith("f"):
        arr = rng.standard_normal(shape).astype(base) * 100
    else:
        info = np.iinfo(base)
        arr = rng.integers(info.min, info.max, size=shape, endpoint=True).astype(base)
    vol = Volume.from_array(arr, spacing=[round(float(s), 3) for s in rng.uniform(0.3, 3.0, ndims)],
                            offset=[round(float(o), 3) for o in rng.uniform(-50, 50, ndims)])
    return vol


@pytest.mark.parametrize("element_type", sorted(ELEMENT_TYPES))
@pytest.mark.parametrize("compress", [False, True])
def test_round_trip_bit_exact(element_type, compress):
    rng = np.random.default_rng(hash(element_type) % 2**32 + compress)
    vol = _random_volume(rng, element_type)
    out = read_mha(write_mha(vol, compress=compress))
    assert out.header.element_type == element_type
    assert out.header.dim_size == vol.header.dim_size
    assert out.header.element_spacing == vol.header.element_spacing
    assert out.header.offset == vol.header.offset
    assert out.header.transform_matrix == vol.header.transform_matrix
    assert out.header.compressed == compress
    assert out.voxels.dtype == vol.voxels.dtype
    npt.assert_array_equal(out.voxels, vol.voxels)


def test_write_is_byte_reproducible_and_canonicalizing():
    vol = _random_volume(np.random.default_rng(0), "MET_SHORT")
    a = write_mha(vol)
    b = write_mha(vol)
    assert a == b
    assert write_mha(read_mha(a)) == a


def test_element_data_file_is_last_header_line():
    raw = write_mha(_random_volume(np.random.default_rng(1), "MET_UCHAR"))
    header = raw.split(b"ElementDataFile = LOCAL\n")[0]
    assert raw.count(b"ElementDataFile") == 1
    assert header.endswith(b"CompressedData = False\n")


def test_unrecognized_keys_survive_in_order():
    data = (b"ObjectType = Image\nNDims = 1\nDimSize = 2\n"
            b"AnatomicalOrientation = RAI\nElementType = MET_UCHAR\n"
            b"CustomTag = hello world\nElementDataFile = LOCAL\nAB")
    vol = read_mha(data)
    keys = [k for k in vol.header.raw_fields if k != "ObjectType"]
    assert keys == ["AnatomicalOrientation", "CustomTag"]
    again = read_mha(write_mha(vol))
    assert vol.header.raw_fields == again.header.raw_fields
    text = write_mha(vol).split(b"ElementDataFile")[0]
    assert text.index(b"AnatomicalOrientation") < text.index(b"CustomTag")


def test_writer_drops_raw_fields_under_keys_the_reader_interprets():
    # a raw MSB flag next to the little-endian payload would swap every voxel
    vol = Volume.from_array(np.array([1, 2], dtype=np.int16))
    vol.header.raw_fields["BinaryDataByteOrderMSB"] = "True"
    vol.header.raw_fields["CompressedDataSize"] = "7"
    data = write_mha(vol)
    assert b"BinaryDataByteOrderMSB" not in data and b"CompressedDataSize" not in data
    out = read_mha(data)
    npt.assert_array_equal(out.voxels, [1, 2])
    assert out.header.raw_fields == {"ObjectType": "Image"}


@pytest.mark.parametrize("key, value", [
    ("A=B", "C"), ("Pad", " x "), ("Tab", "x\t"), (" Key", "x"), ("", "x"),
    ("K\u00e9y", "x"), ("Key", "\u00fc"), ("Key", "a\nb"), ("Key", "a\rb"), ("Key\n", "x"),
    ("ObjectType", "Image\nNDims = 9"),
], ids=["eq-in-key", "padded-value", "tab", "padded-key", "empty-key", "non-ascii-key",
        "non-ascii-value", "lf", "cr", "lf-in-key", "object-type-lf"])
def test_writer_refuses_a_raw_field_that_would_not_read_back(key, value):
    vol = Volume.from_array(np.array([1, 2], dtype=np.int16))
    vol.header.raw_fields[key] = value
    with pytest.raises(MhaError, match="read back"):
        write_mha(vol)


_FIELD_TEXT = st.text(st.characters(max_codepoint=0x7F), max_size=10) | st.text(max_size=4)


@given(st.dictionaries(_FIELD_TEXT, _FIELD_TEXT, max_size=4), _FIELD_TEXT)
@example({"CustomTag": "hello world", "Note": "a = b"}, "Image")
@settings(max_examples=200, deadline=None)
def test_written_raw_fields_read_back_or_are_refused(fields, object_type):
    vol = Volume.from_array(np.arange(6, dtype=np.int16).reshape(2, 3))
    raw = {"ObjectType": object_type,
           **{k: v for k, v in fields.items() if k not in _CONSUMED_KEYS}}
    vol.header.raw_fields = dict(raw)
    try:
        data = write_mha(vol)
    except MhaError:
        return
    out = read_mha(data)
    assert out.header.raw_fields == raw
    npt.assert_array_equal(out.voxels, vol.voxels)


def test_from_array_takes_array_spacing_and_offset():
    vol = Volume.from_array(np.zeros((2, 3), dtype=np.uint8),
                            spacing=np.array([0.5, 2.0]), offset=np.zeros(2))
    assert vol.header.element_spacing == [0.5, 2.0]
    assert vol.header.offset == [0.0, 0.0]


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    etype = sorted(ELEMENT_TYPES)[seed % len(ELEMENT_TYPES)]
    vol = _random_volume(rng, etype, ndims=int(rng.integers(1, 4)))
    out = read_mha(write_mha(vol, compress=bool(seed % 2)))
    npt.assert_array_equal(out.voxels, vol.voxels)


# ---------------------------------------------------------------------------
# to_hounsfield


def test_to_hounsfield_identity_without_rescale_keys():
    arr = np.array([[[-1000, 500]]], dtype=np.int16)
    hu = to_hounsfield(Volume.from_array(arr))
    assert hu.voxels.dtype == np.float32
    assert hu.header.element_type == "MET_FLOAT"
    npt.assert_array_equal(hu.voxels, [[[-1000.0, 500.0]]])


def test_to_hounsfield_uchar():
    hu = to_hounsfield(Volume.from_array(np.array([255], dtype=np.uint8)))
    npt.assert_array_equal(hu.voxels, [255.0])


def test_to_hounsfield_applies_rescale():
    vol = Volume.from_array(np.array([1024, 0], dtype=np.int16))
    vol.header.raw_fields["RescaleSlope"] = "1"
    vol.header.raw_fields["RescaleIntercept"] = "-1024"
    hu = to_hounsfield(vol)
    npt.assert_array_equal(hu.voxels, [0.0, -1024.0])
    # consumed, not round-tripped
    assert "RescaleSlope" not in hu.header.raw_fields


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("msb", [False, True])
@pytest.mark.parametrize("wrap", [bytes, bytearray])
def test_read_voxels_are_a_native_writable_copy(compress, msb, wrap):
    arr = np.arange(-30, 30, dtype=np.int16).reshape(3, 4, 5)
    buf = write_mha(Volume.from_array(arr), compress=compress)
    if msb:   # the same voxels stored big-endian
        payload = arr.astype(">i2").tobytes()
        buf = (buf[:buf.index(b"ElementDataFile")] + b"BinaryDataByteOrderMSB = True\n"
               + b"ElementDataFile = LOCAL\n" + (zlib.compress(payload) if compress else payload))
    data = wrap(buf)
    vol = read_mha(data)
    npt.assert_array_equal(vol.voxels, arr)
    assert vol.voxels.dtype.isnative and vol.voxels.flags.writeable
    assert not np.shares_memory(vol.voxels, np.frombuffer(data, dtype=np.uint8))
    vol.voxels[...] = 0
    assert bytes(data) == buf


@pytest.mark.parametrize("dtype", [np.int16, np.uint8])
def test_to_hounsfield_is_bit_identical_to_float32_rescale(dtype):
    info = np.iinfo(dtype)
    arr = np.random.default_rng(3).integers(info.min, info.max, size=(4, 6, 7), endpoint=True)
    vol = Volume.from_array(arr.astype(dtype))
    slope, intercept = 0.37, -1024.25
    vol.header.raw_fields["RescaleSlope"] = repr(slope)
    vol.header.raw_fields["RescaleIntercept"] = repr(intercept)
    want = vol.voxels.astype(np.float32) * np.float32(slope) + np.float32(intercept)
    npt.assert_array_equal(to_hounsfield(vol).voxels, want)


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_to_hounsfield_never_mutates_its_source(dtype):
    arr = np.arange(24, dtype=dtype).reshape(2, 3, 4)
    vol = Volume.from_array(arr.copy())
    vol.header.raw_fields["RescaleSlope"] = "2"
    vol.header.raw_fields["RescaleIntercept"] = "-1024"
    hu = to_hounsfield(vol)
    npt.assert_array_equal(vol.voxels, arr)
    assert not np.shares_memory(hu.voxels, vol.voxels)
    npt.assert_array_equal(hu.voxels, arr.astype(np.float32) * 2 - 1024)


def test_to_hounsfield_header_shares_nothing_with_its_source():
    vol = Volume.from_array(np.arange(24, dtype=np.int16).reshape(2, 3, 4), spacing=[0.5, 0.5, 2.0])
    vol.header.raw_fields["RescaleSlope"] = "1"
    vol.header.raw_fields["Modality"] = "MET_MOD_CT"
    before = write_mha(vol)
    hu = to_hounsfield(vol).header
    for values in (hu.dim_size, hu.element_spacing, hu.offset, hu.transform_matrix):
        values[0] += 1
    hu.raw_fields.clear()
    assert write_mha(vol) == before


@pytest.mark.parametrize("key", ["RescaleSlope", "RescaleIntercept"])
@pytest.mark.parametrize("value", ["", "1 2", "abc", "nan"], ids=["empty", "two", "word", "nan"])
def test_to_hounsfield_rejects_a_rescale_value_that_is_not_one_finite_number(key, value):
    vol = Volume.from_array(np.array([1024, 0], dtype=np.int16))
    vol.header.raw_fields[key] = value
    with pytest.raises(MalformedHeaderError, match=key):
        to_hounsfield(vol)


def test_from_array_rejects_unsupported_dtype():
    with pytest.raises(UnsupportedTypeError):
        Volume.from_array(np.zeros(3, dtype=np.int64))


def test_volume_count_mismatch_rejected():
    header = MhaHeader(ndims=1, dim_size=[5], element_type="MET_UCHAR",
                       element_spacing=[1.0], offset=[0.0], transform_matrix=[1.0])
    with pytest.raises(MhaError):
        Volume(header=header, voxels=np.zeros(3, dtype=np.uint8))


# ---------------------------------------------------------------------------
# fuzz: total parsing


def _mutate(rng, base: bytes) -> bytes:
    choice = rng.integers(0, 6)
    buf = bytearray(base)
    if choice == 0 and len(buf) > 1:          # random byte flips
        for _ in range(int(rng.integers(1, 8))):
            buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
        return bytes(buf)
    if choice == 1:                            # truncate anywhere
        return bytes(buf[:int(rng.integers(0, len(buf) + 1))])
    if choice == 2:                            # inject a random header line
        pos = int(rng.integers(0, 5))
        junk = bytes(rng.integers(32, 127, size=int(rng.integers(0, 30))).astype(np.uint8))
        lines = base.split(b"\n")
        lines.insert(pos, junk)
        return b"\n".join(lines)
    if choice == 3:                            # random ASCII soup
        return bytes(rng.integers(9, 127, size=int(rng.integers(0, 200))).astype(np.uint8))
    if choice == 4:                            # random binary soup
        return bytes(rng.integers(0, 256, size=int(rng.integers(0, 200))).astype(np.uint8))
    # numeric field scrambling
    for token in (b"2 2 1", b"3"):
        repl = str(rng.integers(-10**12, 10**12)).encode()
        buf = bytearray(bytes(buf).replace(token, repl, 1))
    return bytes(buf)


def test_fuzz_reader_is_total():
    rng = np.random.default_rng(1234)
    base = MINIMAL + bytes([1, 2, 3, 4])
    compressed = write_mha(read_mha(base), compress=True)
    outcomes = {"volume": 0, "error": 0}
    for i in range(800):
        data = _mutate(rng, base if i % 2 else compressed)
        try:
            vol = read_mha(data)
            assert isinstance(vol, Volume)
            outcomes["volume"] += 1
        except MhaError:
            outcomes["error"] += 1
    # sanity: the corpus actually exercised both paths
    assert outcomes["error"] > 100
    assert outcomes["volume"] + outcomes["error"] == 800
