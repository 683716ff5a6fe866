"""MetaImage reader/writer tests.

The round-trip oracle read(write(v)) == v is the backbone; beyond it the
reader is exercised on hand-frozen minimal files (so the byte layout is
pinned independently of the writer) and on mutated/hostile inputs, where the
contract is: a Volume or an MhaError, never anything else.
"""

import io
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densect.mha import (
    _CONSUMED_KEYS,
    _DTYPE_TO_ELEMENT,
    _MAX_HEADER_FIELDS,
    ELEMENT_TYPES,
    MalformedHeaderError,
    MhaError,
    MhaHeader,
    TruncatedPayloadError,
    UnsupportedTypeError,
    UnsupportedVariantError,
    Volume,
    read_mha_file,
    to_hounsfield,
    write_mha,
    write_mha_file,
)
from bytes_io import read_mha

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


def test_a_refused_file_write_leaves_the_path_as_it_was(tmp_path):
    good = Volume.from_array(np.array([1, 2], dtype=np.int16))
    bad = Volume.from_array(np.array([1, 2], dtype=np.int16))
    bad.header.raw_fields["Bad Key "] = "x"
    existing, absent = tmp_path / "existing.mha", tmp_path / "absent.mha"
    write_mha_file(str(existing), good)
    before = existing.read_bytes()
    for path in (existing, absent):
        with pytest.raises(MhaError, match="read back"):
            write_mha_file(str(path), bad)
    assert existing.read_bytes() == before
    assert not absent.exists()


def test_writer_refuses_a_header_the_reader_would_refuse():
    def volume(extra):
        vol = Volume.from_array(np.arange(4, dtype=np.uint8).reshape(2, 2))
        vol.header.raw_fields.update({f"Tag{i:03d}": str(i) for i in range(extra)})
        return vol

    header_lines = write_mha(volume(0)).split(b"\n")
    canonical = header_lines.index(b"ElementDataFile = LOCAL")
    fits = _MAX_HEADER_FIELDS - canonical
    out = read_mha(write_mha(volume(fits)))
    assert out.header.raw_fields == volume(fits).header.raw_fields
    npt.assert_array_equal(out.voxels, [[0, 1], [2, 3]])
    with pytest.raises(MhaError, match=f"at most {_MAX_HEADER_FIELDS}"):
        write_mha(volume(fits + 1))


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
# file reader: read_mha_file(path) is read_mha(bytes of path)


def _stored(arr, compress=False, msb=False, padding=0):
    """``arr`` as .mha bytes, its payload little- or big-endian, raw or zlib,
    with ``padding`` header bytes in 128 lines of equal length."""
    header = (f"ObjectType = Image\nNDims = {arr.ndim}\n"
              f"DimSize = {' '.join(str(d) for d in arr.shape[::-1])}\n"
              f"ElementType = {_DTYPE_TO_ELEMENT[arr.dtype]}\n"
              + "".join(f"Tag{i:03d} = {'x' * (padding // 128 - 10)}\n"
                        for i in range(128 if padding else 0))
              + ("BinaryDataByteOrderMSB = True\n" if msb else "")
              + ("CompressedData = True\n" if compress else "")
              + "ElementDataFile = LOCAL\n").encode("ascii")
    payload = arr.astype(arr.dtype.newbyteorder(">" if msb else "<")).tobytes()
    return header + (zlib.compress(payload) if compress else payload)


def _outcome(read, source):
    """What a reader makes of ``source``: the volume's bits, or the error."""
    try:
        vol = read(source)
    except MhaError as e:
        return type(e), str(e)
    v = vol.voxels
    return (v.dtype.str, v.dtype.isnative, v.flags.writeable, v.shape, v.tobytes(),
            repr(vol.header))


def _both_readers(tmp_path, data):
    path = tmp_path / "volume.mha"
    path.write_bytes(data)
    return _outcome(read_mha, data), _outcome(read_mha_file, str(path))


def _awkward_voxels(element_type, rng, shape=(3, 5, 4)):
    base = ELEMENT_TYPES[element_type]
    bits = rng.integers(0, 256, size=int(np.prod(shape)) * np.dtype(base).itemsize, dtype=np.uint8)
    arr = bits.view(base).reshape(shape).copy()   # every bit pattern, NaN payloads included
    if base.startswith("f"):
        arr.flat[:4] = [-0.0, np.inf, -np.inf, np.nan]
    return arr


@pytest.mark.parametrize("padding", [0, 2 * io.DEFAULT_BUFFER_SIZE], ids=["short", "long-header"])
@pytest.mark.parametrize("compress", [False, True], ids=["raw", "zlib"])
@pytest.mark.parametrize("msb", [False, True], ids=["lsb", "msb"])
@pytest.mark.parametrize("element_type", sorted(ELEMENT_TYPES))
def test_read_mha_file_equals_read_mha(tmp_path, element_type, msb, compress, padding):
    arr = _awkward_voxels(element_type, np.random.default_rng(len(element_type) + 2 * msb))
    data = _stored(arr, compress, msb, padding)
    if padding:
        assert data.index(b"ElementDataFile") > 2 * io.DEFAULT_BUFFER_SIZE
    from_bytes, from_file = _both_readers(tmp_path, data)
    assert from_bytes == from_file
    dtype, native, writeable, shape, bits, _ = from_file
    assert native and writeable and shape == arr.shape
    assert np.dtype(dtype) == np.dtype(ELEMENT_TYPES[element_type])
    assert bits == arr.astype(np.dtype(dtype)).tobytes()


_VALID = _stored(np.arange(24, dtype=np.int16).reshape(2, 3, 4))
_VALID_ZLIB = _stored(np.arange(24, dtype=np.int16).reshape(2, 3, 4), compress=True)


@pytest.mark.parametrize("data, error, message", [
    (_VALID[:-1], TruncatedPayloadError, "payload is 47 bytes, expected 48"),
    (_VALID[:_VALID.index(b"LOCAL\n") + 6], TruncatedPayloadError, "payload is 0 bytes"),
    (_VALID[:_VALID.index(b"LOCAL\n") + 5], MalformedHeaderError, "without an ElementDataFile"),
    (_VALID_ZLIB.replace(b"DimSize = 4 3 2", b"DimSize = 4 3 3"), TruncatedPayloadError,
     "inflates to 48 bytes, expected 72"),
    (_VALID_ZLIB[:-9], TruncatedPayloadError, "inflates to"),
    (_VALID_ZLIB[:-4] + b"\0\0\0\0", TruncatedPayloadError, "does not inflate"),
    (b"", MalformedHeaderError, "without an ElementDataFile"),
    (b"\xff" * (3 * io.DEFAULT_BUFFER_SIZE) + b"\n", MalformedHeaderError, "non-ASCII"),
    (b"ObjectType = Image\n\xffbad = 1\n", MalformedHeaderError,
     "non-ASCII bytes in header line at offset 19"),
    (b"ObjectType = Image\r\n\xffbad = 1\r\n", MalformedHeaderError,
     "non-ASCII bytes in header line at offset 20"),
    (b"Key = value\n" * (_MAX_HEADER_FIELDS + 1), MalformedHeaderError, "duplicate"),
    (b"".join(b"K%d = v\n" % i for i in range(_MAX_HEADER_FIELDS + 1)), MalformedHeaderError,
     "more than"),
    (_VALID.replace(b"MET_SHORT", b"MET_LONG"), UnsupportedTypeError, "MET_LONG"),
], ids=["raw-short-by-one", "raw-empty", "no-terminator", "zlib-short", "zlib-cut", "zlib-bad-check",
        "empty", "long-non-ascii", "non-ascii-lf", "non-ascii-crlf", "duplicate", "too-many-fields",
        "type"])
def test_read_mha_file_fails_as_read_mha(tmp_path, data, error, message):
    from_bytes, from_file = _both_readers(tmp_path, data)
    assert from_bytes == from_file
    assert from_file[0] is error and message in from_file[1]


_FUZZ_BASES = [_stored(_awkward_voxels(e, np.random.default_rng(i), shape=(2, 3, 2)), compress, msb)
               for i, e in enumerate(sorted(ELEMENT_TYPES)) for compress in (False, True)
               for msb in (False, True)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.sampled_from(_FUZZ_BASES), st.integers(0, 1 << 10),
       st.lists(st.tuples(st.integers(0, 1 << 10), st.integers(0, 255)), max_size=4))
@settings(max_examples=300, deadline=None)
def test_readers_agree_on_truncated_and_mutated_files(fuzz_dir, base, cut, flips):
    data = bytearray(base)
    for pos, value in flips:
        data[pos % len(data)] = value
    data = bytes(data[:cut % (len(data) + 1)])
    from_bytes, from_file = _both_readers(fuzz_dir, data)
    assert from_bytes == from_file


def test_a_zlib_bomb_inflates_no_further_than_the_header_size(tmp_path):
    packer = zlib.compressobj()
    bomb = b"".join(packer.compress(bytes(1 << 20)) for _ in range(64)) + packer.flush()
    data = MINIMAL.replace(b"ElementDataFile", b"CompressedData = True\nElementDataFile") + bomb
    path = tmp_path / "bomb.mha"
    path.write_bytes(data)
    for read, source in ((read_mha, data), (read_mha_file, str(path))):
        tracemalloc.start()
        try:
            vol = read(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        npt.assert_array_equal(vol.voxels, np.zeros((1, 2, 2)))
        assert peak < 1 << 20   # 64 MiB of zeros stay uninflated


def test_a_payload_that_cannot_be_allocated_is_malformed(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(np, "empty", no_memory)
    with pytest.raises(MalformedHeaderError, match="4-byte payload, more than can be allocated"):
        read_mha(MINIMAL + bytes(4))


# ---------------------------------------------------------------------------
# to_hounsfield


def test_to_hounsfield_identity_without_rescale_keys():
    arr = np.array([[[-1000, 500]]], dtype=np.int16)
    hu = to_hounsfield(Volume.from_array(arr))
    assert hu.dtype == np.float32
    npt.assert_array_equal(hu, [[[-1000.0, 500.0]]])


def test_to_hounsfield_uchar():
    hu = to_hounsfield(Volume.from_array(np.array([255], dtype=np.uint8)))
    npt.assert_array_equal(hu, [255.0])


def test_to_hounsfield_applies_rescale():
    vol = Volume.from_array(np.array([1024, 0], dtype=np.int16))
    vol.header.raw_fields["RescaleSlope"] = "1"
    vol.header.raw_fields["RescaleIntercept"] = "-1024"
    npt.assert_array_equal(to_hounsfield(vol), [0.0, -1024.0])


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


def _unfused_rescale(voxels, slope, intercept):
    """The float32 map as three passes: cast, then in place *slope, +intercept."""
    want = voxels.astype(np.float32)
    if slope != 1.0 or intercept != 0.0:
        want *= np.float32(slope)
        want += np.float32(intercept)
    return want


@pytest.mark.parametrize("slope, intercept", [(1.0, 0.0), (1.0, -1024.25), (0.37, 0.0),
                                              (0.37, -1024.25), (-2.0, 3.0)])
@pytest.mark.parametrize("element_type", sorted(ELEMENT_TYPES))
def test_to_hounsfield_is_bit_identical_to_float32_rescale(element_type, slope, intercept):
    base = ELEMENT_TYPES[element_type]
    rng = np.random.default_rng(3)
    if base.startswith("f"):
        arr = (rng.standard_normal(4 * 6 * 7) * 1000).astype(base)
        arr[:7] = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, -1e-30]
    else:
        info = np.iinfo(base)
        arr = rng.integers(info.min, info.max, size=4 * 6 * 7, endpoint=True).astype(base)
    vol = Volume.from_array(arr.reshape(4, 6, 7))
    vol.header.raw_fields["RescaleSlope"] = repr(slope)
    vol.header.raw_fields["RescaleIntercept"] = repr(intercept)
    got = to_hounsfield(vol)
    assert got.dtype == np.float32
    assert got.tobytes() == _unfused_rescale(vol.voxels, slope, intercept).tobytes()


@pytest.mark.parametrize("slope, intercept", [("2", "-1024"), ("1", "-1024"), ("1", "0")],
                         ids=["slope", "intercept-only", "neither"])
@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_to_hounsfield_never_mutates_its_source(dtype, slope, intercept):
    arr = np.arange(24, dtype=dtype).reshape(2, 3, 4)
    vol = Volume.from_array(arr.copy())
    vol.header.raw_fields["RescaleSlope"] = slope
    vol.header.raw_fields["RescaleIntercept"] = intercept
    hu = to_hounsfield(vol)
    assert type(hu) is np.ndarray and hu.dtype == np.float32
    assert not np.shares_memory(hu, vol.voxels)
    npt.assert_array_equal(hu, arr.astype(np.float32) * float(slope) + float(intercept))
    npt.assert_array_equal(vol.voxels, arr)
    assert vol.header.raw_fields["RescaleSlope"] == slope
    assert vol.header.raw_fields["RescaleIntercept"] == intercept


@pytest.mark.parametrize("key", ["RescaleSlope", "RescaleIntercept"])
@pytest.mark.parametrize("value", ["", "1 2", "abc", "nan", "1e39", "-3.5e38"],
                         ids=["empty", "two", "word", "nan", "float32-overflow", "float32-negative-overflow"])
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
