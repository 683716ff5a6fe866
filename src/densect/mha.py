"""MetaImage (.mha) single-file reader/writer.

The format is an ASCII ``Key = Value`` header (one field per line, LF or CRLF)
terminated by ``ElementDataFile = LOCAL``, followed immediately by the binary
voxel payload. Values are little-endian unless ``BinaryDataByteOrderMSB``
says otherwise; a ``CompressedData = True`` payload is a single zlib/DEFLATE
stream. Voxels are stored x-fastest; in memory they are kept in the reversed
(…, z, y, x) C-order layout so ``voxels[k]`` is an axial slice of a 3-D scan.
A volume's geometry is its voxel array: NDims, DimSize and ElementType are
read into it and written from it, and ``MhaHeader`` holds only the rest.

Reading copies each voxel byte once. The header is read one line at a time
up to the ElementDataFile line; then the native-order voxel array is
allocated, a raw payload is read straight into it (byteswapped in
place when stored big-endian), and a zlib payload is inflated chunk by chunk,
each piece copied into it, never past the size the header gives.
``read_mha_file`` is the one reader: it runs this decoder over the open file.

Parsing is total: any byte input produces either a Volume or one of the
structured errors below — never an unhandled crash. Only the single-file
``ElementDataFile = LOCAL`` variant is supported; external .raw references
are rejected explicitly.
"""

from __future__ import annotations

import io
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

ELEMENT_TYPES = {
    "MET_UCHAR": "u1",
    "MET_CHAR": "i1",
    "MET_SHORT": "i2",
    "MET_USHORT": "u2",
    "MET_INT": "i4",
    "MET_FLOAT": "f4",
    "MET_DOUBLE": "f8",
}
_DTYPE_TO_ELEMENT = {np.dtype(base): element for element, base in ELEMENT_TYPES.items()}

# keys the reader interprets and the writer re-derives; everything else round-trips verbatim
_CONSUMED_KEYS = frozenset({"ObjectType", "NDims", "DimSize", "ElementType", "ElementSpacing",
                            "Offset", "TransformMatrix", "CompressedData", "CompressedDataSize",
                            "BinaryDataByteOrderMSB", "ElementDataFile"})

_MAX_NDIMS = 16
_MAX_HEADER_FIELDS = 256  # header fields before ElementDataFile, read or written
_MAX_HEADER_LINE = 1 << 16  # a header line, its line break included, is shorter than this
_MAX_VOXEL_BYTES = 1 << 33  # refuse to allocate more than 8 GiB from a header
_INFLATE_CHUNK = 1 << 18  # compressed bytes handed to zlib per read


class MhaError(ValueError):
    """Base class for all .mha parse/serialize failures."""


class MalformedHeaderError(MhaError):
    """Header line unparseable, a required key missing, or a value invalid."""


class TruncatedPayloadError(MhaError):
    """Voxel payload shorter than the header promises (or fails to inflate)."""


class UnsupportedTypeError(MhaError):
    """ElementType outside the supported MET_* set."""


class UnsupportedVariantError(MhaError):
    """A legal MetaImage feature this reader does not handle (external data file)."""


@dataclass
class MhaHeader:
    """The fields a volume's voxels do not give; its NDims, DimSize and
    ElementType are ``voxels.ndim``, ``voxels.shape[::-1]`` and ``voxels.dtype``."""

    element_spacing: list[float]
    offset: list[float]
    transform_matrix: list[float]
    compressed: bool = False
    raw_fields: dict[str, str] = field(default_factory=dict)

    def validate(self, ndims: int, dim_size: list[int]):
        """Check the header against the voxel geometry (NDims, DimSize) it describes."""
        if not (1 <= ndims <= _MAX_NDIMS):
            raise MalformedHeaderError(f"NDims {ndims} outside [1, {_MAX_NDIMS}]")
        for name, vals, n in (("DimSize", dim_size, ndims),
                              ("ElementSpacing", self.element_spacing, ndims),
                              ("Offset", self.offset, ndims),
                              ("TransformMatrix", self.transform_matrix, ndims ** 2)):
            if len(vals) != n:
                raise MalformedHeaderError(f"{name} has {len(vals)} entries, expected {n}")
        if any(d < 1 for d in dim_size):
            raise MalformedHeaderError(f"DimSize entries must be positive, got {dim_size}")


def _element_type(dtype: np.dtype) -> str:
    if dtype not in _DTYPE_TO_ELEMENT:
        raise UnsupportedTypeError(f"no MET_* element type for dtype {dtype}")
    return _DTYPE_TO_ELEMENT[dtype]


@dataclass
class Volume:
    """A decoded image: header plus voxels in (..., z, y, x) C-order. The
    voxels alone give the volume's shape and element type."""

    header: MhaHeader
    voxels: np.ndarray

    @staticmethod
    def from_array(voxels: np.ndarray, spacing=None, offset=None) -> "Volume":
        """Wrap an array (shape read as (..., z, y, x)) with a minimal header."""
        arr = np.ascontiguousarray(voxels)
        _element_type(arr.dtype)
        ndims = arr.ndim
        header = MhaHeader(
            element_spacing=[1.0] * ndims if spacing is None else list(spacing),
            offset=[0.0] * ndims if offset is None else list(offset),
            transform_matrix=np.eye(ndims).reshape(-1).tolist(),
            raw_fields={"ObjectType": "Image"},
        )
        header.validate(ndims, list(arr.shape[::-1]))
        return Volume(header=header, voxels=arr)


def _parse_ints(value: str, key: str) -> list[int]:
    try:
        return [int(tok) for tok in value.split()]
    except ValueError:
        raise MalformedHeaderError(f"{key}: expected whitespace-separated integers, "
                                   f"got {value!r}") from None


def _parse_floats(value: str, key: str) -> list[float]:
    try:
        out = [float(tok) for tok in value.split()]
    except ValueError:
        raise MalformedHeaderError(f"{key}: expected whitespace-separated numbers, "
                                   f"got {value!r}") from None
    if not all(np.isfinite(out)):
        raise MalformedHeaderError(f"{key}: non-finite entry in {value!r}")
    return out


def _parse_bool(value: str, key: str) -> bool:
    if value in ("True", "true", "TRUE", "1"):
        return True
    if value in ("False", "false", "FALSE", "0"):
        return False
    raise MalformedHeaderError(f"{key}: expected True/False, got {value!r}")


def _parse_line(text: str) -> tuple[str, str]:
    """One header line (without its line break) as a stripped (key, value)."""
    if "=" not in text:
        raise MalformedHeaderError(f"header line without '=': {text!r}")
    key, _, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if not key:
        raise MalformedHeaderError(f"empty key in header line {text!r}")
    return key, value


def _read_header(f):
    """Parse (key, value) pairs from the start of binary stream ``f``, one
    line of fewer than ``_MAX_HEADER_LINE`` bytes at a time, up to the
    ElementDataFile line; return them with the payload's offset."""
    fields: dict[str, str] = {}
    while True:
        start = f.tell()
        line = f.readline(_MAX_HEADER_LINE)
        if len(line) == _MAX_HEADER_LINE:
            raise MalformedHeaderError(
                f"header line at offset {start} reaches {_MAX_HEADER_LINE} bytes")
        if not line.endswith(b"\n"):
            raise MalformedHeaderError("header ended without an ElementDataFile line")
        try:
            text = line[:-1].removesuffix(b"\r").decode("ascii")
        except UnicodeDecodeError:
            raise MalformedHeaderError(
                f"non-ASCII bytes in header line at offset {start}") from None
        key, value = _parse_line(text)
        if key in fields:
            raise MalformedHeaderError(f"duplicate header key {key!r}")
        fields[key] = value
        if key == "ElementDataFile":
            return fields, f.tell()
        if len(fields) > _MAX_HEADER_FIELDS:
            raise MalformedHeaderError(
                f"more than {_MAX_HEADER_FIELDS} header fields before ElementDataFile")


def _parse_fields(fields: dict[str, str]) -> tuple[MhaHeader, list[int], np.dtype]:
    """Validate the header fields; return the header, DimSize and the
    payload's dtype (byte order as stored)."""
    for required in ("ObjectType", "NDims", "DimSize", "ElementType"):
        if required not in fields:
            raise MalformedHeaderError(f"missing required header key {required!r}")
    if fields["ElementDataFile"] != "LOCAL":
        raise UnsupportedVariantError(
            f"ElementDataFile = {fields['ElementDataFile']!r}: only LOCAL "
            "(single-file) volumes are supported")

    ndims_list = _parse_ints(fields["NDims"], "NDims")
    if len(ndims_list) != 1:
        raise MalformedHeaderError(f"NDims: expected a single integer, got {fields['NDims']!r}")
    ndims = ndims_list[0]
    if not (1 <= ndims <= _MAX_NDIMS):
        raise MalformedHeaderError(f"NDims {ndims} outside [1, {_MAX_NDIMS}]")

    dim_size = _parse_ints(fields["DimSize"], "DimSize")
    header = MhaHeader(
        element_spacing=(_parse_floats(fields["ElementSpacing"], "ElementSpacing")
                         if "ElementSpacing" in fields else [1.0] * ndims),
        offset=(_parse_floats(fields["Offset"], "Offset")
                if "Offset" in fields else [0.0] * ndims),
        transform_matrix=(_parse_floats(fields["TransformMatrix"], "TransformMatrix")
                          if "TransformMatrix" in fields
                          else np.eye(ndims).reshape(-1).tolist()),
        compressed=(_parse_bool(fields["CompressedData"], "CompressedData")
                    if "CompressedData" in fields else False),
        raw_fields={k: v for k, v in fields.items() if k not in _CONSUMED_KEYS
                    or k == "ObjectType"},
    )
    element_type = fields["ElementType"]
    if element_type not in ELEMENT_TYPES:
        raise UnsupportedTypeError(f"unsupported ElementType {element_type!r}")
    header.validate(ndims, dim_size)

    big_endian = ("BinaryDataByteOrderMSB" in fields
                  and _parse_bool(fields["BinaryDataByteOrderMSB"], "BinaryDataByteOrderMSB"))
    return header, dim_size, np.dtype((">" if big_endian else "<") + ELEMENT_TYPES[element_type])


def _inflate_into(f, out: memoryview) -> int:
    """Inflate the zlib stream read from ``f`` into ``out``. Input goes to zlib
    in bounded chunks, and no call may inflate past the space left in ``out``,
    so an over-long stream never inflates past the header's size."""
    dec = zlib.decompressobj()
    chunk = memoryview(bytearray(_INFLATE_CHUNK))
    filled = 0
    while filled < len(out) and not dec.eof and (n := f.readinto(chunk)):
        pending = chunk[:n]
        while pending and filled < len(out):
            try:
                part = dec.decompress(pending, len(out) - filled)
            except zlib.error as e:
                raise TruncatedPayloadError(f"compressed payload does not inflate: {e}") from None
            out[filled:filled + len(part)] = part
            filled += len(part)
            pending = dec.unconsumed_tail
    return filled


def _read(f) -> Volume:
    """Decode the .mha held in seekable binary stream ``f``. Voxel bytes go
    from the stream straight into the native-order array: one copy."""
    fields, start = _read_header(f)
    header, dim_size, stored = _parse_fields(fields)
    count = math.prod(dim_size)
    expected = count * stored.itemsize
    if expected > _MAX_VOXEL_BYTES:
        raise MalformedHeaderError(
            f"DimSize {dim_size} implies a {expected}-byte payload "
            f"(limit {_MAX_VOXEL_BYTES})")
    if not header.compressed:
        length = f.seek(0, io.SEEK_END) - start
        if length < expected:
            raise TruncatedPayloadError(f"payload is {length} bytes, expected {expected}")
    try:
        voxels = np.empty(count, dtype=stored.newbyteorder("="))
    except MemoryError:
        raise MalformedHeaderError(
            f"DimSize {dim_size} implies a {expected}-byte payload, "
            "more than can be allocated") from None

    out = memoryview(voxels).cast("B")
    f.seek(start)
    if header.compressed:
        filled = _inflate_into(f, out)
        if filled < expected:
            raise TruncatedPayloadError(
                f"compressed payload inflates to {filled} bytes, expected {expected}")
    else:
        filled = f.readinto(out)
        if filled < expected:  # the file shrank since its length was taken
            raise TruncatedPayloadError(f"payload is {filled} bytes, expected {expected}")
    if not stored.isnative:
        voxels.byteswap(inplace=True)
    return Volume(header=header, voxels=voxels.reshape(dim_size[::-1]))


def _fmt_floats(vals) -> str:
    return " ".join(repr(float(v)) for v in vals)


def _raw_line(key: str, value: str) -> str:
    line = f"{key} = {value}"
    try:
        if (len(line) + 1 < _MAX_HEADER_LINE and line.isascii() and "\r" not in line
                and "\n" not in line and _parse_line(line) == (key, value)):
            return line
    except MalformedHeaderError:
        pass
    raise MhaError(f"header field {key!r} = {value!r} would not read back as written")


def write_mha(volume: Volume, compress: bool = False) -> bytes:
    """Serialize a Volume to the canonical single-file form.

    Canonical keys come first in fixed order, then any unrecognized keys in
    their stored order, then ElementDataFile. Uncompressed output is
    byte-reproducible for a given Volume. Raw fields under a key the reader
    interprets are skipped; any other must read back unchanged, or MhaError,
    as is a header with more fields than the reader accepts.
    """
    header = volume.header
    arr = np.ascontiguousarray(volume.voxels)
    element_type = _element_type(arr.dtype)
    dim_size = list(arr.shape[::-1])
    header.validate(arr.ndim, dim_size)
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    if compress:
        payload = zlib.compress(payload, 6)

    lines = [_raw_line("ObjectType", header.raw_fields.get("ObjectType", "Image")),
             f"NDims = {arr.ndim}",
             f"DimSize = {' '.join(str(d) for d in dim_size)}",
             f"ElementType = {element_type}",
             f"ElementSpacing = {_fmt_floats(header.element_spacing)}",
             f"Offset = {_fmt_floats(header.offset)}",
             f"TransformMatrix = {_fmt_floats(header.transform_matrix)}",
             f"CompressedData = {compress}"]
    lines += [_raw_line(key, value) for key, value in header.raw_fields.items()
              if key not in _CONSUMED_KEYS]
    if len(lines) > _MAX_HEADER_FIELDS:
        raise MhaError(f"{len(lines)} header fields before ElementDataFile; the reader "
                       f"accepts at most {_MAX_HEADER_FIELDS}")
    lines.append("ElementDataFile = LOCAL")
    return "\n".join(lines).encode("ascii") + b"\n" + payload


def read_mha_file(path: str) -> Volume:
    """Decode the .mha file at ``path`` into a Volume.

    Raises MalformedHeaderError / UnsupportedTypeError / UnsupportedVariantError /
    TruncatedPayloadError; see module docstring for the accepted grammar.
    """
    with open(path, "rb") as f:
        return _read(f)


def write_whole(path: str, write) -> None:
    """The package's one file writer: ``write(f)`` fills ``path + ".tmp"`` opened
    ``"wb"``, which then replaces ``path`` whole; on any error the temporary is
    removed and the error re-raised, so ``path`` keeps its previous bytes. An
    ``OSError`` names ``path``, not the temporary."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, path) from e
        raise


def write_mha_file(path: str, volume: Volume, compress: bool = False):
    """Replace ``path`` whole with ``volume`` (``write_whole``); a volume
    ``write_mha`` refuses leaves the path as it was and creates nothing."""
    data = write_mha(volume, compress=compress)
    write_whole(path, lambda f: f.write(data))


def _rescale_value(raw: dict, key: str, default: float) -> float:
    if key not in raw:
        return default
    values = _parse_floats(raw[key], key)
    if len(values) != 1:
        raise MalformedHeaderError(f"{key}: expected one number, got {raw[key]!r}")
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.float32(values[0]))
    if not finite:
        raise MalformedHeaderError(f"{key}: {raw[key]!r} is not finite as float32")
    return values[0]


def to_hounsfield(volume: Volume) -> np.ndarray:
    """The volume's voxels as a new float32 array in Hounsfield units,
    applying RescaleSlope/RescaleIntercept if present; each must hold exactly
    one number that is finite as float32.

    The cast is fused into the first float32 operation of vox*slope + intercept,
    so the output is written in one pass, or two when there is a slope.
    """
    raw = volume.header.raw_fields
    slope = _rescale_value(raw, "RescaleSlope", 1.0)
    intercept = _rescale_value(raw, "RescaleIntercept", 0.0)
    if slope != 1.0:
        vox = np.multiply(volume.voxels, np.float32(slope), dtype=np.float32)
        vox += np.float32(intercept)  # even when 0: x*s + 0.0 turns -0.0 into +0.0
    elif intercept != 0.0:
        vox = np.add(volume.voxels, np.float32(intercept), dtype=np.float32)
    else:
        vox = volume.voxels.astype(np.float32)  # no +0.0 here: -0.0 voxels stay -0.0
    return vox
