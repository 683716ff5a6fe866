"""MetaImage (.mha) single-file reader/writer.

The format is an ASCII ``Key = Value`` header (one field per line, LF or CRLF)
terminated by ``ElementDataFile = LOCAL``, followed immediately by the binary
voxel payload. Values are little-endian unless ``BinaryDataByteOrderMSB``
says otherwise; a ``CompressedData = True`` payload is a single zlib/DEFLATE
stream. Voxels are stored x-fastest; in memory they are kept in the reversed
(…, z, y, x) C-order layout so ``voxels[k]`` is an axial slice of a 3-D scan.

Parsing is total: any byte input produces either a Volume or one of the
structured errors below — never an unhandled crash. Only the single-file
``ElementDataFile = LOCAL`` variant is supported; external .raw references
are rejected explicitly.
"""

from __future__ import annotations

import copy
import math
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
_MAX_VOXEL_BYTES = 1 << 33  # refuse to allocate more than 8 GiB from a header


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
    ndims: int
    dim_size: list[int]
    element_type: str
    element_spacing: list[float]
    offset: list[float]
    transform_matrix: list[float]
    compressed: bool = False
    raw_fields: dict[str, str] = field(default_factory=dict)

    def validate(self):
        if self.element_type not in ELEMENT_TYPES:
            raise UnsupportedTypeError(f"unsupported ElementType {self.element_type!r}")
        if not (1 <= self.ndims <= _MAX_NDIMS):
            raise MalformedHeaderError(f"NDims {self.ndims} outside [1, {_MAX_NDIMS}]")
        for name, vals, n in (("DimSize", self.dim_size, self.ndims),
                              ("ElementSpacing", self.element_spacing, self.ndims),
                              ("Offset", self.offset, self.ndims),
                              ("TransformMatrix", self.transform_matrix, self.ndims ** 2)):
            if len(vals) != n:
                raise MalformedHeaderError(f"{name} has {len(vals)} entries, expected {n}")
        if any(d < 1 for d in self.dim_size):
            raise MalformedHeaderError(f"DimSize entries must be positive, got {self.dim_size}")

    def voxel_count(self) -> int:
        return math.prod(self.dim_size)


@dataclass
class Volume:
    """A decoded image: header plus voxels in (..., z, y, x) C-order."""

    header: MhaHeader
    voxels: np.ndarray

    def __post_init__(self):
        if self.voxels.size != self.header.voxel_count():
            raise MhaError(f"voxel count {self.voxels.size} != header product "
                           f"{self.header.voxel_count()}")

    @staticmethod
    def from_array(voxels: np.ndarray, spacing=None, offset=None) -> "Volume":
        """Wrap an array (shape read as (..., z, y, x)) with a minimal header."""
        arr = np.ascontiguousarray(voxels)
        if arr.dtype not in _DTYPE_TO_ELEMENT:
            raise UnsupportedTypeError(f"no MET_* element type for dtype {arr.dtype}")
        ndims = arr.ndim
        dims = list(arr.shape[::-1])
        header = MhaHeader(
            ndims=ndims,
            dim_size=dims,
            element_type=_DTYPE_TO_ELEMENT[arr.dtype],
            element_spacing=[1.0] * ndims if spacing is None else list(spacing),
            offset=[0.0] * ndims if offset is None else list(offset),
            transform_matrix=np.eye(ndims).reshape(-1).tolist(),
            compressed=False,
            raw_fields={"ObjectType": "Image"},
        )
        header.validate()
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


def _split_header(data: bytes):
    """Parse (key, value) pairs up to the ElementDataFile line; return them
    with a memoryview of the payload that follows (no copy)."""
    fields: dict[str, str] = {}
    pos = 0
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise MalformedHeaderError("header ended without an ElementDataFile line")
        line = data[pos:nl]
        pos = nl + 1
        if line.endswith(b"\r"):
            line = line[:-1]
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            raise MalformedHeaderError(
                f"non-ASCII bytes in header line at offset {pos - len(line) - 1}") from None
        key, value = _parse_line(text)
        if key in fields:
            raise MalformedHeaderError(f"duplicate header key {key!r}")
        fields[key] = value
        if key == "ElementDataFile":
            return fields, memoryview(data)[pos:]
        if len(fields) > 256:
            raise MalformedHeaderError("more than 256 header fields before ElementDataFile")


def read_mha(data: bytes) -> Volume:
    """Decode one .mha byte buffer into a Volume.

    Raises MalformedHeaderError / UnsupportedTypeError / UnsupportedVariantError /
    TruncatedPayloadError; see module docstring for the accepted grammar.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"read_mha expects bytes, got {type(data).__name__}")
    fields, payload = _split_header(bytes(data))

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

    header = MhaHeader(
        ndims=ndims,
        dim_size=_parse_ints(fields["DimSize"], "DimSize"),
        element_type=fields["ElementType"],
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
    header.validate()

    big_endian = ("BinaryDataByteOrderMSB" in fields
                  and _parse_bool(fields["BinaryDataByteOrderMSB"], "BinaryDataByteOrderMSB"))
    base = ELEMENT_TYPES[header.element_type]
    itemsize = int(base[1])
    count = header.voxel_count()
    expected = count * itemsize
    if expected > _MAX_VOXEL_BYTES:
        raise MalformedHeaderError(
            f"DimSize {header.dim_size} implies a {expected}-byte payload "
            f"(limit {_MAX_VOXEL_BYTES})")

    if header.compressed:
        dec = zlib.decompressobj()
        try:
            raw = dec.decompress(payload, expected)
        except zlib.error as e:
            raise TruncatedPayloadError(f"compressed payload does not inflate: {e}") from None
        if len(raw) < expected:
            raise TruncatedPayloadError(
                f"compressed payload inflates to {len(raw)} bytes, expected {expected}")
    else:
        if len(payload) < expected:
            raise TruncatedPayloadError(
                f"payload is {len(payload)} bytes, expected {expected}")
        raw = payload[:expected]

    dtype = np.dtype((">" if big_endian else "<") + base)
    voxels = np.frombuffer(raw, dtype=dtype, count=count)
    voxels = voxels.astype(voxels.dtype.newbyteorder("="))  # native order + writable copy
    return Volume(header=header, voxels=voxels.reshape(header.dim_size[::-1]))


def _fmt_floats(vals) -> str:
    return " ".join(repr(float(v)) for v in vals)


def _raw_line(key: str, value: str) -> str:
    line = f"{key} = {value}"
    try:
        if line.isascii() and "\r" not in line and "\n" not in line and _parse_line(line) == (key, value):
            return line
    except MalformedHeaderError:
        pass
    raise MhaError(f"header field {key!r} = {value!r} would not read back as written")


def write_mha(volume: Volume, compress: bool = False) -> bytes:
    """Serialize a Volume to the canonical single-file form.

    Canonical keys come first in fixed order, then any unrecognized keys in
    their stored order, then ElementDataFile. Uncompressed output is
    byte-reproducible for a given Volume. Raw fields under a key the reader
    interprets are skipped; any other must read back unchanged, or MhaError.
    """
    header = volume.header
    header.validate()
    base = ELEMENT_TYPES[header.element_type]
    arr = np.ascontiguousarray(volume.voxels)
    if arr.dtype != np.dtype(base):
        raise MhaError(f"voxel dtype {arr.dtype} does not match ElementType "
                       f"{header.element_type}")
    payload = arr.astype("<" + base, copy=False).tobytes()
    if compress:
        payload = zlib.compress(payload, 6)

    lines = [_raw_line("ObjectType", header.raw_fields.get("ObjectType", "Image")),
             f"NDims = {header.ndims}",
             f"DimSize = {' '.join(str(d) for d in header.dim_size)}",
             f"ElementType = {header.element_type}",
             f"ElementSpacing = {_fmt_floats(header.element_spacing)}",
             f"Offset = {_fmt_floats(header.offset)}",
             f"TransformMatrix = {_fmt_floats(header.transform_matrix)}",
             f"CompressedData = {compress}"]
    lines += [_raw_line(key, value) for key, value in header.raw_fields.items()
              if key not in _CONSUMED_KEYS]
    lines.append("ElementDataFile = LOCAL")
    return "\n".join(lines).encode("ascii") + b"\n" + payload


def read_mha_file(path: str) -> Volume:
    with open(path, "rb") as f:
        return read_mha(f.read())


def write_mha_file(path: str, volume: Volume, compress: bool = False):
    with open(path, "wb") as f:
        f.write(write_mha(volume, compress=compress))


def _rescale_value(raw: dict, key: str, default: float) -> float:
    if key not in raw:
        return default
    values = _parse_floats(raw[key], key)
    if len(values) != 1:
        raise MalformedHeaderError(f"{key}: expected one number, got {raw[key]!r}")
    return values[0]


def to_hounsfield(volume: Volume) -> Volume:
    """Float32 copy of the volume, applying RescaleSlope/RescaleIntercept if
    present; each must hold exactly one finite number."""
    raw = volume.header.raw_fields
    slope = _rescale_value(raw, "RescaleSlope", 1.0)
    intercept = _rescale_value(raw, "RescaleIntercept", 0.0)
    vox = volume.voxels.astype(np.float32)
    if slope != 1.0 or intercept != 0.0:
        # in place on the copy: the float32 operations of vox*slope + intercept
        vox *= np.float32(slope)
        vox += np.float32(intercept)
    header = copy.deepcopy(volume.header)
    header.element_type = "MET_FLOAT"
    header.raw_fields.pop("RescaleSlope", None)
    header.raw_fields.pop("RescaleIntercept", None)
    return Volume(header=header, voxels=vox)
