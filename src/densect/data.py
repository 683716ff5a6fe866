"""Dataset plumbing: reference parsing, splits, batching, synthetic studies.

A dataset on disk is a reference CSV plus a directory of .mha volumes:

    <root>/reference.csv          PatientID,probCOVID,probSevere
    <root>/data/<PatientID>.mha   one volume per row

Labels in the reference file are strict binary integers. ``batches`` turns
records into network-ready arrays; any per-study failure (unreadable file,
bad volume, preprocessing error) is wrapped in ItemError carrying the
patient id, so callers can report exactly which study broke.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .mha import MhaError, Volume, read_mha_file, to_hounsfield, write_mha_file, write_whole
from .preprocess import PreprocessConfig, PreprocessError, preprocess

REFERENCE_HEADER = ("PatientID", "probCOVID", "probSevere")
# characters in a text line read_lines takes, its line break included; above
# csv's 131072-character field limit, so a long field meets that limit first
_MAX_LINE = 1 << 18


class DataError(Exception):
    """Base class for dataset-level failures."""


class ReferenceFormatError(DataError):
    """The reference CSV is missing, malformed, or inconsistent."""


class ItemError(DataError):
    """One study could not be loaded or preprocessed."""

    def __init__(self, patient_id: str, message: str):
        super().__init__(f"{patient_id}: {message}")
        self.patient_id = patient_id


@dataclass(frozen=True)
class StudyRecord:
    patient_id: str
    volume_path: str
    label_covid: int
    label_severe: int


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[StudyRecord, ...]
    val: tuple[StudyRecord, ...]


@dataclass
class Batch:
    """images: (N, 1, S, S) float32 in [0, 1]; labels: (N, 2) float32."""

    images: np.ndarray
    labels: np.ndarray
    patient_ids: tuple[str, ...]


def _parse_label(raw: str, column: str, where: str) -> int:
    text = raw.strip()
    if text not in ("0", "1"):
        raise ReferenceFormatError(f"{where}: {column} must be 0 or 1, got {raw!r}")
    return int(text)


def load_reference(csv_path: str) -> list[StudyRecord]:
    """Parse a reference CSV into study records.

    Volume paths are ``<csv dir>/data/<PatientID>.mha``. Files are not
    required to exist yet — that is checked lazily when a batch actually
    loads them. A file holding only the header is a valid empty dataset.
    Every format error, a byte that is not UTF-8 included, begins with the
    path, and the line where there is one: ``{csv_path}:{line}: ...``.
    """
    data_dir = os.path.join(os.path.dirname(os.path.abspath(csv_path)), "data")
    rows = read_csv(csv_path, ReferenceFormatError)
    where, header = next(rows, (csv_path, None))
    if header is None:
        raise ReferenceFormatError(f"{csv_path}: reference file is empty")
    if tuple(h.strip() for h in header) != REFERENCE_HEADER:
        raise ReferenceFormatError(
            f"{where}: expected header {','.join(REFERENCE_HEADER)}, got {','.join(header)!r}")
    records = []
    seen = set()
    for where, row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # tolerate blank lines
        if len(row) != 3:
            raise ReferenceFormatError(f"{where}: expected 3 fields, got {len(row)}")
        pid = row[0].strip()
        if not pid:
            raise ReferenceFormatError(f"{where}: empty PatientID")
        if pid in seen:
            raise ReferenceFormatError(f"{where}: duplicate PatientID {pid!r}")
        seen.add(pid)
        covid = _parse_label(row[1], "probCOVID", where)
        severe = _parse_label(row[2], "probSevere", where)
        records.append(StudyRecord(
            patient_id=pid,
            volume_path=os.path.join(data_dir, pid + ".mha"),
            label_covid=covid,
            label_severe=severe,
        ))
    return records


def split(records: Sequence[StudyRecord], val_count: int, seed: int = 0) -> DatasetSplit:
    """Deterministic seeded partition into train and validation sets.

    Both sides must end up non-empty, so ``val_count`` has to sit strictly
    between 0 and ``len(records)``. Callers that want no validation set
    simply skip splitting.
    """
    n = len(records)
    if not 0 < val_count < n:
        raise ValueError(
            f"val_count must leave both sides non-empty "
            f"(0 < val_count < {n}), got {val_count}")
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = set(perm[:val_count].tolist())
    train = tuple(records[i] for i in range(n) if i not in val_idx)
    val = tuple(records[i] for i in sorted(val_idx))
    return DatasetSplit(train=train, val=val)


def load_study_image(record: StudyRecord, config: PreprocessConfig,
                     cache: Optional[dict] = None) -> np.ndarray:
    """Read, convert to Hounsfield units, and preprocess one study.

    ``cache`` is an in-memory dict reused within a single run, mapping
    patient id to ``{config: pixels}``, so one dict serves any number of
    preprocessing configs and changing the config never serves stale pixels.
    """
    if cache is not None and config in cache.get(record.patient_id, ()):
        return cache[record.patient_id][config]
    try:
        volume = read_mha_file(record.volume_path)
        hounsfield = to_hounsfield(volume)
        image = preprocess(hounsfield, config)
    except (MhaError, PreprocessError, OSError) as e:
        raise ItemError(record.patient_id, str(e)) from e
    if cache is not None:
        cache.setdefault(record.patient_id, {})[config] = image.pixels
    return image.pixels


def batches(records: Sequence[StudyRecord], batch_size: int,
            config: PreprocessConfig, *, epoch: int = 0,
            shuffle_seed: Optional[int] = None,
            cache: Optional[dict] = None) -> Iterator[Batch]:
    """Yield batches of preprocessed studies.

    With ``shuffle_seed`` set, the order is a permutation derived from
    (shuffle_seed, epoch) and nothing else, so a rerun with the same pair
    replays the exact same batch sequence. The final short batch is kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not records:
        raise ValueError("no records to batch")
    n = len(records)
    if shuffle_seed is None:
        order = np.arange(n)
    else:
        seq = np.random.SeedSequence(shuffle_seed, spawn_key=(epoch,))
        order = np.random.default_rng(seq).permutation(n)
    for start in range(0, n, batch_size):
        chunk = [records[i] for i in order[start:start + batch_size]]
        images = np.stack([load_study_image(r, config, cache) for r in chunk])
        labels = np.array([[r.label_covid, r.label_severe] for r in chunk],
                          dtype=np.float32)
        yield Batch(
            images=images[:, None, :, :],
            labels=labels,
            patient_ids=tuple(r.patient_id for r in chunk),
        )


# --------------------------------------------------------------------------
# Synthetic studies
# --------------------------------------------------------------------------

_BACKGROUND_HU = -800
_LESION_HU = 900
_NOISE_HU = 25.0


def _bump(shape: tuple[int, int], center: tuple[float, float],
          sigma: float) -> np.ndarray:
    yy, xx = np.ogrid[: shape[0], : shape[1]]
    d2 = (yy - center[0]) ** 2 + (xx - center[1]) ** 2
    return _LESION_HU * np.exp(-d2 / (2.0 * sigma * sigma))


def synth_generate(n: int, out_dir: str, seed: int = 0,
                   image_size: int = 64, depth: int = 8) -> list[StudyRecord]:
    """Write n synthetic studies plus a reference CSV under out_dir.

    Labels follow a fixed cycle: study i is positive when i is odd, and
    severe when i % 4 == 3, so severe implies positive and the label mix
    is 50% positive / 25% severe. A positive study carries one bright
    Gaussian lesion on its middle slice; a severe study carries a second
    lesion on the opposite side. Background is lung-like low density plus
    noise.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if image_size < 16 or depth < 1:
        raise ValueError("image_size must be >= 16 and depth >= 1")
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    records = []
    rows = []
    for i in range(n):
        covid = i % 2
        severe = 1 if i % 4 == 3 else 0
        pid = f"synth{i:03d}"
        vol = _BACKGROUND_HU + rng.normal(0.0, _NOISE_HU, size=(depth, image_size, image_size))
        mid = depth // 2
        sigma = image_size / 8.0
        jitter = rng.uniform(-image_size / 24.0, image_size / 24.0, size=4)
        if covid:
            center = (image_size * 0.5 + jitter[0], image_size * 0.3 + jitter[1])
            vol[mid] += _bump((image_size, image_size), center, sigma)
        if severe:
            center = (image_size * 0.5 + jitter[2], image_size * 0.7 + jitter[3])
            vol[mid] += _bump((image_size, image_size), center, sigma)
        voxels = np.clip(np.rint(vol), -32768, 32767).astype(np.int16)
        path = os.path.join(data_dir, pid + ".mha")
        write_mha_file(path, Volume.from_array(voxels))
        records.append(StudyRecord(patient_id=pid, volume_path=path,
                                   label_covid=covid, label_severe=severe))
        rows.append((pid, covid, severe))
    write_csv(os.path.join(out_dir, "reference.csv"), REFERENCE_HEADER, rows)
    return records


def write_csv(path: str, header, rows) -> None:
    """Replace ``path`` whole with ``header`` then ``rows`` as UTF-8 CSV with ``\\n``
    line ends; a failed write leaves the previous file and no ``.tmp``."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    write_whole(path, lambda f: f.write(text.getvalue().encode()))


def read_lines(path: str, error=ValueError) -> Iterator[str]:
    """Each line of the UTF-8 text file at ``path``, its line break kept, read
    with a limit of ``_MAX_LINE`` characters. A line that reaches the limit, or
    a byte that is not UTF-8, raises ``error`` beginning ``{path}:{line}: ``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line_no, line in enumerate(iter(lambda: fh.readline(_MAX_LINE), ""), start=1):
            if len(line) == _MAX_LINE:
                raise error(f"{path}:{line_no}: line reaches {_MAX_LINE} characters")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as e:  # a surrogate stands for a byte not UTF-8
                raise error(f"{path}:{line_no}: byte 0x{ord(e.object[e.start]) - 0xDC00:02x} "
                            "is not UTF-8") from None
            yield line


def read_csv(path: str, error=ValueError) -> Iterator[tuple[str, list[str]]]:
    """Each row of the CSV file at ``path``, read by ``read_lines``, with
    ``where``, its ``{path}:{line}``. A field longer than csv's limit raises
    ``error`` beginning with that ``where``, as ``read_lines`` does."""
    reader = csv.reader(read_lines(path, error))
    try:
        for row in reader:
            yield f"{path}:{reader.line_num}", row
    except csv.Error as e:
        raise error(f"{path}:{reader.line_num}: {e}") from None
