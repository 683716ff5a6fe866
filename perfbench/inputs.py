"""Seeded input generation for the benchmark workloads.

Inputs are built in the parent process, so the workload subprocess starts
with a heap that holds only densect and the benchmark's own code. They are
cached under ``.perfbench/cache/<workload>-seed<n>``; only the most recent
seed of each workload is kept, which bounds disk use to one input set per
workload.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from densect.data import load_study_image, synth_generate
from densect.mha import Volume, write_mha_file
from densect.model import DENSENET121, DenseNetModel
from densect.preprocess import PreprocessConfig

# train_reduced: the CLI's own synthetic set, the size the acceptance suite uses
REDUCED_STUDIES, REDUCED_SIZE, REDUCED_DEPTH = 32, 64, 8
# train_densenet121: in-memory images, one pass = IMAGES // batch steps
DENSENET_IMAGES, DENSENET_SIZE = 16, 96
# infer_cold: full-resolution axial planes; one study in INFER_STUDIES is zlib
INFER_STUDIES, INFER_PLANE, INFER_DEPTH = 4, 512, 64
HU_OFFSET = 1024  # stored = HU + 1024, undone by RescaleIntercept


def _ct_volume(rng: np.random.Generator, depth: int, n: int) -> np.ndarray:
    """int16 chest-like volume: air, an elliptic body, two lungs, 1-3 dense
    lesions at seeded places, and per-voxel noise, stored as HU + 1024."""
    yy, xx = np.ogrid[:n, :n]
    cy, cx = n / 2 + rng.uniform(-20, 20), n / 2 + rng.uniform(-20, 20)
    ry, rx = rng.uniform(0.33, 0.42) * n, rng.uniform(0.40, 0.47) * n
    plane = np.full((n, n), -1000.0)
    plane[((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1] = 40.0
    for side in (-1, 1):
        lung = ((yy - cy) / (0.75 * ry)) ** 2 + ((xx - cx - side * 0.45 * rx) / (0.35 * rx)) ** 2
        plane[lung <= 1] = -850.0
    for _ in range(rng.integers(1, 4)):
        ly, lx = rng.uniform(cy - ry / 2, cy + ry / 2), rng.uniform(cx - rx / 2, cx + rx / 2)
        s = rng.uniform(8, 30)
        plane += 700.0 * np.exp(-((yy - ly) ** 2 + (xx - lx) ** 2) / (2 * s * s))
    base = np.rint(plane + HU_OFFSET).astype(np.int16)
    vox = np.empty((depth, n, n), dtype=np.int16)
    for z in range(depth):
        vox[z] = base + rng.integers(-30, 31, size=(n, n), dtype=np.int16)
    return vox


def _train_reduced(root: str, seed: int) -> dict:
    synth_generate(REDUCED_STUDIES, os.path.join(root, "dataset"), seed=seed,
                   image_size=REDUCED_SIZE, depth=REDUCED_DEPTH)
    return {"dataset": os.path.join(root, "dataset")}


def _train_densenet121(root: str, seed: int) -> dict:
    records = synth_generate(DENSENET_IMAGES, os.path.join(root, "studies"), seed=seed,
                             image_size=DENSENET_SIZE, depth=4)
    config = PreprocessConfig(target_size=DENSENET_SIZE)
    images = np.stack([load_study_image(r, config) for r in records])[:, None]
    labels = np.array([[r.label_covid, r.label_severe] for r in records], dtype=np.float32)
    path = os.path.join(root, "images.npz")
    np.savez(path, images=images.astype(np.float32), labels=labels)
    return {"images": path}


def _infer_cold(root: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    compressed = int(rng.integers(INFER_STUDIES))
    studies = []
    for i in range(INFER_STUDIES):
        volume = Volume.from_array(_ct_volume(rng, INFER_DEPTH, INFER_PLANE))
        volume.header.raw_fields["RescaleSlope"] = "1"
        volume.header.raw_fields["RescaleIntercept"] = str(-HU_OFFSET)
        path = os.path.join(root, f"study{i}.mha")
        write_mha_file(path, volume, compress=i == compressed)
        studies.append({"path": path, "zlib": i == compressed})
    checkpoint = os.path.join(root, "densenet121.ckpt")
    DenseNetModel(DENSENET121, seed=seed).save_checkpoint(checkpoint)
    return {"studies": studies, "checkpoint": checkpoint}


GENERATORS = {
    "train_reduced": _train_reduced,
    "train_densenet121": _train_densenet121,
    "infer_cold": _infer_cold,
}


def prepare(cache_root: str, workload: str, seed: int) -> dict:
    """Return the input description for (workload, seed), building it once."""
    root = os.path.join(cache_root, f"{workload}-seed{seed}")
    done = os.path.join(root, "inputs.json")
    if os.path.exists(done):
        with open(done) as fh:
            return json.load(fh)
    os.makedirs(cache_root, exist_ok=True)
    for name in os.listdir(cache_root):
        if name.startswith(f"{workload}-seed"):
            shutil.rmtree(os.path.join(cache_root, name))
    os.makedirs(root)
    spec = GENERATORS[workload](root, seed)
    spec["dir"] = root
    with open(done + ".tmp", "w") as fh:
        json.dump(spec, fh)
    os.replace(done + ".tmp", done)
    return spec
