"""CT preprocessing: slice selection, resampling, cropping, clip-normalization.

Stage order is fixed — select a 2-D axial slice, bilinear-resample to the
target extent, keep its central ``crop_fraction``, resample again if the crop
changed the extent, then clip to a Hounsfield window and normalize to [0, 1].
Every stage is a pure function; ``preprocess`` composes them and re-raises any
stage failure with the stage name attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SLICE_POLICIES = ("middle-axial", "index", "max-mean-intensity")
MIN_CROP_EXTENT = 8


class DegenerateCropError(ValueError):
    """Crop window collapsed below the minimum usable extent."""


class PreprocessError(ValueError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class PreprocessConfig:
    target_size: int = 224
    crop_fraction: float = 1.0
    slice_policy: str = "middle-axial"
    slice_index: int = 0
    clip_lo: float = -1000.0
    clip_hi: float = 400.0

    def __post_init__(self):
        for key in ("clip_lo", "clip_hi"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not self.clip_lo < self.clip_hi:
            raise ValueError(f"clip_lo must be below clip_hi, got ({self.clip_lo}, {self.clip_hi})")
        if self.target_size < MIN_CROP_EXTENT:
            raise ValueError(f"target_size must be >= {MIN_CROP_EXTENT}, got {self.target_size}")
        if not 0.0 < self.crop_fraction <= 1.0:
            raise ValueError(f"crop_fraction must be in (0, 1], got {self.crop_fraction}")
        if self.slice_policy not in SLICE_POLICIES:
            raise ValueError(f"slice_policy must be one of {SLICE_POLICIES}, got {self.slice_policy!r}")
        if self.slice_index < 0:
            raise ValueError(f"slice_index must be >= 0, got {self.slice_index}")
        if self.slice_index and self.slice_policy != "index":
            raise ValueError(f"slice_index {self.slice_index} is read only when slice_policy "
                             f"is 'index', got slice_policy {self.slice_policy!r}")


@dataclass
class ProcessedImage:
    """A model-ready image: target_size x target_size float32 pixels in [0, 1]."""

    pixels: np.ndarray


def select_slice(vox: np.ndarray, policy: str = "middle-axial", index: int = 0) -> np.ndarray:
    """Pick one axial (y, x) slice, as a float64 copy, from a (z, y, x) voxel
    array; every pixel must be finite."""
    if vox.ndim != 3:
        raise ValueError(f"select_slice expects a 3-D volume, got {vox.ndim}-D")
    depth = vox.shape[0]
    if depth < 1:
        raise ValueError("select_slice: volume has zero depth")
    if policy == "middle-axial":
        k = depth // 2
    elif policy == "index":
        if not 0 <= index < depth:
            raise IndexError(f"slice index {index} out of range for depth {depth}")
        k = index
    elif policy == "max-mean-intensity":
        k = int(np.argmax(vox.reshape(depth, -1).mean(axis=1)))
    else:
        raise ValueError(f"unknown slice policy {policy!r}")
    image = np.array(vox[k], dtype=np.float64)
    finite = np.isfinite(image)
    if not finite.all():
        y, x = np.argwhere(~finite)[0]
        raise ValueError(f"slice {k} holds a non-finite value {image[y, x]} at (y, x) = ({y}, {x})")
    return image


def resample(image: np.ndarray, target: int) -> np.ndarray:
    """Bilinear resample to target x target, corners aligned to corners.

    Source coordinate of output pixel i along an axis of extent n is
    i * (n - 1) / (target - 1), so the physical field of view is preserved.
    An identity resample (target == H == W) returns the input bit-for-bit.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"resample expects a 2-D image, got {img.ndim}-D")
    h, w = img.shape
    if h < 2 or w < 2:
        raise ValueError(f"resample needs at least 2x2 input, got {h}x{w}")
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    if h == target and w == target:
        return img.copy()
    ys = np.linspace(0.0, h - 1.0, target)
    xs = np.linspace(0.0, w - 1.0, target)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[y0[:, None], x0[None, :]] * (1.0 - wx) + img[y0[:, None], x1[None, :]] * wx
    bottom = img[y1[:, None], x0[None, :]] * (1.0 - wx) + img[y1[:, None], x1[None, :]] * wx
    return top * (1.0 - wy) + bottom * wy


def crop(image: np.ndarray, fraction: float = 1.0) -> np.ndarray:
    """Keep the central ``fraction`` of each axis; 1.0 copies the whole image."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"crop expects a 2-D image, got {img.ndim}-D")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"crop fraction must be in (0, 1], got {fraction}")
    h, w = img.shape
    ch = int(round(fraction * h))
    cw = int(round(fraction * w))
    if ch < MIN_CROP_EXTENT or cw < MIN_CROP_EXTENT:
        raise DegenerateCropError(
            f"crop fraction {fraction} of {h}x{w} yields {ch}x{cw}, "
            f"below the {MIN_CROP_EXTENT}x{MIN_CROP_EXTENT} minimum")
    y0 = (h - ch) // 2
    x0 = (w - cw) // 2
    return img[y0:y0 + ch, x0:x0 + cw].copy()


def clip_normalize(image: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """x -> (clamp(x, lo, hi) - lo) / (hi - lo), a monotone map onto [0, 1]."""
    if not lo < hi:
        raise ValueError(f"clip window must satisfy lo < hi, got ({lo}, {hi})")
    img = np.asarray(image, dtype=np.float64)
    return (np.clip(img, lo, hi) - lo) / (hi - lo)


def preprocess(voxels: np.ndarray, config: PreprocessConfig) -> ProcessedImage:
    """Run the full pipeline on a (z, y, x) voxel array in Hounsfield units;
    stage failures surface as PreprocessError naming the stage (the caller
    names the study)."""

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, IndexError) as e:
            raise PreprocessError(name, str(e)) from e

    image = stage("select_slice", select_slice, voxels,
                  config.slice_policy, config.slice_index)
    image = stage("resample", resample, image, config.target_size)
    cropped = stage("crop", crop, image, config.crop_fraction)
    if cropped.shape != image.shape:
        cropped = stage("resample", resample, cropped, config.target_size)
    image = stage("clip_normalize", clip_normalize, cropped, config.clip_lo, config.clip_hi)
    return ProcessedImage(pixels=image.astype(np.float32))
