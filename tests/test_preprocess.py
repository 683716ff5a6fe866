"""Preprocessing tests.

The bilinear reference below is a direct per-pixel transcription of
corner-aligned interpolation; the vectorized implementation is checked
against it on random images before anything else relies on it.
"""

import ast
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densect.preprocess
from densect.preprocess import (
    DegenerateCropError,
    PreprocessConfig,
    PreprocessError,
    ProcessedImage,
    clip_normalize,
    crop,
    preprocess,
    resample,
    select_slice,
)


def bilinear_ref(img, target):
    """Scalar-loop bilinear resample with corners mapped to corners."""
    h, w = img.shape
    out = np.zeros((target, target))
    for i in range(target):
        for j in range(target):
            sy = i * (h - 1) / (target - 1) if target > 1 else 0.0
            sx = j * (w - 1) / (target - 1) if target > 1 else 0.0
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[i, j] = top * (1 - fy) + bot * fy
    return out


# ---------------------------------------------------------------- resample

@pytest.mark.parametrize("h,w,target", [(8, 8, 5), (5, 9, 12), (16, 16, 16),
                                        (7, 3, 7), (2, 2, 9), (31, 17, 8)])
def test_resample_matches_reference(h, w, target):
    rng = np.random.default_rng(h * 100 + w * 10 + target)
    img = rng.normal(size=(h, w))
    npt.assert_allclose(resample(img, target), bilinear_ref(img, target),
                        rtol=1e-12, atol=1e-12)


def test_resample_identity_is_bit_exact():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(224, 224))
    out = resample(img, 224)
    npt.assert_array_equal(out, img)
    assert out is not img  # a defensive copy, not an alias


def test_resample_corners_align():
    # Corner pixels of the output are exactly the corner pixels of the input.
    rng = np.random.default_rng(1)
    img = rng.normal(size=(50, 30))
    out = resample(img, 7)
    assert out[0, 0] == img[0, 0]
    assert out[0, -1] == img[0, -1]
    assert out[-1, 0] == img[-1, 0]
    assert out[-1, -1] == img[-1, -1]


def test_resample_constant_stays_constant():
    img = np.full((13, 21), 7.25)
    npt.assert_allclose(resample(img, 9), np.full((9, 9), 7.25), rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 20), st.integers(2, 20), st.integers(2, 24),
       st.integers(0, 2**31 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_resample_is_linear(h, w, target, seed, a, b):
    # resample(a*x + b*y) == a*resample(x) + b*resample(y) up to round-off
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(h, w))
    y = rng.normal(size=(h, w))
    lhs = resample(a * x + b * y, target)
    rhs = a * resample(x, target) + b * resample(y, target)
    npt.assert_allclose(lhs, rhs, atol=1e-5, rtol=1e-5)


def test_resample_output_within_input_range():
    # Convex interpolation can't overshoot the data.
    rng = np.random.default_rng(2)
    img = rng.uniform(-500, 500, size=(40, 40))
    out = resample(img, 224)
    assert out.min() >= img.min() - 1e-9
    assert out.max() <= img.max() + 1e-9


def test_resample_rejects_bad_inputs():
    with pytest.raises(ValueError):
        resample(np.zeros((1, 5)), 4)
    with pytest.raises(ValueError):
        resample(np.zeros((4, 4)), 0)
    with pytest.raises(ValueError):
        resample(np.zeros((4, 4, 4)), 4)


# ---------------------------------------------------------------- select_slice

def ramp_volume(depth, h=6, w=5):
    """Voxel value encodes its slice index, so selection is observable."""
    vox = np.zeros((depth, h, w), dtype=np.int16)
    for z in range(depth):
        vox[z] = z
    return vox


def test_middle_axial_of_depth_40_is_slice_20():
    out = select_slice(ramp_volume(40), "middle-axial")
    npt.assert_array_equal(out, np.full((6, 5), 20.0))


def test_middle_axial_odd_depth():
    out = select_slice(ramp_volume(9), "middle-axial")
    npt.assert_array_equal(out, np.full((6, 5), 4.0))


def test_index_policy_and_bounds():
    out = select_slice(ramp_volume(10), "index", index=7)
    npt.assert_array_equal(out, np.full((6, 5), 7.0))
    with pytest.raises(IndexError):
        select_slice(ramp_volume(10), "index", index=10)
    with pytest.raises(IndexError):
        select_slice(ramp_volume(10), "index", index=-1)


def test_max_mean_intensity_picks_brightest():
    vox = np.zeros((8, 4, 4), dtype=np.float32)
    vox[5] = 100.0
    vox[5, 0, 0] = -50.0  # still the brightest mean
    out = select_slice(vox, "max-mean-intensity")
    npt.assert_array_equal(out, vox[5].astype(np.float64))


def test_select_slice_needs_3d():
    with pytest.raises(ValueError, match="3-D"):
        select_slice(np.zeros((4, 4), dtype=np.int16))


def test_depth_one_volume_works_under_every_policy():
    vol = ramp_volume(1)
    for policy, kwargs in [("middle-axial", {}), ("index", {"index": 0}),
                           ("max-mean-intensity", {})]:
        out = select_slice(vol, policy, **kwargs)
        npt.assert_array_equal(out, np.zeros((6, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_pixel_in_the_selected_slice_is_a_select_slice_error(bad):
    vox = np.zeros((5, 6, 7), dtype=np.float32)
    vox[2, 3, 4] = vox[2, 5, 0] = bad
    vox[0, 0, 0] = np.nan   # outside the selected slice: not looked at
    with pytest.raises(PreprocessError, match=r"slice 2 .* at \(y, x\) = \(3, 4\)") as exc:
        preprocess(vox, PreprocessConfig(target_size=16))
    assert exc.value.stage == "select_slice"
    clean = preprocess(vox, PreprocessConfig(target_size=16, slice_policy="index",
                                             slice_index=4))
    assert np.isfinite(clean.pixels).all()


def test_select_slice_returns_float64_copy():
    vol = ramp_volume(4)
    out = select_slice(vol, "middle-axial")
    assert out.dtype == np.float64
    out[0, 0] = 999.0
    assert vol[2, 0, 0] == 2  # original untouched


# ---------------------------------------------------------------- crop

def test_crop_at_full_fraction_is_identity():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(20, 20))
    npt.assert_array_equal(crop(img), img)
    npt.assert_array_equal(crop(img, 1.0), img)


def test_center_fraction_window_and_offset():
    img = np.arange(224 * 224, dtype=np.float64).reshape(224, 224)
    out = crop(img, 0.5)
    assert out.shape == (112, 112)
    # offset (224-112)//2 = 56 along both axes
    npt.assert_array_equal(out, img[56:168, 56:168])


@pytest.mark.parametrize("h,w,f", [(100, 80, 0.35), (17, 33, 0.9), (64, 64, 1.0)])
def test_center_fraction_against_index_arithmetic(h, w, f):
    img = np.random.default_rng(42).normal(size=(h, w))
    out = crop(img, f)
    ch, cw = int(round(f * h)), int(round(f * w))
    y0, x0 = (h - ch) // 2, (w - cw) // 2
    npt.assert_array_equal(out, img[y0:y0 + ch, x0:x0 + cw])


def test_degenerate_crop_raises():
    img = np.zeros((32, 32))
    with pytest.raises(DegenerateCropError):
        crop(img, 0.1)  # 3x3 window
    # 8x8 exactly is the smallest legal window
    assert crop(img, 0.25).shape == (8, 8)
    # the minimum holds at 1.0 too; preprocess never crops below 8 px
    with pytest.raises(DegenerateCropError):
        crop(np.zeros((7, 7)))


# ---------------------------------------------------------------- clip_normalize

def test_clip_normalize_frozen_points():
    img = np.array([[-2000.0, -1000.0, -300.0, 400.0, 3000.0]])
    out = clip_normalize(img, -1000.0, 400.0)
    npt.assert_array_equal(out, np.array([[0.0, 0.0, 0.5, 1.0, 1.0]]))


def test_clip_normalize_bounds():
    rng = np.random.default_rng(4)
    img = rng.uniform(-4000, 4000, size=(50, 50))
    out = clip_normalize(img, -1000.0, 400.0)
    assert out.min() >= 0.0 and out.max() <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-3000, 3000), st.floats(-3000, 3000))
def test_clip_normalize_is_monotone(a, b):
    lo, hi = -1000.0, 400.0
    fa = clip_normalize(np.array([[a]]), lo, hi)[0, 0]
    fb = clip_normalize(np.array([[b]]), lo, hi)[0, 0]
    if a <= b:
        assert fa <= fb
    else:
        assert fa >= fb


def test_clip_normalize_rejects_empty_window():
    with pytest.raises(ValueError):
        clip_normalize(np.zeros((2, 2)), 400.0, -1000.0)
    with pytest.raises(ValueError):
        clip_normalize(np.zeros((2, 2)), 5.0, 5.0)


# ---------------------------------------------------------------- pipeline

def ct_like_volume(depth=12, h=64, w=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(-1000, 400, size=(depth, h, w)).astype(np.int16)


def test_preprocess_shape_dtype_and_range():
    cfg = PreprocessConfig(target_size=32)
    out = preprocess(ct_like_volume(), cfg)
    assert isinstance(out, ProcessedImage)
    assert out.pixels.shape == (32, 32)
    assert out.pixels.dtype == np.float32
    assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


def test_preprocess_is_deterministic():
    cfg = PreprocessConfig(target_size=48, crop_fraction=0.8)
    vol = ct_like_volume(seed=9)
    a = preprocess(vol, cfg).pixels
    b = preprocess(vol, cfg).pixels
    npt.assert_array_equal(a, b)


def test_preprocess_crop_resamples_back_to_target():
    cfg = PreprocessConfig(target_size=56, crop_fraction=0.5)
    out = preprocess(ct_like_volume(), cfg)
    assert out.pixels.shape == (56, 56)


def test_preprocess_window_spanning_data_hits_exact_endpoints():
    # window == data range, extremes at corners (preserved by edge-aligned
    # resampling) -> output touches exactly 0 and 1
    vox = np.full((3, 16, 16), -300, dtype=np.int16)
    vox[1, 0, 0] = -1000
    vox[1, -1, -1] = 400
    cfg = PreprocessConfig(target_size=32, clip_lo=-1000.0, clip_hi=400.0)
    out = preprocess(vox, cfg)
    assert out.pixels.min() == 0.0
    assert out.pixels.max() == 1.0


def test_preprocess_equals_manual_stage_composition():
    cfg = PreprocessConfig(target_size=40, clip_lo=-500.0, clip_hi=300.0,
                           slice_policy="index", slice_index=3)
    vol = ct_like_volume(seed=5)
    out = preprocess(vol, cfg).pixels
    manual = select_slice(vol, "index", 3)
    manual = resample(manual, 40)
    manual = clip_normalize(manual, -500.0, 300.0).astype(np.float32)
    npt.assert_array_equal(out, manual)


def test_preprocess_crop_equals_manual_stage_composition():
    cfg = PreprocessConfig(target_size=40, crop_fraction=0.5, clip_lo=-500.0,
                           clip_hi=300.0, slice_policy="index", slice_index=3)
    vol = ct_like_volume(seed=5)
    out = preprocess(vol, cfg).pixels
    manual = select_slice(vol, "index", 3)
    manual = resample(manual, 40)
    manual = crop(manual, 0.5)
    assert manual.shape == (20, 20)
    manual = resample(manual, 40)
    manual = clip_normalize(manual, -500.0, 300.0).astype(np.float32)
    npt.assert_array_equal(out, manual)


def test_preprocess_follows_a_non_default_config():
    cfg = PreprocessConfig(target_size=24, crop_fraction=0.75,
                           slice_policy="max-mean-intensity")
    out = preprocess(ct_like_volume(), cfg)
    assert out.pixels.shape == (24, 24)


def test_stage_errors_carry_stage_name():
    with pytest.raises(PreprocessError, match="select_slice"):
        preprocess(np.zeros((4, 4), dtype=np.int16),
                   PreprocessConfig(target_size=16))
    bad_index = PreprocessConfig(target_size=16, slice_policy="index",
                                 slice_index=99)
    with pytest.raises(PreprocessError) as exc:
        preprocess(ct_like_volume(), bad_index)
    assert exc.value.stage == "select_slice"
    tiny_crop = PreprocessConfig(target_size=16, crop_fraction=0.2)  # 3x3 of 16 -> degenerate
    with pytest.raises(PreprocessError) as exc:
        preprocess(ct_like_volume(), tiny_crop)
    assert exc.value.stage == "crop"


def test_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(clip_lo=400.0, clip_hi=-1000.0)
    with pytest.raises(ValueError):
        PreprocessConfig(crop_fraction=0.0)
    with pytest.raises(ValueError):
        PreprocessConfig(crop_fraction=1.5)
    with pytest.raises(ValueError):
        PreprocessConfig(slice_policy="sagittal")
    with pytest.raises(ValueError):
        PreprocessConfig(target_size=4)
    with pytest.raises(ValueError, match="slice_index"):
        PreprocessConfig(slice_policy="index", slice_index=-1)


@pytest.mark.parametrize("policy", ["middle-axial", "max-mean-intensity"])
def test_a_slice_index_without_the_index_policy_is_refused(policy):
    # only the index policy reads slice_index, so setting it under another
    # policy is an error, not a silently ignored value
    with pytest.raises(ValueError, match=rf"slice_index 7 .* slice_policy '{policy}'"):
        PreprocessConfig(slice_policy=policy, slice_index=7)
    assert PreprocessConfig(slice_policy=policy, slice_index=0).slice_index == 0
    assert PreprocessConfig(slice_policy="index", slice_index=7).slice_index == 7


@pytest.mark.parametrize("key, value", [
    ("clip_lo", -np.inf), ("clip_lo", np.nan), ("clip_hi", np.inf), ("clip_hi", np.nan)])
def test_config_requires_a_finite_clip_window(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        PreprocessConfig(**{key: value})


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(9, 40), st.integers(9, 40),
       st.floats(0.5, 1.0), st.integers(0, 2**31 - 1))
def test_pipeline_always_lands_in_unit_box(depth, h, w, frac, seed):
    rng = np.random.default_rng(seed)
    vox = rng.integers(-2000, 2000, size=(depth, h, w)).astype(np.int16)
    cfg = PreprocessConfig(target_size=16, crop_fraction=frac)
    out = preprocess(vox, cfg)
    assert out.pixels.shape == (16, 16)
    assert 0.0 <= out.pixels.min() and out.pixels.max() <= 1.0


def test_preprocess_imports_no_densect_module():
    # the stages take a bare voxel array, so preprocessing needs no other
    # part of the package
    tree = ast.parse(Path(densect.preprocess.__file__).read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [line for line in imports if re.match(r"(from|import) (\.|densect\b)", line)] == []
