"""Dataset layer tests: reference parsing, splits, batching, synthesis."""

import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densect.data import (
    Batch,
    DataError,
    DatasetSplit,
    ItemError,
    ReferenceFormatError,
    StudyRecord,
    batches,
    load_reference,
    load_study_image,
    split,
    synth_generate,
)
from densect.mha import read_mha_file
from densect.preprocess import PreprocessConfig

CFG16 = PreprocessConfig(target_size=16)


def write_csv(tmp_path, text, name="reference.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- load_reference

def test_load_reference_parses_rows(tmp_path):
    path = write_csv(tmp_path,
                     "PatientID,probCOVID,probSevere\n"
                     "covid-42,1,0\n"
                     "covid-43,0,0\n"
                     "covid-44,1,1\n")
    records = load_reference(path)
    assert [r.patient_id for r in records] == ["covid-42", "covid-43", "covid-44"]
    assert [(r.label_covid, r.label_severe) for r in records] == [(1, 0), (0, 0), (1, 1)]
    assert records[0].volume_path == str(tmp_path / "data" / "covid-42.mha")


def test_load_reference_custom_data_dir(tmp_path):
    path = write_csv(tmp_path, "PatientID,probCOVID,probSevere\np1,0,0\n")
    records = load_reference(path, data_dir="/elsewhere")
    assert records[0].volume_path == os.path.join("/elsewhere", "p1.mha")


def test_load_reference_tolerates_blank_lines_and_spaces(tmp_path):
    path = write_csv(tmp_path,
                     "PatientID, probCOVID, probSevere\n"
                     "p1, 1 , 0\n"
                     "\n"
                     "p2,0,1\n")
    records = load_reference(path)
    assert len(records) == 2
    assert records[0].label_covid == 1


@pytest.mark.parametrize("body,fragment", [
    ("PatientID,probCOVID\np1,1\n", "header"),
    ("id,covid,severe\np1,1,0\n", "header"),
    ("PatientID,probCOVID,probSevere\np1,2,0\n", "probCOVID"),
    ("PatientID,probCOVID,probSevere\np1,1.0,0\n", "probCOVID"),
    ("PatientID,probCOVID,probSevere\np1,1,yes\n", "probSevere"),
    ("PatientID,probCOVID,probSevere\np1,1\n", "3 fields"),
    ("PatientID,probCOVID,probSevere\n,1,0\n", "empty PatientID"),
    ("PatientID,probCOVID,probSevere\np1,1,0\np1,0,0\n", "duplicate"),
    ("", "empty"),
])
def test_load_reference_rejects_malformed(tmp_path, body, fragment):
    path = write_csv(tmp_path, body)
    with pytest.raises(ReferenceFormatError, match=fragment):
        load_reference(path)


def test_load_reference_header_only_is_empty_dataset(tmp_path):
    path = write_csv(tmp_path, "PatientID,probCOVID,probSevere\n")
    assert load_reference(path) == []


def test_load_reference_error_names_line(tmp_path):
    path = write_csv(tmp_path,
                     "PatientID,probCOVID,probSevere\n"
                     "p1,1,0\n"
                     "p2,7,0\n")
    with pytest.raises(ReferenceFormatError, match="line 3"):
        load_reference(path)


def test_load_reference_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_reference(str(tmp_path / "nope.csv"))


# ---------------------------------------------------------------- split

def fake_records(n):
    return [StudyRecord(f"p{i:02d}", f"/none/p{i:02d}.mha", i % 2, 0)
            for i in range(n)]


def test_split_partitions_exactly():
    records = fake_records(17)
    s = split(records, val_count=5, seed=3)
    assert len(s.train) == 12 and len(s.val) == 5
    ids = sorted(r.patient_id for r in s.train + s.val)
    assert ids == sorted(r.patient_id for r in records)
    assert not {r.patient_id for r in s.train} & {r.patient_id for r in s.val}


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.data())
def test_split_partition_property(n, data):
    val_count = data.draw(st.integers(1, n - 1))
    seed = data.draw(st.integers(0, 2**31 - 1))
    records = fake_records(n)
    s = split(records, val_count, seed)
    assert len(s.val) == val_count
    assert len(s.train) + len(s.val) == n
    combined = {r.patient_id for r in s.train} | {r.patient_id for r in s.val}
    assert combined == {r.patient_id for r in records}


def test_split_deterministic_and_seed_sensitive():
    records = fake_records(30)
    a = split(records, 10, seed=7)
    b = split(records, 10, seed=7)
    assert [r.patient_id for r in a.val] == [r.patient_id for r in b.val]
    c = split(records, 10, seed=8)
    assert [r.patient_id for r in a.val] != [r.patient_id for r in c.val]


def test_split_val_count_bounds():
    records = fake_records(5)
    with pytest.raises(ValueError):
        split(records, 5)  # would leave no training data
    with pytest.raises(ValueError):
        split(records, 0)  # would leave no validation data
    with pytest.raises(ValueError):
        split(records, -1)


# ---------------------------------------------------------------- synth_generate

def test_synth_labels_follow_cycle(tmp_path):
    records = synth_generate(8, str(tmp_path), seed=0, image_size=32, depth=4)
    assert [(r.label_covid, r.label_severe) for r in records] == [
        (0, 0), (1, 0), (0, 0), (1, 1), (0, 0), (1, 0), (0, 0), (1, 1)]
    for r in records:
        assert r.label_severe <= r.label_covid  # severe implies positive


def test_synth_reference_round_trips(tmp_path):
    written = synth_generate(6, str(tmp_path), seed=1, image_size=32, depth=4)
    loaded = load_reference(str(tmp_path / "reference.csv"))
    assert [(r.patient_id, r.label_covid, r.label_severe) for r in loaded] == \
           [(r.patient_id, r.label_covid, r.label_severe) for r in written]
    for r in loaded:
        assert os.path.exists(r.volume_path)


def test_synth_volumes_are_lung_like_int16(tmp_path):
    records = synth_generate(4, str(tmp_path), seed=2, image_size=32, depth=4)
    for r in records:
        vol = read_mha_file(r.volume_path)
        assert vol.header.element_type == "MET_SHORT"
        assert vol.voxels.shape == (4, 32, 32)
        # background sits near -800 HU
        assert -900 < np.median(vol.voxels) < -700


def test_synth_lesion_visible_only_on_positives(tmp_path):
    records = synth_generate(8, str(tmp_path), seed=3, image_size=32, depth=4)
    for r in records:
        vol = read_mha_file(r.volume_path)
        mid = vol.voxels[vol.voxels.shape[0] // 2].astype(np.float64)
        if r.label_covid:
            assert mid.max() > -200  # lesion pushes well above background
        else:
            assert mid.max() < -500


def test_synth_severe_adds_second_lesion(tmp_path):
    records = synth_generate(8, str(tmp_path), seed=4, image_size=32, depth=4)
    by_label = {}
    for r in records:
        vol = read_mha_file(r.volume_path)
        mid = vol.voxels[vol.voxels.shape[0] // 2]
        lesion_area = int((mid > -400).sum())
        by_label.setdefault((r.label_covid, r.label_severe), []).append(lesion_area)
    assert max(by_label[(0, 0)]) == 0
    assert min(by_label[(1, 1)]) > max(by_label[(1, 0)])  # two lesions > one


def test_synth_deterministic(tmp_path):
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    synth_generate(4, a_dir, seed=9, image_size=32, depth=4)
    synth_generate(4, b_dir, seed=9, image_size=32, depth=4)
    ref_a = (tmp_path / "a" / "reference.csv").read_bytes()
    assert ref_a == (tmp_path / "b" / "reference.csv").read_bytes()
    for i in range(4):
        pa = tmp_path / "a" / "data" / f"synth{i:03d}.mha"
        pb = tmp_path / "b" / "data" / f"synth{i:03d}.mha"
        assert pa.read_bytes() == pb.read_bytes()


def test_synth_argument_validation(tmp_path):
    with pytest.raises(ValueError):
        synth_generate(0, str(tmp_path))
    with pytest.raises(ValueError):
        synth_generate(2, str(tmp_path), image_size=8)


# ---------------------------------------------------------------- batches

@pytest.fixture()
def small_dataset(tmp_path):
    return synth_generate(10, str(tmp_path), seed=5, image_size=32, depth=4)


def test_batches_shapes_and_partial_tail(small_dataset):
    out = list(batches(small_dataset, 4, CFG16))
    assert [b.images.shape[0] for b in out] == [4, 4, 2]
    for b in out:
        assert b.images.shape[1:] == (1, 16, 16)
        assert b.images.dtype == np.float32
        assert b.labels.shape == (b.images.shape[0], 2)
        assert b.labels.dtype == np.float32
        assert 0.0 <= b.images.min() and b.images.max() <= 1.0


def test_batches_targets_match_reference(small_dataset):
    by_id = {r.patient_id: r for r in small_dataset}
    for b in batches(small_dataset, 3, CFG16, shuffle_seed=11, epoch=2):
        for pid, target in zip(b.patient_ids, b.labels):
            rec = by_id[pid]
            assert target[0] == rec.label_covid
            assert target[1] == rec.label_severe


def test_batches_unshuffled_order_is_input_order(small_dataset):
    seen = [pid for b in batches(small_dataset, 4, CFG16) for pid in b.patient_ids]
    assert seen == [r.patient_id for r in small_dataset]


def test_batches_shuffle_is_reproducible(small_dataset):
    def order(epoch):
        return [pid for b in batches(small_dataset, 4, CFG16,
                                     shuffle_seed=7, epoch=epoch)
                for pid in b.patient_ids]
    assert order(0) == order(0)
    assert order(0) != order(1)  # epochs see different permutations
    assert sorted(order(1)) == sorted(r.patient_id for r in small_dataset)


def test_batches_cache_is_used(small_dataset, tmp_path):
    cache = {}
    list(batches(small_dataset, 5, CFG16, cache=cache))
    assert len(cache) == 10
    # With a warm cache the files are never touched again.
    for r in small_dataset:
        os.remove(r.volume_path)
    again = list(batches(small_dataset, 5, CFG16, cache=cache))
    assert sum(b.images.shape[0] for b in again) == 10


def test_memory_cache_keys_by_patient_and_config(small_dataset):
    # one dict shared by two configs must not serve the first config's pixels
    # to the second; a fresh, uncached load is the oracle for each
    cache = {}
    narrow = PreprocessConfig(target_size=16, clip_window=(-200.0, 100.0))
    wide = load_study_image(small_dataset[0], CFG16, cache)
    clipped = load_study_image(small_dataset[0], narrow, cache)
    assert wide.shape == clipped.shape and not np.array_equal(wide, clipped)
    npt.assert_array_equal(clipped, load_study_image(small_dataset[0], narrow))
    npt.assert_array_equal(load_study_image(small_dataset[0], CFG16, cache),
                           load_study_image(small_dataset[0], CFG16))


def test_disk_cache_round_trips_and_keys_by_config(small_dataset, tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = load_study_image(small_dataset[0], CFG16, cache_dir=cache_dir)
    files = os.listdir(cache_dir)
    assert len(files) == 1 and files[0].endswith(".npy")
    # A different config must not reuse the entry.
    other = PreprocessConfig(target_size=24)
    load_study_image(small_dataset[0], other, cache_dir=cache_dir)
    assert len(os.listdir(cache_dir)) == 2
    # A warm disk cache survives deletion of the source volume.
    os.remove(small_dataset[0].volume_path)
    again = load_study_image(small_dataset[0], CFG16, cache_dir=cache_dir)
    npt.assert_array_equal(again, first)


def test_batches_argument_validation(small_dataset):
    with pytest.raises(ValueError):
        list(batches(small_dataset, 0, CFG16))
    with pytest.raises(ValueError):
        list(batches([], 4, CFG16))


def test_item_error_names_patient(tmp_path):
    rec = StudyRecord("ghost", str(tmp_path / "ghost.mha"), 0, 0)
    with pytest.raises(ItemError) as exc:
        load_study_image(rec, CFG16)
    assert exc.value.patient_id == "ghost"
    assert "ghost" in str(exc.value)
    assert isinstance(exc.value, DataError)


def test_item_error_on_corrupt_volume(tmp_path):
    bad = tmp_path / "bad.mha"
    bad.write_bytes(b"ObjectType = Image\nnot a header at all")
    rec = StudyRecord("bad", str(bad), 1, 0)
    with pytest.raises(ItemError, match="bad"):
        load_study_image(rec, CFG16)


def test_item_error_on_degenerate_preprocess(small_dataset):
    cfg = PreprocessConfig(target_size=16, crop_policy="center-fraction",
                           crop_fraction=0.2)
    with pytest.raises(ItemError):
        load_study_image(small_dataset[0], cfg)


# ---------------------------------------------------------------- end to end

def test_full_pipeline_synth_to_batches(tmp_path):
    synth_generate(12, str(tmp_path), seed=6, image_size=32, depth=4)
    records = load_reference(str(tmp_path / "reference.csv"))
    parts = split(records, val_count=4, seed=1)
    train_ids = []
    for b in batches(parts.train, 3, CFG16, shuffle_seed=0, epoch=0):
        train_ids.extend(b.patient_ids)
    assert sorted(train_ids) == sorted(r.patient_id for r in parts.train)
    # positives are visibly brighter than negatives after preprocessing
    pos, neg = [], []
    for b in batches(records, 4, CFG16):
        for img, t in zip(b.images, b.labels):
            (pos if t[0] == 1 else neg).append(float(img.mean()))
    assert min(pos) > max(neg)
