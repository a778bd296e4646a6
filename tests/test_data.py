"""Synthetic generator, dataset file format, and stratified splitting."""

import dataclasses
import hashlib
import json
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from monet.binio import (BadMagicError, DigestError, FormatError,
                         TruncatedError, VersionError)
from monet.classify import classify, fit_linear_classifier, pooled_matrix
from monet.data import (DRIVE_SIGMA, INIT_SIGMA, FeatureRecord, SyntheticTaskSpec,
                        clean_targets, dataset_manifest, generate_synthetic,
                        read_dataset, split, task_structure, write_dataset,
                        write_manifest)


def small_spec(**overrides):
    base = dict(n_classes=4, seq_len=12, d_x=8, d_s=5, n_train=40, n_val=20,
                noise_sigma=0.05, seed=7)
    base.update(overrides)
    return SyntheticTaskSpec(**base)


# -- Spec validation --------------------------------------------------------

def test_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        small_spec(n_classes=0).validate()
    with pytest.raises(ValueError):
        small_spec(noise_sigma=-0.1).validate()
    with pytest.raises(ValueError):
        small_spec(context_radius=2).validate()
    with pytest.raises(ValueError):
        small_spec(n_train=-1).validate()


_U32_FIELDS = ["n_classes", "seq_len", "d_x", "d_s", "n_train", "n_val"]


@pytest.mark.parametrize("field", _U32_FIELDS)
def test_spec_bounds_the_u32_header_fields(field):
    """The dataset header stores these as u32s, so a larger value fails
    validation instead of the write after generating every record."""
    small_spec(**{field: 2**32 - 1}).validate()
    with pytest.raises(ValueError, match=field):
        small_spec(**{field: 2**32}).validate()


def test_record_validate_rejects_malformed():
    good = FeatureRecord(id="a", label=0, appearance=np.zeros((3, 2)),
                         flow_target=np.zeros((3, 2)))
    good.validate()
    with pytest.raises(ValueError):
        FeatureRecord(id="a", label=0, appearance=np.zeros((3, 2)),
                      flow_target=np.zeros((4, 2))).validate()
    bad = np.zeros((3, 2))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        FeatureRecord(id="a", label=0, appearance=bad,
                      flow_target=np.zeros((3, 2))).validate()
    with pytest.raises(ValueError):
        FeatureRecord(id="a", label=-1, appearance=np.zeros((3, 2)),
                      flow_target=np.zeros((3, 2))).validate()


# -- Generator --------------------------------------------------------------

def test_generation_is_bit_identical_across_runs():
    for sigma in (0.0, 0.05):
        spec = small_spec(noise_sigma=sigma)
        train_a, val_a = generate_synthetic(spec)
        train_b, val_b = generate_synthetic(small_spec(noise_sigma=sigma))
        assert len(train_a) == spec.n_train and len(val_a) == spec.n_val
        for ra, rb in zip(train_a + val_a, train_b + val_b):
            assert ra.id == rb.id and ra.label == rb.label
            assert np.array_equal(ra.appearance, rb.appearance)
            assert np.array_equal(ra.flow_target, rb.flow_target)


def _generate_one_drive_draw_per_step(spec):
    """The generator as it once was, drawing each step's drive on its own:
    the draw order every seed's dataset is pinned to."""
    rng = np.random.default_rng(spec.seed)
    structure = task_structure(spec, rng)
    records = []
    for i in range(spec.n_train + spec.n_val):
        label = i % spec.n_classes
        x = np.empty((spec.seq_len, spec.d_x))
        state = rng.normal(0.0, INIT_SIGMA, spec.d_x)
        for t in range(spec.seq_len):
            x[t] = state
            state = state @ structure.transition[label] + structure.drift[label] \
                + rng.normal(0.0, DRIVE_SIGMA, spec.d_x)
        flow = clean_targets(x, label, structure) \
            + rng.normal(0.0, spec.noise_sigma, (spec.seq_len, spec.d_s))
        records.append((f"seq-{i:05d}", label, x, flow))
    return records


@pytest.mark.parametrize("overrides", [
    {}, {"d_x": 1}, {"seq_len": 1}, {"n_train": 0}, {"noise_sigma": 0.0},
    {"seed": 2**31 - 2},
    {"n_classes": 8, "seq_len": 20, "d_x": 16, "d_s": 16, "n_train": 48, "n_val": 16}])
def test_generation_matches_one_drive_draw_per_step_bit_for_bit(overrides):
    spec = small_spec(**overrides)
    train, val = generate_synthetic(spec)
    expected = _generate_one_drive_draw_per_step(spec)
    assert len(train) == spec.n_train and len(train + val) == len(expected)
    for rec, (rid, label, x, flow) in zip(train + val, expected):
        assert (rec.id, rec.label) == (rid, label)
        assert rec.appearance.tobytes() == x.tobytes()
        assert rec.flow_target.tobytes() == flow.tobytes()


def test_targets_match_brute_force_recomputation():
    spec = small_spec(noise_sigma=0.0)
    train, val = generate_synthetic(spec)
    st = task_structure(spec)
    for rec in train + val:
        t_len = rec.appearance.shape[0]
        expected = np.empty((t_len, spec.d_s))
        for t in range(t_len):
            acc = rec.appearance[t] @ st.map_cur[rec.label]
            if t > 0:
                acc = acc + rec.appearance[t - 1] @ st.map_prev[rec.label]
            if t < t_len - 1:
                acc = acc + rec.appearance[t + 1] @ st.map_next[rec.label]
            expected[t] = 1.0 / (1.0 + np.exp(-acc))
        assert np.max(np.abs(expected - rec.flow_target)) < 1e-12


def test_standalone_structure_matches_generator_structure():
    spec = small_spec()
    a = task_structure(spec)
    b = task_structure(spec)
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


def test_labels_are_round_robin():
    spec = small_spec()
    train, val = generate_synthetic(spec)
    labels = [r.label for r in train + val]
    assert labels == [i % spec.n_classes for i in range(len(labels))]


def test_oracle_classifier_beats_chance_on_appearance():
    spec = small_spec(n_train=80, n_val=40)
    train, val = generate_synthetic(spec)
    feats = pooled_matrix([r.appearance for r in train])
    clf = fit_linear_classifier(feats, np.array([r.label for r in train]),
                                spec.n_classes)
    hits = sum(1 for r in val if classify(r.appearance, clf).top1 == r.label)
    assert hits / len(val) > 1.0 / spec.n_classes


def test_noise_floor_matches_configured_sigma():
    spec = small_spec(n_train=200, n_val=0, noise_sigma=0.05, seq_len=20, d_s=16)
    train, _ = generate_synthetic(spec)
    st = task_structure(spec)
    sq = []
    for rec in train:
        resid = rec.flow_target - clean_targets(rec.appearance, rec.label, st)
        sq.append(resid ** 2)
    mean_sq = float(np.mean(np.concatenate(sq)))
    assert 0.9 * spec.noise_sigma ** 2 < mean_sq < 1.1 * spec.noise_sigma ** 2


def test_targets_stay_in_unit_interval():
    train, val = generate_synthetic(small_spec(noise_sigma=0.0))
    for rec in train + val:
        assert np.all(rec.flow_target > 0.0) and np.all(rec.flow_target < 1.0)


# -- Dataset files ----------------------------------------------------------

def write_small(tmp_path, records=None, n_classes=None):
    if records is None:
        train, _ = generate_synthetic(small_spec(n_train=6, n_val=0))
        records = train
    path = str(tmp_path / "data.mofe")
    write_dataset(path, records, n_classes=n_classes)
    return path, records


def test_round_trip_preserves_values_at_file_precision(tmp_path):
    path, records = write_small(tmp_path)
    loaded = read_dataset(path)
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        assert back.id == orig.id and back.label == orig.label
        # disk payload is f32; the round trip is exact at that precision
        assert np.array_equal(back.appearance,
                              orig.appearance.astype("<f4").astype(np.float64))
        assert np.array_equal(back.flow_target,
                              orig.flow_target.astype("<f4").astype(np.float64))


def test_second_round_trip_is_byte_identical(tmp_path):
    path, _ = write_small(tmp_path)
    loaded = read_dataset(path)
    path2 = str(tmp_path / "again.mofe")
    write_dataset(path2, loaded, n_classes=loaded.n_classes)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_empty_dataset_round_trips(tmp_path):
    path = str(tmp_path / "empty.mofe")
    write_dataset(path, [])
    assert read_dataset(path) == []
    assert dataset_manifest(Path(path).read_bytes())["header"]["n_records"] == 0


def test_corrupt_magic_is_a_distinct_error(tmp_path):
    path, _ = write_small(tmp_path)
    raw = bytearray(open(path, "rb").read())
    raw[:4] = b"NOPE"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(BadMagicError):
        read_dataset(path)


def test_version_mismatch_is_a_distinct_error(tmp_path):
    path, _ = write_small(tmp_path)
    raw = bytearray(open(path, "rb").read())
    raw[4:8] = (42).to_bytes(4, "little")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(VersionError):
        read_dataset(path)


def test_truncated_payload_is_a_distinct_error(tmp_path):
    path, _ = write_small(tmp_path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-7])
    with pytest.raises(TruncatedError):
        read_dataset(path)


def test_trailing_bytes_rejected(tmp_path):
    path, _ = write_small(tmp_path)
    with open(path, "ab") as f:
        f.write(b"x")
    with pytest.raises(FormatError):
        read_dataset(path)


def test_non_finite_payload_rejected_at_read(tmp_path):
    path, records = write_small(tmp_path)
    raw = bytearray(open(path, "rb").read())
    # first record payload starts after header(28) + id(4+len) + label(4)
    offset = 28 + 4 + len(records[0].id.encode()) + 4
    raw[offset:offset + 4] = np.float32(np.nan).tobytes()
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError, match="non-finite"):
        read_dataset(path)


@pytest.mark.parametrize("nan", [b"\x01\x00\x80\x7f", b"\xff\xff\xff\x7f"])
def test_a_nan_payload_is_rejected_without_a_warning(tmp_path, nan):
    """A signalling NaN (f32 0x7f800001), which numpy warns about as it
    widens it, and a quiet one: each fails with the ``FormatError`` alone."""
    path, records = write_small(tmp_path)
    raw = bytearray(open(path, "rb").read())
    offset = 28 + 4 + len(records[0].id.encode()) + 4
    raw[offset:offset + 4] = nan
    open(path, "wb").write(bytes(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="non-finite"):
            read_dataset(path)


def test_declared_lengths_beyond_the_file_are_truncated_before_reading(tmp_path):
    path, _ = write_small(tmp_path)
    raw = bytearray(open(path, "rb").read())
    raw[16:24] = b"\xff" * 8  # sequence length and appearance dim
    open(path, "wb").write(bytes(raw))
    with pytest.raises(TruncatedError, match="appearance"):
        read_dataset(path)


def test_values_beyond_f32_rejected_before_the_file_is_opened(tmp_path):
    path = tmp_path / "d.mofe"
    for appearance, flow in (([[1e39]], [[0.5]]), ([[0.5]], [[-4e38]])):
        records = [FeatureRecord(id="ok", label=0, appearance=np.zeros((1, 1)),
                                 flow_target=np.zeros((1, 1))),
                   FeatureRecord(id="huge", label=0, appearance=np.array(appearance),
                                 flow_target=np.array(flow))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="record huge: .*f32"):
                write_dataset(str(path), records)
        assert not path.exists()
    # The largest f32 itself still fits.
    edge = np.array([[np.finfo(np.float32).max]], dtype=np.float64)
    write_dataset(str(path), [FeatureRecord(id="edge", label=0, appearance=edge,
                                            flow_target=-edge)])
    assert read_dataset(str(path))[0].appearance[0, 0] == edge[0, 0]


def test_label_outside_declared_classes_rejected(tmp_path):
    records = [FeatureRecord(id="r0", label=3, appearance=np.zeros((2, 2)),
                             flow_target=np.zeros((2, 2)))]
    path = str(tmp_path / "d.mofe")
    with pytest.raises(ValueError):
        write_dataset(path, records, n_classes=2)


def test_mixed_shapes_rejected_at_write(tmp_path):
    records = [FeatureRecord(id="a", label=0, appearance=np.zeros((2, 2)),
                             flow_target=np.zeros((2, 2))),
               FeatureRecord(id="b", label=0, appearance=np.zeros((3, 2)),
                             flow_target=np.zeros((3, 2)))]
    with pytest.raises(ValueError):
        write_dataset(str(tmp_path / "d.mofe"), records)


def _unlike_ids():
    """Records whose ids differ in byte length, one of them non-ASCII."""
    rng = np.random.default_rng(5)
    return [FeatureRecord(id=rid, label=j % 3, appearance=rng.normal(size=(3, 2)),
                          flow_target=rng.normal(size=(3, 4)))
            for j, rid in enumerate(["a", "", "séquence-∂", "seq-00003"])]


def _same_records(a, b):
    return len(a) == len(b) and all(
        (x.id, x.label, x.appearance.shape, x.flow_target.shape) ==
        (y.id, y.label, y.appearance.shape, y.flow_target.shape)
        and x.appearance.tobytes() == y.appearance.tobytes()
        and x.flow_target.tobytes() == y.flow_target.tobytes() for x, y in zip(a, b))


def test_ids_of_unlike_lengths_round_trip_byte_identical(tmp_path):
    path, records = write_small(tmp_path, _unlike_ids(), n_classes=3)
    loaded = read_dataset(path)
    assert [r.id for r in loaded] == [r.id for r in records]
    assert loaded.n_classes == 3
    path2 = str(tmp_path / "again.mofe")
    raw = write_dataset(path2, loaded, n_classes=3)
    assert Path(path).read_bytes() == Path(path2).read_bytes() == raw


def test_a_dataset_reads_alike_through_a_pipe(tmp_path):
    path, _ = write_small(tmp_path, _unlike_ids(), n_classes=3)
    raw = Path(path).read_bytes()
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, raw)  # small enough for the pipe's buffer
        os.close(write_end)
        piped = read_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert _same_records(piped, read_dataset(path))
    assert piped.n_classes == 3


@pytest.mark.parametrize("block", [1, 5, 16, 61, 100])
def test_records_straddling_a_short_read_read_identically(tmp_path, open_in_short_reads,
                                                           block):
    """Handed over at most ``block`` bytes per read, so that fields cross
    read boundaries, a file reads as it does from a single read."""
    paths = [write_small(tmp_path)[0], str(tmp_path / "unlike.mofe")]
    write_dataset(paths[1], _unlike_ids(), n_classes=3)
    whole = [read_dataset(p) for p in paths]
    opened = open_in_short_reads("monet.data", block)
    for p, records in zip(paths, whole):
        assert _same_records(read_dataset(p), records)
    assert len(opened) == 2 and [max(f.sizes) for f in opened] == [block] * 2


def test_a_read_checks_the_sha256_of_the_bytes_it_parses(tmp_path):
    """Given a digest, a read parses only bytes that have it: an intact file
    reads as without one, a pipe included, and a changed byte fails."""
    path, _ = write_small(tmp_path, _unlike_ids(), n_classes=3)
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    assert _same_records(read_dataset(path, sha256=digest), read_dataset(path))
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, raw)
        os.close(write_end)
        assert _same_records(read_dataset(f"/dev/fd/{read_end}", sha256=digest),
                             read_dataset(path))
    finally:
        os.close(read_end)
    Path(path).write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))
    with pytest.raises(DigestError, match=f"expected {digest}"):
        read_dataset(path, sha256=digest)


def test_every_truncation_is_a_format_error(tmp_path):
    """Cut at every byte offset, the file fails with a ``FormatError``
    subclass and nothing else."""
    path, _ = write_small(tmp_path, _unlike_ids(), n_classes=3)
    raw = Path(path).read_bytes()
    cut = tmp_path / "cut.mofe"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            read_dataset(str(cut))


def test_a_damaged_last_record_is_named(tmp_path):
    """A bad id, label or value in the last record fails with a message
    naming that record."""
    path, _ = write_small(tmp_path, _unlike_ids(), n_classes=3)
    raw = Path(path).read_bytes()
    last = len(raw) - (4 + len(b"seq-00003") + 4 + 4 * (6 + 12))
    label_at = last + 4 + len(b"seq-00003")
    cases = {"id": (last + 4, b"\xff", "record 3 id is not valid UTF-8: "),
             "label": (label_at, (7).to_bytes(4, "little"),
                       "record seq-00003: label 7 outside [0, 3)"),
             "value": (label_at + 12, np.float32(np.inf).tobytes(),
                       "record seq-00003: non-finite payload")}
    for name, (offset, patch, message) in cases.items():
        damaged = tmp_path / f"{name}.mofe"
        damaged.write_bytes(raw[:offset] + patch + raw[offset + len(patch):])
        with pytest.raises(FormatError) as err:
            read_dataset(str(damaged))
        assert str(err.value).startswith(message), (name, str(err.value))


def test_reading_a_dataset_holds_at_most_the_file_beyond_its_records(tmp_path):
    """At the acceptance size (2,000 records of 20 steps, 16 + 16 dims,
    about 4.9 MiB on disk) a read allocates at most the file's size and
    64 KiB beyond the records it returns: the file is read once, and no
    second copy of it is made."""
    rng = np.random.default_rng(0)
    records = [FeatureRecord(id=f"seq-{i:05d}", label=i % 8, appearance=rng.normal(size=(20, 16)),
                             flow_target=rng.normal(size=(20, 16))) for i in range(2000)]
    path = str(tmp_path / "big.mofe")
    size = len(write_dataset(path, records, n_classes=8))
    del records
    tracemalloc.start()
    try:
        loaded = read_dataset(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 2000
    assert peak - kept <= size + 2**16, f"{(peak - kept) / 2**20:.2f} MiB beyond the records"


def test_manifest_checksums_file(tmp_path):
    spec = small_spec(n_train=6, n_val=0)
    train, _ = generate_synthetic(spec)
    path = str(tmp_path / "d.mofe")
    write_dataset(path, train, n_classes=spec.n_classes)
    manifest = dataset_manifest(Path(path).read_bytes(), spec)
    assert manifest["sha256"] == hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert manifest["header"]["n_records"] == 6
    assert manifest["spec"]["seed"] == spec.seed
    mpath = str(tmp_path / "d.json")
    write_manifest(mpath, manifest)
    assert json.load(open(mpath)) == manifest


# -- Splitting ---------------------------------------------------------------

def records_with_labels(labels):
    return [FeatureRecord(id=f"r{i:03d}", label=y, appearance=np.zeros((2, 2)),
                          flow_target=np.zeros((2, 2)))
            for i, y in enumerate(labels)]


def test_split_hits_exact_fraction_on_round_total():
    recs = records_with_labels([i % 5 for i in range(100)])
    train, val = split(recs, 0.15, seed=0)
    assert len(train) == 85 and len(val) == 15


def test_split_partitions_the_input():
    recs = records_with_labels([i % 3 for i in range(47)])
    train, val = split(recs, 0.3, seed=1)
    got = sorted(r.id for r in train + val)
    assert got == sorted(r.id for r in recs)
    assert not (set(r.id for r in train) & set(r.id for r in val))


def test_split_is_stratified_within_one_example():
    labels = [0] * 40 + [1] * 35 + [2] * 25
    train, val = split(records_with_labels(labels), 0.2, seed=3)
    for c, n_c in ((0, 40), (1, 35), (2, 25)):
        got = sum(1 for r in val if r.label == c)
        assert abs(got - n_c * 0.2) <= 1.0, (c, got)


def test_split_is_deterministic_per_seed():
    recs = records_with_labels([i % 4 for i in range(60)])
    val_ids = [sorted(r.id for r in split(recs, 0.25, seed=9)[1]) for _ in range(2)]
    assert val_ids[0] == val_ids[1]
    other = sorted(r.id for r in split(recs, 0.25, seed=10)[1])
    assert other != val_ids[0]


def test_split_warns_on_tiny_class():
    recs = records_with_labels([0] * 10 + [1])
    with pytest.warns(UserWarning, match="best-effort"):
        split(recs, 0.2, seed=0)


def test_split_rejects_degenerate_fraction():
    recs = records_with_labels([0, 1] * 5)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split(recs, bad, seed=0)
