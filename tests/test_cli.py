"""End-to-end command-line flows: data generation, training, evaluation,
hallucination, gradient checking, cost accounting, exit codes."""

import builtins
import collections
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import monet
from monet.cells import CellConfig, Hallucinator, flops_per_step
import monet.cli
from monet.cli import main
from monet.data import FeatureRecord, dataset_manifest, read_dataset, write_dataset
from monet.gradcheck import check_family

TASK = dict(n_classes=3, seq_len=8, d_x=6, d_s=4, n_train=24, n_val=9,
            noise_sigma=0.05, seed=1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """One trained experiment shared by the evaluation-side tests."""
    root = tmp_path_factory.mktemp("exp")
    config = {"task": TASK,
              "cell": {"family": "monet", "d_x": 6, "d_s": 4, "layers": 2},
              "train": {"lr": 3e-3, "max_epochs": 3, "batch_size": 8, "seed": 0},
              "loss": {"alpha": 10.0},
              "out_dir": str(root / "run"),
              "seed": 0}
    cfg_path = write_json(root / "config.json", config)
    code = main(["train", "--config", cfg_path])
    assert code == 0
    return root


# -- gen-data ----------------------------------------------------------------

def test_gen_data_writes_files_with_matching_manifests(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", TASK)
    code, out, _ = run(capsys, "gen-data", "--spec", spec_path,
                       "--out", str(tmp_path / "d"))
    assert code == 0
    summary = last_json(out)
    assert summary["n_train"] == 24 and summary["n_val"] == 9
    for name in ("train", "val"):
        data = (tmp_path / "d" / f"{name}.mofe").read_bytes()
        manifest = json.loads((tmp_path / "d" / f"{name}.manifest.json").read_text())
        assert manifest["sha256"] == hashlib.sha256(data).hexdigest()
        assert manifest["spec"]["seed"] == TASK["seed"]


def test_gen_data_rerun_gives_identical_checksums(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", TASK)
    sums = []
    for sub in ("a", "b"):
        code, _, _ = run(capsys, "gen-data", "--spec", spec_path,
                         "--out", str(tmp_path / sub))
        assert code == 0
        manifest = json.loads((tmp_path / sub / "train.manifest.json").read_text())
        sums.append(manifest["sha256"])
    assert sums[0] == sums[1]


def test_gen_data_invalid_spec_names_the_field(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", dict(TASK, n_classes=0))
    code, _, err = run(capsys, "gen-data", "--spec", spec_path,
                       "--out", str(tmp_path / "d"))
    assert code == 2
    assert "n_classes" in err


def test_gen_data_unknown_key_rejected(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", dict(TASK, n_clases=4))
    code, _, err = run(capsys, "gen-data", "--spec", spec_path,
                       "--out", str(tmp_path / "d"))
    assert code == 2
    assert "n_clases" in err


def test_config_value_of_the_wrong_type_is_invalid_input(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", dict(TASK, seq_len="8"))
    code, out, err = run(capsys, "gen-data", "--spec", spec_path,
                         "--out", str(tmp_path / "d"))
    assert code == 2 and out == ""
    assert err.startswith("error: task spec: ")
    assert not (tmp_path / "d").exists()


def test_gen_data_non_finite_noise_is_invalid_input_before_writing(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", dict(TASK, noise_sigma=math.nan))
    code, out, err = run(capsys, "gen-data", "--spec", spec_path,
                         "--out", str(tmp_path / "d"))
    assert code == 2 and out == ""
    assert "noise_sigma" in err
    assert not (tmp_path / "d").exists()


def test_gen_data_float_count_is_invalid_input_before_writing(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", dict(TASK, n_train=8.5))
    code, out, err = run(capsys, "gen-data", "--spec", spec_path,
                         "--out", str(tmp_path / "d"))
    assert code == 2 and out == ""
    assert "n_train" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("field", ["n_classes", "seq_len", "d_x", "d_s", "n_train", "n_val"])
def test_gen_data_count_beyond_u32_is_invalid_input_before_writing(tmp_path, capsys, field):
    """The dataset header stores these as u32s: a larger value exits 2
    before a record is generated or a directory made."""
    spec_path = write_json(tmp_path / "spec.json", dict(TASK, **{field: 2**32}))
    code, out, err = run(capsys, "gen-data", "--spec", spec_path,
                         "--out", str(tmp_path / "d"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: task spec: {field} must be <= ")
    assert not (tmp_path / "d").exists()


def assert_train_config_value_is_invalid_input(tmp_path, capsys, section, key, value):
    """``monet train`` with one config value replaced (a top-level key when
    ``section`` is None) exits 2, names the key and writes nothing."""
    config = {"task": TASK, "cell": {"family": "monet", "d_x": 6, "d_s": 4},
              "train": {"max_epochs": 1}, "out_dir": str(tmp_path / "run")}
    if section is None:
        config[key] = value
    else:
        config[section] = dict(config.get(section, {}), **{key: value})
    code, out, err = run(capsys, "train", "--config", write_json(tmp_path / "c.json", config))
    assert code == 2 and out == ""
    assert key in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,key,value", [
    ("cell", "d_s", 4.0), ("cell", "layers", 2.5), ("cell", "causal_only", 1),
    ("train", "seed", None), ("loss", "alpha", True), (None, "seed", True),
    (None, "out_dir", 5)])
def test_train_config_value_of_the_wrong_json_type_is_invalid_input(tmp_path, capsys,
                                                                    section, key, value):
    """An int field takes only a JSON integer, a float field any number but
    a boolean, a bool field only a boolean; nothing is written first."""
    assert_train_config_value_is_invalid_input(tmp_path, capsys, section, key, value)


@pytest.mark.parametrize("section,key,value", [
    *((section, key, value) for section, key in (("task", "noise_sigma"), ("train", "lr"),
                                                 ("train", "clip_norm"), ("loss", "alpha"))
      for value in (math.nan, math.inf, -math.inf)),
    pytest.param("train", "lr", 10**400, id="train-lr-10**400"),
    pytest.param("loss", "alpha", 10**400, id="loss-alpha-10**400"),
    ("task", "seed", -1), ("train", "seed", -1), ("cell", "kernel", -1),
    pytest.param("cell", "kernel", 2**32, id="cell-kernel-2**32"),
    pytest.param("task", "n_val", 2**32, id="task-n_val-2**32")])
def test_train_config_non_finite_or_out_of_range_value_is_invalid_input(tmp_path, capsys,
                                                                         section, key, value):
    """No number field takes NaN, an infinity or an integer too large for a
    float, no seed or kernel is negative, and no field the checkpoint or
    dataset header stores as a u32 exceeds it; nothing is written first."""
    assert_train_config_value_is_invalid_input(tmp_path, capsys, section, key, value)


@pytest.mark.parametrize("key,value,what", [
    ("train", None, "train config"), ("task", 5, "task spec"), ("cell", None, "cell config"),
    ("loss", 5, "loss config"), ("loss", "ab", "loss config")])
def test_train_config_section_that_is_not_an_object_is_invalid_input(tmp_path, capsys,
                                                                     key, value, what):
    """A section holding a JSON value other than an object names the
    section; nothing is written first."""
    config = {"task": TASK, "cell": {"family": "monet", "d_x": 6, "d_s": 4},
              "out_dir": str(tmp_path / "run"), key: value}
    code, out, err = run(capsys, "train", "--config", write_json(tmp_path / "c.json", config))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {what} must be a JSON object") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_malformed_json_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "gen-data", "--spec", str(bad),
                       "--out", str(tmp_path / "d"))
    assert code == 2
    assert "JSON" in err


def test_config_not_in_utf8_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "gen-data", "--spec", str(bad), "--out", str(tmp_path / "d"))
    assert code == 2
    assert "not valid JSON" in err


# -- train -------------------------------------------------------------------

def test_train_writes_artifacts(trained_dir):
    run_dir = trained_dir / "run"
    for name in ("checkpoint.monw", "report.json", "teacher.json",
                 "appearance.json", "train.mofe", "val.mofe"):
        assert (run_dir / name).exists(), name
    manifest = json.loads((run_dir / "checkpoint.monw.sha256.json").read_text())
    assert manifest["sha256"] == hashlib.sha256((run_dir / "checkpoint.monw").read_bytes()).hexdigest()
    report = json.loads((run_dir / "report.json").read_text())
    assert len(report["epochs"]) == 3
    assert set(report["epochs"][0]) == {"epoch", "lr", "train_loss", "val_mse",
                                        "val_top1", "grad_norm_mean", "grad_norm_max",
                                        "clip_fraction"}


def test_eval_reproduces_reported_validation_numbers(trained_dir, capsys):
    run_dir = trained_dir / "run"
    report = json.loads((run_dir / "report.json").read_text())
    code, out, _ = run(capsys, "eval",
                       "--checkpoint", str(run_dir / "checkpoint.monw"),
                       "--data", str(run_dir / "val.mofe"),
                       "--teacher", str(run_dir / "teacher.json"))
    assert code == 0
    result = last_json(out)
    assert result["val_mse"] == report["best_val_mse"]
    best = report["epochs"][report["best_epoch"]]
    assert result["val_top1"] == best["val_top1"]


def test_eval_fused_path_and_csv(trained_dir, capsys, tmp_path):
    run_dir = trained_dir / "run"
    csv_path = tmp_path / "preds.csv"
    code, out, _ = run(capsys, "eval",
                       "--checkpoint", str(run_dir / "checkpoint.monw"),
                       "--data", str(run_dir / "val.mofe"),
                       "--teacher", str(run_dir / "teacher.json"),
                       "--appearance", str(run_dir / "appearance.json"),
                       "--csv", str(csv_path))
    assert code == 0
    result = last_json(out)
    for key in ("top1_flow", "top1_appearance", "top1_fused"):
        assert 0.0 <= result[key] <= 1.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "example_id,label,top1,prob_0,prob_1,prob_2"
    assert len(lines) == 1 + 9


def test_eval_classifies_the_teacher_once(trained_dir, capsys, tmp_path, monkeypatch):
    """val_top1, top1_flow and the CSV's motion stream come from the one
    teacher classification in ``evaluate``; only the appearance stream is
    classified per record here."""
    run_dir = trained_dir / "run"
    classified = []
    real_classify = monet.cli.classify

    def spy(seq, clf):
        classified.append(clf.feature_dim)
        return real_classify(seq, clf)

    monkeypatch.setattr(monet.cli, "classify", spy)
    code, out, _ = run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.monw"),
                       "--data", str(run_dir / "val.mofe"),
                       "--teacher", str(run_dir / "teacher.json"),
                       "--appearance", str(run_dir / "appearance.json"),
                       "--csv", str(tmp_path / "p.csv"))
    assert code == 0
    assert classified == [TASK["d_x"]] * TASK["n_val"]
    result = last_json(out)
    assert result["top1_flow"] == result["val_top1"]


def test_hallucinate_then_eval_matches_direct_fused_path(trained_dir, capsys, tmp_path):
    run_dir = trained_dir / "run"
    halluc_path = tmp_path / "halluc.mofe"
    code, _, _ = run(capsys, "hallucinate",
                     "--checkpoint", str(run_dir / "checkpoint.monw"),
                     "--data", str(run_dir / "val.mofe"),
                     "--out", str(halluc_path))
    assert code == 0

    flags = ["--teacher", str(run_dir / "teacher.json"),
             "--appearance", str(run_dir / "appearance.json")]
    code, out, _ = run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.monw"),
                       "--data", str(run_dir / "val.mofe"), *flags)
    assert code == 0
    direct = last_json(out)
    code, out, _ = run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.monw"),
                       "--data", str(halluc_path), *flags)
    assert code == 0
    via_file = last_json(out)
    # the written file carries the same f32 features eval classifies in memory
    assert abs(via_file["top1_flow"] - direct["top1_flow"]) < 1e-9
    assert abs(via_file["top1_fused"] - direct["top1_fused"]) < 1e-9
    # the model reproduces its own stored output up to file precision
    assert via_file["val_mse"] < 1e-12


def test_train_epochs_zero_checkpoint_equals_initialization(trained_dir, capsys, tmp_path):
    config = {"task": TASK,
              "cell": {"family": "monet", "d_x": 6, "d_s": 4, "layers": 2},
              "train": {"lr": 3e-3, "max_epochs": 3, "batch_size": 8, "seed": 0},
              "loss": {"alpha": 0.0},
              "out_dir": str(tmp_path / "run0"),
              "seed": 5}
    cfg_path = write_json(tmp_path / "config.json", config)
    code, out, _ = run(capsys, "train", "--config", cfg_path, "--epochs", "0")
    assert code == 0
    assert last_json(out)["epochs_run"] == 0
    loaded = Hallucinator.load(str(tmp_path / "run0" / "checkpoint.monw"))
    fresh = Hallucinator.build(CellConfig(family="monet", d_x=6, d_s=4, layers=2),
                               np.random.default_rng(5))
    for a, b in zip(loaded.tensors(), fresh.tensors()):
        assert np.array_equal(a.data, b.data)


def test_train_rejects_cell_task_dim_mismatch(tmp_path, capsys):
    config = {"task": TASK,
              "cell": {"family": "monet", "d_x": 6, "d_s": 5},
              "out_dir": str(tmp_path / "run")}
    cfg_path = write_json(tmp_path / "config.json", config)
    code, _, err = run(capsys, "train", "--config", cfg_path)
    assert code == 2
    assert "does not match task d_s" in err


def test_train_non_finite_validation_mse_is_runtime_failure(tmp_path, capsys):
    """One SGD step at a huge rate leaves finite loss and gradients but
    weights whose validation output overflows: no checkpoint, no report,
    and no Infinity printed."""
    config = {"task": dict(TASK, d_x=4, seq_len=5, n_train=8, n_val=6),
              "cell": {"family": "monet", "d_x": 4, "d_s": 4, "layers": 1},
              "train": {"optimizer": "sgd", "lr": 1e300, "max_epochs": 1},
              "loss": {"alpha": 0.0},
              "out_dir": str(tmp_path / "run")}
    code, out, err = run(capsys, "train", "--config", write_json(tmp_path / "c.json", config))
    assert code == 1
    assert err.startswith("failed: ") and "validation MSE" in err
    assert out == ""
    assert not (tmp_path / "run" / "checkpoint.monw").exists()
    assert not (tmp_path / "run" / "report.json").exists()


@pytest.mark.parametrize("counts", [{"n_val": 0}, {"n_train": 0}])
def test_train_rejects_empty_split_before_writing(tmp_path, capsys, counts):
    config = {"task": dict(TASK, **counts),
              "cell": {"family": "monet", "d_x": 6, "d_s": 4},
              "out_dir": str(tmp_path / "run")}
    cfg_path = write_json(tmp_path / "config.json", config)
    code, _, err = run(capsys, "train", "--config", cfg_path)
    assert code == 2
    assert "n_train >= 1 and n_val >= 1" in err
    assert not (tmp_path / "run").exists()


# -- eval / hallucinate error paths -----------------------------------------

def test_eval_missing_checkpoint_is_invalid_input(trained_dir, capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "none.monw"),
                       "--data", str(trained_dir / "run" / "val.mofe"))
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("case", ["eval-checkpoint", "eval-data", "eval-teacher", "eval-csv",
                                  "train-config", "train-out-dir", "train-teacher.json",
                                  "train-report.json", "gen-data-spec",
                                  "gen-data-out", "hallucinate-out"])
def test_path_that_cannot_be_opened_is_invalid_input(trained_dir, capsys, tmp_path, case):
    """A directory where a file is read or written, a file where a directory
    is made, or an output under a missing directory: exit 2 naming the path,
    not an uncaught OSError.  ``train`` writes its report after the
    checkpoint, so a blocked report path fails after training."""
    run_dir = trained_dir / "run"
    ckpt, val = run_dir / "checkpoint.monw", run_dir / "val.mofe"
    a_dir, a_file, missing = tmp_path / "a_dir", tmp_path / "a_file", tmp_path / "missing"
    a_dir.mkdir()
    a_file.write_text("x")
    spec = write_json(tmp_path / "spec.json", TASK)
    train_cfg = write_json(tmp_path / "c.json", {
        "task": TASK, "cell": {"family": "monet", "d_x": 6, "d_s": 4}, "out_dir": str(a_file)})
    out_run = tmp_path / "run"
    run_cfg = write_json(tmp_path / "r.json", {
        "task": TASK, "cell": {"family": "monet", "d_x": 6, "d_s": 4}, "out_dir": str(out_run)})
    if case.startswith("train-") and case.endswith(".json"):
        (out_run / case.removeprefix("train-")).mkdir(parents=True)
    evaluate = ["eval", "--checkpoint", ckpt, "--data", val]
    both = ["--teacher", run_dir / "teacher.json", "--appearance", run_dir / "appearance.json"]
    argv, path = {
        "eval-checkpoint": (["eval", "--checkpoint", a_dir, "--data", val], a_dir),
        "eval-data": (["eval", "--checkpoint", ckpt, "--data", a_dir], a_dir),
        "eval-teacher": ([*evaluate, "--teacher", a_dir], a_dir),
        "eval-csv": ([*evaluate, *both, "--csv", missing / "p.csv"], missing / "p.csv"),
        "train-config": (["train", "--config", a_dir], a_dir),
        "train-out-dir": (["train", "--config", train_cfg], a_file),
        "train-teacher.json": (["train", "--config", run_cfg, "--epochs", 0],
                               out_run / "teacher.json"),
        "train-report.json": (["train", "--config", run_cfg, "--epochs", 0],
                              out_run / "report.json"),
        "gen-data-spec": (["gen-data", "--spec", a_dir, "--out", tmp_path / "d"], a_dir),
        "gen-data-out": (["gen-data", "--spec", spec, "--out", a_file], a_file),
        "hallucinate-out": (["hallucinate", "--checkpoint", ckpt, "--data", val,
                             "--out", missing / "x.mofe"], missing / "x.mofe"),
    }[case]
    code, out, err = run(capsys, *map(str, argv))
    assert code == 2
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err and out == ""


def test_eval_dimension_mismatch_is_runtime_failure(trained_dir, capsys, tmp_path):
    wide = dict(TASK, d_s=5)
    spec_path = write_json(tmp_path / "spec.json", wide)
    code, _, _ = run(capsys, "gen-data", "--spec", spec_path,
                     "--out", str(tmp_path / "d"))
    assert code == 0
    code, _, err = run(capsys, "eval",
                       "--checkpoint", str(trained_dir / "run" / "checkpoint.monw"),
                       "--data", str(tmp_path / "d" / "val.mofe"))
    assert code == 1
    assert "checkpoint expects" in err


def test_hallucinate_output_preserves_ids_and_appearance(trained_dir, capsys, tmp_path):
    run_dir = trained_dir / "run"
    out_path = tmp_path / "h.mofe"
    code, out, _ = run(capsys, "hallucinate",
                       "--checkpoint", str(run_dir / "checkpoint.monw"),
                       "--data", str(run_dir / "val.mofe"),
                       "--out", str(out_path))
    assert code == 0
    assert last_json(out)["n_records"] == 9
    source = read_dataset(str(run_dir / "val.mofe"))
    produced = read_dataset(str(out_path))
    for s, p in zip(source, produced):
        assert p.id == s.id and p.label == s.label
        assert np.array_equal(p.appearance, s.appearance)
        assert not np.array_equal(p.flow_target, s.flow_target)


def test_hallucinate_keeps_class_count_of_shard_without_top_class(trained_dir, capsys, tmp_path):
    run_dir = trained_dir / "run"
    records = [r for r in read_dataset(str(run_dir / "val.mofe")) if r.label < 2]
    shard = tmp_path / "shard.mofe"
    write_dataset(str(shard), records, n_classes=TASK["n_classes"])
    out_path = tmp_path / "h.mofe"
    code, _, _ = run(capsys, "hallucinate",
                     "--checkpoint", str(run_dir / "checkpoint.monw"),
                     "--data", str(shard), "--out", str(out_path))
    assert code == 0
    assert read_dataset(str(out_path)).n_classes == TASK["n_classes"] == 3


def test_hallucinate_output_beyond_f32_is_runtime_failure(trained_dir, capsys, tmp_path):
    run_dir = trained_dir / "run"
    model = Hallucinator.load(str(run_dir / "checkpoint.monw"))
    model.params.b_h.data = np.full_like(model.params.b_h.data, 1e39)
    model.save(str(tmp_path / "huge.monw"))
    out_path = tmp_path / "h.mofe"
    code, _, err = run(capsys, "hallucinate", "--checkpoint", str(tmp_path / "huge.monw"),
                       "--data", str(run_dir / "val.mofe"), "--out", str(out_path))
    assert code == 1
    assert err.startswith("failed: ") and "f32 range" in err
    assert not out_path.exists()


@pytest.mark.parametrize("huge_W_h,message", [
    (lambda w: w * 1e300, "non-finite metrics ['val_mse']"),
    (lambda w: np.sign(w) * 1.7e308, "hallucinated features are not finite"),
], ids=["metric-overflows", "features-overflow"])
def test_eval_of_overflowing_checkpoint_is_runtime_failure(trained_dir, capsys, tmp_path,
                                                           huge_W_h, message):
    """Finite but huge weights load, then overflow: eval must fail, not
    print an Infinity that is not JSON, and must write no CSV."""
    run_dir = trained_dir / "run"
    model = Hallucinator.load(str(run_dir / "checkpoint.monw"))
    model.params.W_h.data = huge_W_h(model.params.W_h.data)
    model.save(str(tmp_path / "huge.monw"))
    csv_path = tmp_path / "fused.csv"
    code, out, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "huge.monw"),
                         "--data", str(run_dir / "val.mofe"),
                         "--teacher", str(run_dir / "teacher.json"),
                         "--appearance", str(run_dir / "appearance.json"),
                         "--csv", str(csv_path))
    assert code == 1
    assert err.startswith("failed: ") and message in err
    assert out == ""
    assert not csv_path.exists()


def test_eval_overflow_prints_one_line_and_no_numpy_warnings(trained_dir, capsys, tmp_path):
    """The overflow behind a non-finite metric is reported once, by the
    ``failed:`` line, not also by numpy's RuntimeWarnings."""
    run_dir = trained_dir / "run"
    model = Hallucinator.load(str(run_dir / "checkpoint.monw"))
    model.params.W_h.data = model.params.W_h.data * 1e300
    model.save(str(tmp_path / "huge.monw"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "huge.monw"),
                             "--data", str(run_dir / "val.mofe"),
                             "--teacher", str(run_dir / "teacher.json"),
                             "--appearance", str(run_dir / "appearance.json"))
    assert code == 1 and out == ""
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1 and err.startswith("failed: non-finite metrics")


def _eval_with(run_dir, capsys, teacher=None, appearance=None, extra=()):
    return run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.monw"),
               "--data", str(run_dir / "val.mofe"),
               "--teacher", teacher or str(run_dir / "teacher.json"),
               "--appearance", appearance or str(run_dir / "appearance.json"), *extra)


@pytest.mark.parametrize("payload", [
    {"W": [["a", "b"]], "b": [0.0]},
    {"W": [[1.0, 2.0], [3.0]], "b": [0.0, 0.0]},
    {"W": [[1.0, None]], "b": [0.0]},
], ids=["non-numeric", "ragged", "non-finite"])
def test_eval_malformed_classifier_is_invalid_input(trained_dir, capsys, tmp_path, payload):
    bad = write_json(tmp_path / "bad.json", payload)
    code, out, err = _eval_with(trained_dir / "run", capsys, teacher=bad)
    assert code == 2 and out == ""
    assert err.startswith("error: classifier file")


def test_eval_teacher_dim_mismatch_is_runtime_failure(trained_dir, capsys, tmp_path):
    # The checkpoint emits 4 features; this teacher reads 5.
    teacher = write_json(tmp_path / "t.json", {"W": np.zeros((3, 5)).tolist(), "b": [0.0] * 3})
    code, out, err = _eval_with(trained_dir / "run", capsys, teacher=teacher)
    assert code == 1 and out == ""
    assert err.startswith("failed: teacher classifier reads 5 features")


def test_eval_appearance_dim_mismatch_is_runtime_failure(trained_dir, capsys, tmp_path):
    # The data has d_x=6; this classifier reads 4.
    app = write_json(tmp_path / "a.json", {"W": np.zeros((3, 4)).tolist(), "b": [0.0] * 3})
    code, out, err = _eval_with(trained_dir / "run", capsys, appearance=app)
    assert code == 1 and out == ""
    assert err.startswith("failed: appearance classifier reads 4 features")


@pytest.mark.parametrize("cut", ["teacher", "appearance"])
def test_eval_class_count_mismatch_is_runtime_failure(trained_dir, capsys, tmp_path, cut):
    """A classifier cut to 2 of the dataset's 3 classes fails before any
    CSV is written, whichever stream it scores."""
    run_dir = trained_dir / "run"
    clf = json.loads((run_dir / f"{cut}.json").read_text())
    path = write_json(tmp_path / "cut.json", {"W": clf["W"][:2], "b": clf["b"][:2]})
    csv_path = tmp_path / "fused.csv"
    code, out, err = _eval_with(run_dir, capsys, extra=("--csv", str(csv_path)), **{cut: path})
    name = "teacher" if cut == "teacher" else "appearance classifier"
    assert code == 1 and out == ""
    assert err.startswith(f"failed: {name} has 2 classes but the data has 3")
    assert not csv_path.exists()


@pytest.mark.parametrize("command", ["eval", "hallucinate"])
def test_zero_length_sequences_are_runtime_failure(trained_dir, capsys, tmp_path, command):
    empty = [FeatureRecord(id=f"r{i}", label=i, appearance=np.zeros((0, 6)),
                           flow_target=np.zeros((0, 4))) for i in range(2)]
    path = tmp_path / "empty.mofe"
    write_dataset(str(path), empty, n_classes=3)
    extra = ["--out", str(tmp_path / "h.mofe")] if command == "hallucinate" else []
    code, out, err = run(capsys, command, "--checkpoint",
                         str(trained_dir / "run" / "checkpoint.monw"),
                         "--data", str(path), *extra)
    assert code == 1 and out == ""
    assert err == "failed: dataset sequences have length 0\n"
    assert not (tmp_path / "h.mofe").exists()


# Byte patches that damage one field: (file, offset, bytes, error text).  A
# .mofe record id starts after the 28-byte header and its 4-byte length (16
# and 20 hold the sequence length and appearance dim); a .monw family tag
# starts after magic, version and the tag length.
DAMAGED_FILES = {
    "mofe-id-not-utf8": ("val.mofe", 32, b"\xff", "record 0 id is not valid UTF-8"),
    "mofe-lengths-beyond-file": ("val.mofe", 16, b"\xff" * 8, "left in the file"),
    "monw-tag-not-utf8": ("checkpoint.monw", 12, b"\xff", "family tag is not valid UTF-8"),
    "monw-unknown-family": ("checkpoint.monw", 12, b"gruuu", "unknown family 'gruuu'"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_FILES))
def test_eval_damaged_file_is_invalid_input(trained_dir, capsys, tmp_path, case):
    name, offset, patch, text = DAMAGED_FILES[case]
    paths = {n: tmp_path / n for n in ("val.mofe", "checkpoint.monw")}
    for n, path in paths.items():
        raw = bytearray((trained_dir / "run" / n).read_bytes())
        if n == name:
            raw[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(raw))
    code, out, err = run(capsys, "eval", "--checkpoint", str(paths["checkpoint.monw"]),
                         "--data", str(paths["val.mofe"]))
    assert code == 2 and out == ""
    assert err.startswith(("error: dataset file", "error: checkpoint file")) and text in err


def _flip_first_appearance_exponent(src, dst):
    """Copy a .mofe with one exponent bit of its first appearance value
    flipped: damage that still parses.  That f32 starts after the 28-byte
    header, the first id's length and bytes, and its label."""
    raw = bytearray(src.read_bytes())
    id_len = int.from_bytes(raw[28:32], "little")
    raw[28 + 4 + id_len + 4 + 3] ^= 0x40
    dst.write_bytes(bytes(raw))


def test_every_manifest_names_the_file_on_disk(trained_dir, capsys, tmp_path):
    """The manifests hash the bytes as they are written, in memory; each
    must still match the file read back from disk: both of gen-data's,
    train's two and its checkpoint sidecar, and hallucinate's."""
    spec_path = write_json(tmp_path / "spec.json", TASK)
    assert run(capsys, "gen-data", "--spec", spec_path, "--out", str(tmp_path / "d"))[0] == 0
    run_dir = trained_dir / "run"
    out_path = tmp_path / "h.mofe"
    code, _, _ = run(capsys, "hallucinate", "--checkpoint", str(run_dir / "checkpoint.monw"),
                     "--data", str(run_dir / "val.mofe"), "--out", str(out_path))
    assert code == 0
    for data in (tmp_path / "d" / "train.mofe", tmp_path / "d" / "val.mofe",
                 run_dir / "train.mofe", run_dir / "val.mofe", out_path):
        manifest = json.loads(data.with_suffix(".manifest.json").read_text())
        assert manifest["sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
        manifest.pop("spec", None)
        assert manifest == dataset_manifest(data.read_bytes())
    checkpoint = run_dir / "checkpoint.monw"
    sidecar = json.loads((run_dir / "checkpoint.monw.sha256.json").read_text())
    assert sidecar == {"format": "MONW",
                       "sha256": hashlib.sha256(checkpoint.read_bytes()).hexdigest()}


@pytest.mark.parametrize("command", ["eval", "hallucinate"])
def test_each_input_file_is_opened_once(trained_dir, capsys, monkeypatch, command):
    """With both sidecars present, the sha256 check runs on the bytes the
    reader parses: the checkpoint and the dataset are each opened once."""
    run_dir = trained_dir / "run"
    assert (run_dir / "val.manifest.json").exists()
    assert (run_dir / "checkpoint.monw.sha256.json").exists()
    opened = collections.Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, _, err = _run_on_data(capsys, run_dir, run_dir / "val.mofe", command)
    monkeypatch.undo()
    assert code == 0, err
    assert opened[str(run_dir / "checkpoint.monw")] == 1
    assert opened[str(run_dir / "val.mofe")] == 1


def test_a_dataset_pipe_with_a_sidecar_evaluates(trained_dir, capsys, tmp_path):
    """A ``<stem>.mofe`` that is a named pipe, fed once by a writer, is
    checked against its sidecar and evaluated from the one read.  The CLI
    runs in a subprocess, so a second open of the pipe, which would block
    for ever, fails the test on its timeout instead of hanging the suite."""
    run_dir = trained_dir / "run"
    for name in ("checkpoint.monw", "checkpoint.monw.sha256.json", "val.manifest.json"):
        shutil.copy(run_dir / name, tmp_path / name)
    fifo = tmp_path / "val.mofe"
    os.mkfifo(fifo)
    raw = (run_dir / "val.mofe").read_bytes()

    def feed():
        try:
            with open(fifo, "wb") as f:
                f.write(raw)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    src = os.path.dirname(os.path.dirname(monet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "monet.cli", "eval", "--checkpoint",
             str(tmp_path / "checkpoint.monw"), "--data", str(fifo)],
            capture_output=True, text=True, env=env, timeout=30)
    finally:
        if writer.is_alive():  # never opened: let the writer's open return
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(10)
    assert proc.returncode == 0, proc.stderr
    _, intact, _ = _run_on_data(capsys, run_dir, run_dir / "val.mofe", "eval")
    assert last_json(proc.stdout) == last_json(intact)


def test_hallucinate_onto_its_input_replaces_the_manifest(trained_dir, capsys, tmp_path):
    """``--out`` onto a dataset that has a sidecar rewrites the sidecar, so
    the hallucinated file still passes eval's checksum."""
    run_dir = tmp_path / "run"
    shutil.copytree(trained_dir / "run", run_dir)
    data = run_dir / "val.mofe"
    code, _, _ = run(capsys, "hallucinate", "--checkpoint", str(run_dir / "checkpoint.monw"),
                     "--data", str(data), "--out", str(data))
    assert code == 0
    manifest = json.loads((run_dir / "val.manifest.json").read_text())
    assert manifest == dataset_manifest(data.read_bytes())
    assert manifest["sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
    code, out, err = run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.monw"),
                         "--data", str(data))
    assert code == 0, err
    assert last_json(out)["val_mse"] < 1e-12


def test_hallucinated_file_is_checked_against_its_new_manifest(trained_dir, capsys, tmp_path):
    """A stale sidecar at the output is replaced, and damage to the written
    file is then caught."""
    run_dir = trained_dir / "run"
    out_path = tmp_path / "h.mofe"
    (tmp_path / "h.manifest.json").write_text('{"sha256": "stale"}')
    code, _, _ = run(capsys, "hallucinate", "--checkpoint", str(run_dir / "checkpoint.monw"),
                     "--data", str(run_dir / "val.mofe"), "--out", str(out_path))
    assert code == 0
    manifest = json.loads((tmp_path / "h.manifest.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert manifest["header"] == dataset_manifest(out_path.read_bytes())["header"]
    _flip_first_appearance_exponent(out_path, out_path)
    code, out, err = _run_on_data(capsys, run_dir, out_path, "eval")
    assert code == 2 and out == ""
    assert "does not match the sha256" in err


def _run_on_data(capsys, run_dir, data, command):
    extra = ["--out", str(data.parent / "h.mofe")] if command == "hallucinate" else []
    return run(capsys, command, "--checkpoint", str(run_dir / "checkpoint.monw"),
               "--data", str(data), *extra)


@pytest.mark.parametrize("command", ["eval", "hallucinate"])
def test_dataset_not_matching_its_manifest_is_invalid_input(trained_dir, capsys, tmp_path,
                                                           command):
    run_dir = trained_dir / "run"
    data = tmp_path / "val.mofe"
    (tmp_path / "val.manifest.json").write_bytes((run_dir / "val.manifest.json").read_bytes())
    data.write_bytes((run_dir / "val.mofe").read_bytes())
    assert _run_on_data(capsys, run_dir, data, command)[0] == 0
    (tmp_path / "h.mofe").unlink(missing_ok=True)
    _flip_first_appearance_exponent(run_dir / "val.mofe", data)
    code, out, err = _run_on_data(capsys, run_dir, data, command)
    assert code == 2 and out == ""
    assert err == (f"error: dataset file {data} does not match the sha256 in "
                   f"{tmp_path / 'val.manifest.json'}\n")
    assert not (tmp_path / "h.mofe").exists()


@pytest.mark.parametrize("manifest", ["{not json", "[1, 2]", '{"sha256": 5}', "{}"])
@pytest.mark.parametrize("command", ["eval", "hallucinate"])
def test_unreadable_dataset_manifest_is_invalid_input(trained_dir, capsys, tmp_path,
                                                      command, manifest):
    run_dir = trained_dir / "run"
    data = tmp_path / "val.mofe"
    data.write_bytes((run_dir / "val.mofe").read_bytes())
    (tmp_path / "val.manifest.json").write_text(manifest)
    code, out, err = _run_on_data(capsys, run_dir, data, command)
    assert code == 2 and out == ""
    assert err.startswith(f"error: dataset manifest file {tmp_path / 'val.manifest.json'}")
    assert not (tmp_path / "h.mofe").exists()


def test_dataset_without_manifest_is_read_unchecked(trained_dir, capsys, tmp_path):
    """Without a sidecar the damaged file is read as it is: only the
    manifest lets damage that still parses be caught."""
    run_dir = trained_dir / "run"
    data = tmp_path / "val.mofe"
    _flip_first_appearance_exponent(run_dir / "val.mofe", data)
    code, out, _ = _run_on_data(capsys, run_dir, data, "eval")
    assert code == 0
    _, intact, _ = _run_on_data(capsys, run_dir, run_dir / "val.mofe", "eval")
    assert last_json(out)["val_mse"] != last_json(intact)["val_mse"]


def _copy_checkpoint(run_dir, dst, flip=False, sidecar=True):
    """Copy the trained checkpoint, with a sidecar holding the sha256 of
    the intact file or without one, and with the top mantissa bit of its
    last weight flipped if asked: damage that leaves every weight finite."""
    raw = bytearray((run_dir / "checkpoint.monw").read_bytes())
    if sidecar:
        (dst.parent / (dst.name + ".sha256.json")).write_text(
            json.dumps({"sha256": hashlib.sha256(raw).hexdigest()}))
    if flip:
        raw[-2] ^= 0x08
    dst.write_bytes(bytes(raw))
    assert np.isfinite(np.concatenate([t.data.ravel()
                                       for t in Hallucinator.load(str(dst)).tensors()])).all()


@pytest.mark.parametrize("command", ["eval", "hallucinate"])
def test_checkpoint_not_matching_its_manifest_is_invalid_input(trained_dir, capsys, tmp_path,
                                                              command):
    run_dir = trained_dir / "run"
    ckpt = tmp_path / "c.monw"
    extra = ["--out", str(tmp_path / "h.mofe")] if command == "hallucinate" else []
    args = [command, "--checkpoint", str(ckpt), "--data", str(run_dir / "val.mofe"), *extra]
    _copy_checkpoint(run_dir, ckpt)
    assert run(capsys, *args)[0] == 0
    (tmp_path / "h.mofe").unlink(missing_ok=True)
    _copy_checkpoint(run_dir, ckpt, flip=True)
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == (f"error: checkpoint file {ckpt} does not match the sha256 in "
                   f"{tmp_path / 'c.monw.sha256.json'}\n")
    assert not (tmp_path / "h.mofe").exists()


@pytest.mark.parametrize("manifest", ["{not json", '{"sha256": 5}'])
def test_unreadable_checkpoint_manifest_is_invalid_input(trained_dir, capsys, tmp_path,
                                                         manifest):
    run_dir = trained_dir / "run"
    ckpt = tmp_path / "c.monw"
    _copy_checkpoint(run_dir, ckpt)
    (tmp_path / "c.monw.sha256.json").write_text(manifest)
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--data", str(run_dir / "val.mofe"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: checkpoint manifest file {tmp_path / 'c.monw.sha256.json'}")


def test_checkpoint_without_manifest_is_read_unchecked(trained_dir, capsys, tmp_path):
    """Without a sidecar a checkpoint loads as before: an intact copy gives
    the trained numbers, and a damaged one that still loads is used."""
    run_dir = trained_dir / "run"
    ckpt = tmp_path / "c.monw"
    outs = []
    for flip in (False, True):
        _copy_checkpoint(run_dir, ckpt, flip=flip, sidecar=False)
        code, out, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                           "--data", str(run_dir / "val.mofe"))
        assert code == 0
        outs.append(last_json(out))
    _, intact, _ = run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.monw"),
                       "--data", str(run_dir / "val.mofe"))
    assert outs[0] == last_json(intact)
    assert outs[1]["val_mse"] != outs[0]["val_mse"]


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
def test_a_dangling_sidecar_is_invalid_input(trained_dir, capsys, tmp_path, kind):
    """A sidecar that is a link to nothing is not the absence of a sidecar:
    the file is not read unchecked, and the error names the sidecar."""
    run_dir = trained_dir / "run"
    ckpt, data = tmp_path / "c.monw", tmp_path / "val.mofe"
    ckpt.write_bytes((run_dir / "checkpoint.monw").read_bytes())
    data.write_bytes((run_dir / "val.mofe").read_bytes())
    sidecar = tmp_path / ("val.manifest.json" if kind == "dataset" else "c.monw.sha256.json")
    sidecar.symlink_to(tmp_path / "missing.json")
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
    assert code == 2 and out == ""
    assert err == f"error: {sidecar}: not found\n"


@pytest.mark.parametrize("flags", [("--csv",), ("--csv", "--teacher"),
                                   ("--csv", "--appearance")])
def test_eval_csv_without_both_classifiers_is_invalid_input(trained_dir, capsys,
                                                           tmp_path, flags):
    run_dir = trained_dir / "run"
    values = {"--csv": str(tmp_path / "p.csv"), "--teacher": str(run_dir / "teacher.json"),
              "--appearance": str(run_dir / "appearance.json")}
    code, out, err = run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.monw"),
                         "--data", str(run_dir / "val.mofe"),
                         *[arg for flag in flags for arg in (flag, values[flag])])
    assert code == 2 and out == ""
    assert err == "error: --csv needs both --teacher and --appearance\n"
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full-device file")
def test_failed_write_to_an_open_file_is_invalid_input(trained_dir, capsys):
    """A write that fails after its file opened (a full disk) carries no
    path to name: exit 2 with the reason alone."""
    code, out, err = _eval_with(trained_dir / "run", capsys, extra=("--csv", "/dev/full"))
    assert code == 2 and out == ""
    assert err == "error: No space left on device\n"


# -- gradcheck ---------------------------------------------------------------

def test_gradcheck_passes_for_gru(capsys):
    code, out, _ = run(capsys, "gradcheck", "--family", "gru", "--trials", "3")
    assert code == 0
    assert "PASS" in out


def test_gradcheck_sweeps_expansion_depths(capsys):
    code, out, _ = run(capsys, "gradcheck", "--family", "monet",
                       "--trials", "2", "--layers", "1", "3")
    assert code == 0
    assert out.count("PASS") == 2


def test_gradcheck_unknown_family_is_invalid_input(capsys):
    code, _, err = run(capsys, "gradcheck", "--family", "transformer")
    assert code == 2
    assert "unknown family" in err


def test_gradcheck_redraws_an_instance_that_straddles_a_kink(capsys):
    """Seed 1789690191's one monet L5 draw puts a ReLU kink within the step
    H of a pre-activation: central differences at H miss the gradient by
    0.196 and at H/100 by 4.6e-7.  The two estimates disagree, so the draw
    is redrawn once from the same generator, and the redraw passes at H."""
    result = check_family("monet", 5, instances=1, seed=1789690191)
    assert result.redraws == 1 and result.passed and result.max_rel_err <= 1e-5
    code, out, _ = run(capsys, "gradcheck", "--family", "monet", "--layers", "5",
                       "--trials", "1", "--seed", "1789690191")
    assert code == 0 and " redraws=1 " in out and out.rstrip().endswith("PASS")


def test_gradcheck_redraws_nothing_for_a_rule_that_is_wrong(monkeypatch):
    """A rule whose gradients are scaled by 1.01 fails at H and at H/100
    alike: the estimates agree, so no draw is redrawn and the check fails."""
    from monet import tensor as tensor_mod

    original = tensor_mod.BACKWARD_RULES["monet_pass"]

    def wrong_rule(node, grad):
        return [None if g is None else g * 1.01 for g in original(node, grad)]

    monkeypatch.setitem(tensor_mod.BACKWARD_RULES, "monet_pass", wrong_rule)
    result = check_family("monet", 1, instances=2)
    assert not result.passed and result.redraws == 0


@pytest.mark.parametrize("flags", [("--trials", "0"), ("--trials", "-3"),
                                   ("--layers", "0"), ("--layers", "1", "0"),
                                   ("--seed", "-1")])
def test_gradcheck_out_of_range_flags_are_invalid_input(capsys, flags):
    code, out, err = run(capsys, "gradcheck", "--family", "gru", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be" in err


# -- one parser per process --------------------------------------------------

def _without_times(out):
    return re.sub(r"time=\S+", "time=", out)


def test_main_parses_every_call_with_one_parser():
    assert monet.cli.build_parser() is monet.cli.build_parser()


def test_repeated_gradcheck_calls_print_the_same_lines(capsys):
    """The cached parser hands its ``--layers`` default to every call, so
    the default is a tuple no call can grow."""
    argv = ("gradcheck", "--family", "vanilla-rnn", "--trials", "1")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first[0] == second[0] == 0
    assert _without_times(first[1]) == _without_times(second[1])
    assert first[1].count("layers=1 ") == 1
    assert monet.cli.build_parser().parse_args(argv).layers == (1,)


def test_a_rejected_call_leaves_the_next_call_unaffected(capsys):
    argv = ("gradcheck", "--family", "vanilla-rnn", "--trials", "1")
    _, before, _ = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--family", "gru", "--layers", "2", "--trials", "x"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, after, _ = run(capsys, *argv)
    assert code == 0 and _without_times(after) == _without_times(before)


def test_gradcheck_detects_corrupted_backward_rule(capsys, monkeypatch):
    from monet import tensor as tensor_mod

    # The rule of the one node each GRU layer records.
    original = tensor_mod.BACKWARD_RULES["recurrent"]

    def wrong_rule(node, grad):
        correct = original(node, grad)
        return [g * 1.01 if g is not None else None for g in correct]

    monkeypatch.setitem(tensor_mod.BACKWARD_RULES, "recurrent", wrong_rule)
    code, out, _ = run(capsys, "gradcheck", "--family", "gru", "--trials", "2")
    assert code == 1
    assert "FAIL" in out


def test_gradcheck_fails_on_nan_gradients(capsys, monkeypatch):
    """A rule that returns NaN gradients must fail: the error folds keep a
    NaN instead of dropping it as ``max`` would."""
    from monet import tensor as tensor_mod

    original = tensor_mod.BACKWARD_RULES["recurrent"]

    def nan_rule(node, grad):
        return [None if g is None else np.full_like(g, np.nan) for g in original(node, grad)]

    monkeypatch.setitem(tensor_mod.BACKWARD_RULES, "recurrent", nan_rule)
    result = check_family("gru", 1, instances=2)
    assert math.isnan(result.max_rel_err) and not result.passed and result.redraws == 0
    code, out, _ = run(capsys, "gradcheck", "--family", "gru", "--trials", "2")
    assert code == 1
    assert "max_rel_err=nan" in out and out.rstrip().endswith("FAIL")


# -- flops -------------------------------------------------------------------

def test_flops_gru_step_formula(tmp_path, capsys):
    d = 6
    cfg_path = write_json(tmp_path / "cell.json",
                          {"family": "gru", "d_x": d, "d_s": d})
    code, out, _ = run(capsys, "flops", "--config", cfg_path, "--seq-len", "10")
    assert code == 0
    rows = json.loads(out)
    assert rows["configured"]["per_step"]["total_madds"] == 6 * d * d + 3 * d
    assert rows["configured"]["per_step"]["activations"] > 0
    assert rows["matched_baseline"]["family"] == "monet"


def test_flops_zero_seq_len_is_invalid_input(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cell.json", {"family": "gru", "d_x": 4, "d_s": 4})
    code, out, err = run(capsys, "flops", "--config", cfg_path, "--seq-len", "0")
    assert code == 2 and out == ""
    assert err == "error: --seq-len must be >= 1, got 0\n"


def test_flops_monet_exceeds_gru_at_equal_dims():
    gru = flops_per_step(CellConfig(family="gru", d_x=6, d_s=6))
    unit = flops_per_step(CellConfig(family="monet", d_x=6, d_s=6))
    assert unit.total_madds > gru.total_madds


def test_flops_state_term_is_quadratic_in_width():
    narrow = flops_per_step(CellConfig(family="gru", d_x=6, d_s=6))
    wide = flops_per_step(CellConfig(family="gru", d_x=6, d_s=12))
    assert wide.madds_state == 4 * narrow.madds_state


# -- environment -------------------------------------------------------------

def test_thread_cap_env_is_validated(tmp_path, capsys, monkeypatch):
    d = 4
    cfg_path = write_json(tmp_path / "cell.json",
                          {"family": "gru", "d_x": d, "d_s": d})
    monkeypatch.setenv("MONET_THREADS", "abc")
    code, _, err = run(capsys, "flops", "--config", cfg_path)
    assert code == 2 and "MONET_THREADS" in err
    monkeypatch.setenv("MONET_THREADS", "0")
    code, _, err = run(capsys, "flops", "--config", cfg_path)
    assert code == 2
    monkeypatch.setenv("MONET_THREADS", "4")
    code, _, _ = run(capsys, "flops", "--config", cfg_path)
    assert code == 0
