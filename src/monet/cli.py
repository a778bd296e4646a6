"""Command-line entry point: data generation, training, evaluation,
hallucination, gradient checking, and cost accounting.

Config files are strict JSON: unknown keys are rejected so a typo cannot
silently fall back to a default.  Exit codes: 0 success, 1 runtime failure
(diverged training, artifact/data mismatch, failed check), 2 invalid input
(bad flags, malformed files, bad config values, and any path that cannot be
opened, read, written or created).  ``main`` is the one place that turns a
failure into its exit code and a single stderr line; numpy's floating-point
warnings are silenced there, since non-finite results are checked where
they matter.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np

from .binio import DigestError, FormatError
from .cells import (CellConfig, Hallucinator, count_params,
                    flops_per_sequence, flops_per_step, match_params)
from .classify import (LinearClassifier, Prediction, classify, ensemble,
                       fit_linear_classifier, pooled_matrix, predictions_csv,
                       top1_accuracy)
from .data import (Dataset, FeatureRecord, SyntheticTaskSpec, dataset_manifest,
                   generate_synthetic, read_dataset, write_dataset, write_manifest)
from .gradcheck import check_family
from .training import (LossConfig, TrainConfig, TrainingDiverged, evaluate,
                       hallucinate_array, train)


class UsageError(ValueError):
    """Invalid input: maps to exit code 2."""


class PipelineError(RuntimeError):
    """Runtime failure on valid input: maps to exit code 1."""


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise UsageError(f"{what} file {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"{what} file {path} must hold a JSON object")
    return raw


# The JSON values each annotated config field type takes.
_JSON_KINDS = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _fits(annotation: str, value) -> bool:
    """Whether a JSON value fits a field annotated ``annotation``: null only
    an optional field, a boolean only a bool field (Python's bool is an
    int), and NaN, an infinity or an integer too large for a float no
    field."""
    if value is None:
        return annotation.endswith(" | None")
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        return False
    kinds = _JSON_KINDS[annotation.removesuffix(" | None")]
    return isinstance(value, kinds) and isinstance(value, bool) == (kinds == (bool,))


def _strict_build(cls, raw, what: str):
    """Instantiate a config dataclass from a dict, rejecting unknown keys
    and values of the wrong JSON type."""
    if not isinstance(raw, dict):
        raise UsageError(f"{what} must be a JSON object, got {raw!r}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise UsageError(f"{what}: unknown key(s) {unknown}; allowed: {sorted(fields)}")
    for name, value in raw.items():
        if not _fits(fields[name], value):
            raise UsageError(f"{what}: {name} must be {fields[name]}, got {value!r}")
    try:
        obj = cls(**raw)
        obj.validate()
    except (TypeError, ValueError) as e:
        raise UsageError(f"{what}: {e}") from None
    return obj


def _thread_cap() -> int:
    raw = os.environ.get("MONET_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"MONET_THREADS must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"MONET_THREADS must be >= 1, got {value}")
    # Execution is single-worker in this version; the cap is validated and
    # acknowledged so configured environments keep working.
    return 1


def _save_classifier(path: str, clf: LinearClassifier) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"W": clf.W.tolist(), "b": clf.b.tolist()}, f)
        f.write("\n")


def _load_classifier(path: str) -> LinearClassifier:
    raw = _load_json(path, "classifier")
    if set(raw) != {"W", "b"}:
        raise UsageError(f"classifier file {path} must hold exactly W and b")
    try:
        clf = LinearClassifier(W=raw["W"], b=raw["b"])
    except (TypeError, ValueError) as e:
        raise UsageError(f"classifier file {path}: {e}") from None
    if not (np.isfinite(clf.W).all() and np.isfinite(clf.b).all()):
        raise UsageError(f"classifier file {path}: non-finite weights")
    return clf


def _read_file(reader, path: str, sidecar: str | None, what: str):
    """``reader(path)``, with a damaged file as invalid input.  When the
    ``sidecar`` path holds anything, a dangling link included, the one
    buffer ``reader`` reads must match its sha256 before it is parsed, so
    damage that still parses is not read silently; otherwise the file is
    read unchecked."""
    expected = None
    if sidecar is not None and os.path.lexists(sidecar):
        expected = _load_json(sidecar, f"{what} manifest").get("sha256")
        if not isinstance(expected, str):
            raise UsageError(f"{what} manifest file {sidecar} has no sha256 string")
    try:
        return reader(path, sha256=expected)
    except DigestError:
        raise UsageError(f"{what} file {path} does not match the sha256 in {sidecar}") from None
    except FormatError as e:
        raise UsageError(f"{what} file {path}: {e}") from None


def _write_records(path: str, records: list[FeatureRecord], n_classes: int,
                   spec: SyntheticTaskSpec | None = None) -> None:
    """Write a dataset file and, for a ``<stem>.mofe`` file, its
    ``<stem>.manifest.json`` (hashed from the bytes written, not read back):
    a sidecar left from the file this one replaces would no longer match."""
    try:
        raw = write_dataset(path, records, n_classes=n_classes)
    except ValueError as e:
        raise PipelineError(f"cannot write {path}: {e}") from None
    manifest_path = _manifest_path(path)
    if manifest_path is not None:
        write_manifest(manifest_path, dataset_manifest(raw, spec))


def _write_splits(spec: SyntheticTaskSpec, out_dir: str) -> list[tuple[str, list]]:
    """Make ``out_dir``, generate the task's train and val splits, and write
    each as ``<split>.mofe`` with its manifest.  Returns each split's path
    and records, train first."""
    os.makedirs(out_dir, exist_ok=True)
    splits = [(os.path.join(out_dir, f"{name}.mofe"), recs)
              for name, recs in zip(("train", "val"), generate_synthetic(spec))]
    for path, recs in splits:
        _write_records(path, recs, spec.n_classes, spec)
    return splits


def _manifest_path(data_path: str) -> str | None:
    """The sidecar of ``<stem>.mofe`` is ``<stem>.manifest.json``; a file
    with another suffix has none."""
    if not data_path.endswith(".mofe"):
        return None
    return data_path.removesuffix(".mofe") + ".manifest.json"


# A checkpoint's sidecar is ``<checkpoint>.sha256.json``, which never ends in
# ``.manifest.json`` and so cannot be the sidecar of a dataset beside it.
CHECKPOINT_SIDECAR = ".sha256.json"


def _model_and_records(args) -> tuple[Hallucinator, Dataset]:
    """The checkpoint and the records it will run on, with the class count
    their header declares; a dataset the model cannot run on is a runtime
    failure."""
    model = _read_file(Hallucinator.load, args.checkpoint,
                       args.checkpoint + CHECKPOINT_SIDECAR, "checkpoint")
    records = _read_file(read_dataset, args.data, _manifest_path(args.data), "dataset")
    if not records:
        raise PipelineError("dataset holds no records")
    t_len, d_x = records[0].appearance.shape
    if t_len == 0:
        raise PipelineError("dataset sequences have length 0")
    if model.config.d_x != d_x:
        raise PipelineError(f"checkpoint expects d_x={model.config.d_x} but data has d_x={d_x}")
    return model, records


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    spec = _strict_build(SyntheticTaskSpec, _load_json(args.spec, "task spec"), "task spec")
    (train_path, train_recs), (val_path, val_recs) = _write_splits(spec, args.out)
    print(json.dumps({"train": train_path, "val": val_path,
                      "n_train": len(train_recs), "n_val": len(val_recs)}))
    return 0


def _experiment_parts(raw: dict):
    allowed = {"task", "cell", "train", "loss", "out_dir", "seed"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise UsageError(f"experiment config: unknown key(s) {unknown}; allowed: {sorted(allowed)}")
    for key in ("task", "cell", "out_dir"):
        if key not in raw:
            raise UsageError(f"experiment config: missing required key {key!r}")
    task = _strict_build(SyntheticTaskSpec, raw["task"], "task spec")
    cell = _strict_build(CellConfig, raw["cell"], "cell config")
    tcfg = _strict_build(TrainConfig, raw.get("train", {}), "train config")
    loss_raw = raw.get("loss", {})
    if not isinstance(loss_raw, dict):
        raise UsageError(f"loss config must be a JSON object, got {loss_raw!r}")
    if set(loss_raw) - {"alpha"}:
        raise UsageError(f"loss config: unknown key(s) {sorted(set(loss_raw) - {'alpha'})}; "
                         f"allowed: ['alpha']")
    alpha = loss_raw.get("alpha", 10.0)
    if not _fits("float", alpha) or alpha < 0:
        raise UsageError(f"loss config: alpha must be a nonnegative number, got {alpha!r}")
    seed = raw.get("seed", 0)
    if not _fits("int", seed) or seed < 0:
        raise UsageError(f"experiment config: seed must be a nonnegative integer, got {seed!r}")
    if not _fits("str", raw["out_dir"]):
        raise UsageError(f"experiment config: out_dir must be a string, got {raw['out_dir']!r}")
    return task, cell, tcfg, float(alpha), raw["out_dir"], seed


def cmd_train(args) -> int:
    task, cell, tcfg, alpha, out_dir, seed = _experiment_parts(
        _load_json(args.config, "experiment config"))
    if args.epochs is not None:
        if args.epochs < 0:
            raise UsageError(f"--epochs must be >= 0, got {args.epochs}")
        tcfg.max_epochs = args.epochs
    if cell.d_x != task.d_x:
        raise UsageError(f"cell d_x {cell.d_x} does not match task d_x {task.d_x}")
    if cell.output_dim != task.d_s:
        raise UsageError(f"cell output dim {cell.output_dim} does not match task d_s {task.d_s}")
    if task.n_train < 1 or task.n_val < 1:
        raise UsageError(f"task spec: training needs n_train >= 1 and n_val >= 1, "
                         f"got {task.n_train} and {task.n_val}")
    # Train from the files just written so later evaluation of those files
    # sees byte-for-byte the features the reported numbers came from.
    train_recs, val_recs = (read_dataset(path) for path, _ in _write_splits(task, out_dir))
    flow_pool = pooled_matrix([r.flow_target for r in train_recs])
    app_pool = pooled_matrix([r.appearance for r in train_recs])
    labels = np.array([r.label for r in train_recs])
    teacher = fit_linear_classifier(flow_pool, labels, task.n_classes)
    appearance_clf = fit_linear_classifier(app_pool, labels, task.n_classes)
    _save_classifier(os.path.join(out_dir, "teacher.json"), teacher)
    _save_classifier(os.path.join(out_dir, "appearance.json"), appearance_clf)
    model = Hallucinator.build(cell, np.random.default_rng(seed))
    loss_cfg = LossConfig(alpha=alpha, classifier=teacher if alpha > 0 else None)
    report = train(model, train_recs, val_recs, tcfg, loss_cfg)
    checkpoint = os.path.join(out_dir, "checkpoint.monw")
    raw = model.save(checkpoint)
    write_manifest(checkpoint + CHECKPOINT_SIDECAR,
                   {"format": "MONW", "sha256": hashlib.sha256(raw).hexdigest()})
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
        f.write(report.to_json())
        f.write("\n")
    summary = {"epochs_run": len(report.epochs), "best_epoch": report.best_epoch,
               "best_val_mse": report.best_val_mse,
               "checkpoint": checkpoint}
    print(json.dumps(summary, allow_nan=False))
    return 0


def cmd_eval(args) -> int:
    if args.csv and not (args.teacher and args.appearance):
        raise UsageError("--csv needs both --teacher and --appearance")
    model, records = _model_and_records(args)
    out_dim = model.config.output_dim
    d_s = records[0].flow_target.shape[1]
    if out_dim != d_s:
        raise PipelineError(f"checkpoint expects out={out_dim} but data has d_s={d_s}")
    teacher = _load_classifier(args.teacher) if args.teacher else None
    appearance_clf = _load_classifier(args.appearance) if args.appearance else None
    if teacher is not None and teacher.feature_dim != out_dim:
        raise PipelineError(f"teacher classifier reads {teacher.feature_dim} features "
                            f"but the checkpoint emits {out_dim}")
    if appearance_clf is not None and appearance_clf.feature_dim != model.config.d_x:
        raise PipelineError(f"appearance classifier reads {appearance_clf.feature_dim} "
                            f"features but data has d_x={model.config.d_x}")
    for name, clf in (("teacher", teacher), ("appearance classifier", appearance_clf)):
        if clf is not None and clf.n_classes != records.n_classes:
            raise PipelineError(f"{name} has {clf.n_classes} classes but the data has "
                                f"{records.n_classes}")
    result = evaluate(model, records, teacher)
    if not np.isfinite(result.hallucinated).all():
        raise PipelineError("the hallucinated features are not finite: the checkpoint's "
                            "weights overflow on this data")
    out = {"val_mse": result.mse, "val_top1": result.top1}
    labels = [r.label for r in records]
    flow_preds: list[Prediction] | None = None
    fused: list[Prediction] | None = None
    if teacher is not None:
        # The motion stream is the teacher classification behind val_top1.
        flow_preds = [Prediction(probs=p, top1=int(np.argmax(p)))
                      for p in result.teacher_probs]
        out["top1_flow"] = result.top1
    if appearance_clf is not None:
        app_preds = [classify(r.appearance, appearance_clf) for r in records]
        out["top1_appearance"] = top1_accuracy(app_preds, labels)
        if flow_preds is not None:
            fused = [ensemble(a, b) for a, b in zip(app_preds, flow_preds)]
            out["top1_fused"] = top1_accuracy(fused, labels)
    bad = [k for k, v in out.items() if v is not None and not np.isfinite(v)]
    if bad:
        raise PipelineError(f"non-finite metrics {bad}: the checkpoint's weights "
                            f"overflow on this data")
    if args.csv and fused is not None:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(predictions_csv([r.id for r in records], labels, fused))
    print(json.dumps(out, allow_nan=False))
    return 0


def cmd_hallucinate(args) -> int:
    model, records = _model_and_records(args)
    halluc = hallucinate_array(model, np.stack([r.appearance for r in records]))
    out_records = [FeatureRecord(id=r.id, label=r.label, appearance=r.appearance,
                                 flow_target=halluc[i])
                   for i, r in enumerate(records)]
    _write_records(args.out, out_records, records.n_classes)
    print(json.dumps({"out": args.out, "n_records": len(out_records)}))
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    for layers in args.layers:
        try:
            CellConfig(family=args.family, d_x=1, d_s=1, layers=layers).validate()
        except ValueError as e:
            raise UsageError(str(e)) from None
    failed = False
    for layers in args.layers:
        result = check_family(args.family, layers, instances=args.trials, seed=args.seed)
        status = "PASS" if result.passed else "FAIL"
        print(f"family={result.family} layers={result.layers} instances={result.instances} "
              f"max_rel_err={result.max_rel_err:.3e} redraws={result.redraws} "
              f"time={result.seconds:.2f}s {status}")
        failed = failed or not result.passed
    return 1 if failed else 0


def cmd_flops(args) -> int:
    if args.seq_len < 1:
        raise UsageError(f"--seq-len must be >= 1, got {args.seq_len}")
    cell = _strict_build(CellConfig, _load_json(args.config, "cell config"), "cell config")
    baseline = match_params(cell, "gru").config if cell.family != "gru" \
        else match_params(cell, "monet").config
    rows = {}
    for tag, cfg in (("configured", cell), ("matched_baseline", baseline)):
        step = flops_per_step(cfg)
        seq = flops_per_sequence(cfg, args.seq_len)
        rows[tag] = {
            "family": cfg.family, "d_x": cfg.d_x, "d_s": cfg.d_s, "layers": cfg.layers,
            "params": count_params(cfg),
            "per_step": dataclasses.asdict(step) | {"total_madds": step.total_madds},
            "per_sequence": dataclasses.asdict(seq) | {"total_madds": seq.total_madds},
        }
    print(json.dumps(rows, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process, shared by every main call: no mutable defaults
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monet",
        description="Motion-feature hallucination toolkit: synthetic data, "
                    "recurrent/convolutional cells, training, two-stream evaluation.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic two-stream dataset")
    p.add_argument("--spec", required=True, help="task spec JSON file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a hallucinator end to end")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--epochs", type=int, default=None,
                   help="override max_epochs from the config")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", default=None, help="motion-stream classifier JSON")
    p.add_argument("--appearance", default=None, help="appearance-stream classifier JSON")
    p.add_argument("--csv", default=None, help="write fused predictions CSV here "
                                              "(needs --teacher and --appearance)")

    p = sub.add_parser("hallucinate", help="write a dataset whose motion features "
                                           "are the model's output")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="compare tape gradients to finite differences")
    p.add_argument("--family", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--layers", type=int, nargs="+", default=(1,))
    p.add_argument("--seed", type=int, default=20240)

    p = sub.add_parser("flops", help="print exact multiply-add counts for a cell config")
    p.add_argument("--config", required=True, help="cell config JSON file")
    p.add_argument("--seq-len", type=int, default=20)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen-data": cmd_gen_data, "train": cmd_train, "eval": cmd_eval,
                "hallucinate": cmd_hallucinate, "gradcheck": cmd_gradcheck,
                "flops": cmd_flops}
    try:
        _thread_cap()
        with np.errstate(all="ignore"):
            return handlers[args.cmd](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # Every path the CLI opens is one it was given, or one under it; a
        # failed write to an open file (a full disk) names none.
        where = "" if e.filename is None else f"{e.filename}: "
        reason = "not found" if isinstance(e, FileNotFoundError) else e.strerror or e
        print(f"error: {where}{reason}", file=sys.stderr)
        return 2
    except (PipelineError, TrainingDiverged) as e:
        print(f"failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
