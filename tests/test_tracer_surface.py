"""The benchmark's traced run wraps toolkit names from outside the package
(``perfbench/tracing.py``).  Renaming or deleting one of them would break
only the traced benchmark, so this runs a tiny traced training epoch and a
traced ``monet eval`` and checks that the spans the per-layer split reads
were recorded: one clip and one optimizer span per training batch, and the
dataset read sized by its path, also when both inputs have sidecars and are
checked against them."""

import hashlib
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import tracing  # noqa: E402

import monet.cli  # noqa: E402
import monet.training  # noqa: E402
from monet.cells import CellConfig, Hallucinator  # noqa: E402
from monet.classify import fit_linear_classifier, pooled_matrix  # noqa: E402
from monet.data import (SyntheticTaskSpec, dataset_manifest, generate_synthetic,  # noqa: E402
                        write_dataset, write_manifest)


def test_traced_training_and_eval_record_every_layer_span(tmp_path):
    spec = SyntheticTaskSpec(n_classes=3, seq_len=5, d_x=4, d_s=3, n_train=8,
                             n_val=4, noise_sigma=0.05, seed=3)
    train_recs, val_recs = generate_synthetic(spec)
    labels = np.array([r.label for r in train_recs])
    teacher = fit_linear_classifier(pooled_matrix([r.flow_target for r in train_recs]),
                                    labels, spec.n_classes, iters=5)
    appearance = fit_linear_classifier(pooled_matrix([r.appearance for r in train_recs]),
                                       labels, spec.n_classes, iters=5)
    model = Hallucinator.build(CellConfig(family="monet", d_x=4, d_s=3, layers=2),
                               np.random.default_rng(0))
    model.save(str(tmp_path / "model.monw"))
    write_dataset(str(tmp_path / "val.mofe"), val_recs, n_classes=spec.n_classes)
    for name, clf in (("teacher", teacher), ("appearance", appearance)):
        monet.cli._save_classifier(str(tmp_path / f"{name}.json"), clf)

    tracer = tracing.Tracer().install()
    try:
        monet.training.train(model, train_recs, val_recs,
                             monet.training.TrainConfig(max_epochs=1, batch_size=4),
                             monet.training.LossConfig(alpha=1.0, classifier=teacher))
        code = monet.cli.main(["eval", "--checkpoint", str(tmp_path / "model.monw"),
                               "--data", str(tmp_path / "val.mofe"),
                               "--teacher", str(tmp_path / "teacher.json"),
                               "--appearance", str(tmp_path / "appearance.json"),
                               "--csv", str(tmp_path / "fused.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {s.name for s in tracer.spans}
    for span in ("cells.forward", "training.class_probs", "tensor.backward", "cli.eval",
                 "cells.checkpoint_load"):
        assert span in names, span
    # 8 training records in batches of 4: one clip and one optimizer step per batch
    for span in ("training.clip", "training.optimizer"):
        assert [s.name for s in tracer.spans].count(span) == 2, span
    reads = [s.info for s in tracer.spans if s.name == "data.read"]
    assert reads == [{"bytes": os.path.getsize(tmp_path / "val.mofe")}]
    assert (tmp_path / "fused.csv").exists()


def test_traced_eval_on_inputs_with_sidecars_reads_each_once(tmp_path):
    spec = SyntheticTaskSpec(n_classes=3, seq_len=5, d_x=4, d_s=3, n_train=1,
                             n_val=4, noise_sigma=0.05, seed=3)
    data = str(tmp_path / "val.mofe")
    raw = write_dataset(data, generate_synthetic(spec)[1], n_classes=spec.n_classes)
    write_manifest(str(tmp_path / "val.manifest.json"), dataset_manifest(raw))
    ckpt = str(tmp_path / "model.monw")
    raw = Hallucinator.build(CellConfig(family="monet", d_x=4, d_s=3, layers=2),
                             np.random.default_rng(0)).save(ckpt)
    write_manifest(ckpt + monet.cli.CHECKPOINT_SIDECAR,
                   {"format": "MONW", "sha256": hashlib.sha256(raw).hexdigest()})

    tracer = tracing.Tracer().install()
    try:
        code = monet.cli.main(["eval", "--checkpoint", ckpt, "--data", data])
    finally:
        tracer.uninstall()
    assert code == 0
    reads = [s.info for s in tracer.spans if s.name == "data.read"]
    assert reads == [{"bytes": os.path.getsize(data)}]
    assert [s.name for s in tracer.spans].count("cells.checkpoint_load") == 1
