"""The four benchmark workloads.

Each workload has a set-up (timed, repeated, reported as ``setup_s``), an
untimed warm-up, and a unit operation the run repeats in a closed loop with
one client: a training epoch, a gradient-check suite pass, or an inference
request.  ``parts(i)`` gives operation ``i`` as callables the measuring loop
times one by one (a suite pass has one part per entry, so machine speed is
sampled between entries).  Every operation's output is checked; a failed
check counts into ``failed``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import io
import json
import math
import os
import time

import numpy as np

import monet.cli
from monet import data, gradcheck, training
from monet.cells import CellConfig, Hallucinator, count_params, flops_per_sequence, match_params

import reference

# The package re-exports a function named ``classify`` over its submodule.
classify = importlib.import_module("monet.classify")

# The paper's model at the config every ROADMAP number uses.
MONET_L3 = CellConfig(family="monet", d_x=16, d_s=16, layers=3)
# Reference sequence length for the madds count.
MADDS_SEQ_LEN = 20
# Inference outputs must match the numpy reference this closely: outputs
# pass through f32 files, so one f32 rounding step (6e-8 relative) is the
# largest legitimate difference.
PROB_TOL = 1e-6
FEATURE_TOL = 1e-6
MSE_REL_TOL = 1e-9
ROW_SUM_TOL = 1e-9
GRADCHECK_LIMIT = 1e-5


@dataclasses.dataclass
class Op:
    """One timed piece of work.  ``scaled`` is ``seconds`` at reference
    machine speed, filled in by the measuring loop."""

    seconds: float
    seqs: int
    attempted: int
    failures: list[str]
    scaled: float = 0.0
    failed: int = -1  # checked pieces of work that failed; a part fails as a whole

    def __post_init__(self):
        if self.failed < 0:
            self.failed = min(1, len(self.failures))

    @classmethod
    def merge(cls, parts: list["Op"]) -> "Op":
        return cls(sum(p.seconds for p in parts), sum(p.seqs for p in parts),
                   sum(p.attempted for p in parts), [f for p in parts for f in p.failures],
                   sum(p.scaled for p in parts), sum(p.failed for p in parts))


class TrainWorkload:
    """One ``training.train`` epoch per operation on the acceptance task;
    the model carries over between epochs, the optimizer state does not."""

    unit = "epoch"
    cycle = 1

    def __init__(self, plan: dict, workdir: str, clock, expansion: bool):
        self.plan = plan
        self.workdir = workdir
        self.clock = clock
        self.expansion = expansion
        self.config = MONET_L3 if expansion else match_params(MONET_L3, "gru").config
        self.first_val_mse = None

    def setup(self) -> None:
        spec = data.SyntheticTaskSpec(**self.plan["task"])
        train_recs, val_recs = data.generate_synthetic(spec)
        paths = {}
        for name, recs in (("train", train_recs), ("val", val_recs)):
            paths[name] = os.path.join(self.workdir, f"{name}.mofe")
            data.write_dataset(paths[name], recs, n_classes=spec.n_classes)
        self.train_recs = data.read_dataset(paths["train"])
        self.val_recs = data.read_dataset(paths["val"])
        if self.expansion:
            teacher = classify.fit_linear_classifier(
                classify.pooled_matrix([r.flow_target for r in self.train_recs]),
                np.array([r.label for r in self.train_recs]), spec.n_classes)
            self.loss_cfg = training.LossConfig(alpha=10.0, classifier=teacher)
        else:
            self.loss_cfg = training.LossConfig(alpha=0.0)
        self.model = Hallucinator.build(self.config, np.random.default_rng(self.plan["model_seed"]))

    def _train_config(self, seed: int) -> training.TrainConfig:
        return training.TrainConfig(lr=3e-3, max_epochs=1, batch_size=32, seed=seed)

    def warm_up(self) -> None:
        throwaway = Hallucinator.build(self.config, np.random.default_rng(0))
        training.train(throwaway, self.train_recs[:64], self.val_recs[:32],
                       self._train_config(0), self.loss_cfg)

    def parts(self, i: int) -> list:
        return [functools.partial(self._epoch, i)]

    def _epoch(self, i: int) -> Op:
        cfg = self._train_config(self.plan["order_seed"] + i)
        start = self.clock()
        try:
            report = training.train(self.model, self.train_recs, self.val_recs, cfg, self.loss_cfg)
        except training.TrainingDiverged as e:
            return Op(self.clock() - start, len(self.train_recs), 1, [f"epoch {i}: {e}"])
        seconds = self.clock() - start
        val = report.best_val_mse
        if self.first_val_mse is None:
            self.first_val_mse = val
        failures = [] if val is not None and math.isfinite(val) else [f"epoch {i}: val_mse {val}"]
        return Op(seconds, len(self.train_recs), 1, failures)

    def counts(self) -> dict[str, float]:
        return {"cells.madds_per_seq": flops_per_sequence(self.config, MADDS_SEQ_LEN).total_madds}


class GradcheckWorkload:
    """One pass over the acceptance gradient-check list per operation, one
    instance per entry, a fresh seed per pass."""

    unit = "pass"
    cycle = 1
    d_x, d_s, t_len = 5, 4, 6  # check_family's defaults

    def __init__(self, plan: dict, workdir: str, clock):
        self.plan = plan
        self.clock = clock
        self.suite = [tuple(e) for e in plan["suite"]]

    def _config(self, family: str, layers: int) -> CellConfig:
        return CellConfig(family=family, d_x=self.d_x, d_s=self.d_s, layers=layers)

    def setup(self) -> None:
        # Sequences evaluated per instance: one recorded forward plus two
        # per perturbed parameter or input scalar.
        self.evals = {(f, n): 1 + 2 * (count_params(self._config(f, n)) + self.t_len * self.d_x)
                      for f, n in self.suite}
        self.evals_per_pass = sum(self.evals.values())

    def warm_up(self) -> None:
        for family in ("vanilla-rnn", "conv1d"):
            gradcheck.check_family(family, 1, instances=1, seed=0)

    def parts(self, i: int) -> list:
        return [functools.partial(self._entry, i, family, layers) for family, layers in self.suite]

    def _entry(self, i: int, family: str, layers: int) -> Op:
        start = self.clock()
        result = gradcheck.check_family(family, layers, instances=1,
                                        seed=self.plan["suite_seed"] + i)
        seconds = self.clock() - start
        failures = [] if result.max_rel_err <= GRADCHECK_LIMIT else \
            [f"pass {i} {family}-L{layers}: rel err {result.max_rel_err:.3e}"]
        return Op(seconds, self.evals[(family, layers)], 1, failures)

    def counts(self) -> dict[str, float]:
        madds = sum(flops_per_sequence(self._config(f, n), self.t_len).total_madds
                    for f, n in self.suite)
        return {"cells.madds_per_seq": madds, "gradcheck.forward_evals": self.evals_per_pass}


def _save_classifier(path: str, clf) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"W": clf.W.tolist(), "b": clf.b.tolist()}, f)
        f.write("\n")


class InferWorkload:
    """One request per operation: ``monet hallucinate`` then ``monet eval
    --teacher --appearance --csv`` through ``monet.cli.main`` in-process, on
    one pre-written shard.  The loop ends only on a whole cycle of shards."""

    unit = "request"

    def __init__(self, plan: dict, workdir: str, clock):
        self.plan = plan
        self.workdir = workdir
        self.clock = clock
        self.cycle = len(plan["shards"])
        self.path = lambda name: os.path.join(workdir, name)

    def setup(self) -> None:
        task = self.plan["task"]
        shards = self.plan["shards"]
        pools = {}
        for t_len in sorted({s["seq_len"] for s in shards}):
            need = sum(s["n"] for s in shards if s["seq_len"] == t_len)
            # Same generator seed for every length, so all shards share one
            # class structure with the classifier-fit set.
            spec = data.SyntheticTaskSpec(**dict(task, seq_len=t_len, n_train=need))
            pools[t_len] = iter(data.generate_synthetic(spec)[0])
        self.shard_records = []
        for j, s in enumerate(shards):
            recs = [next(pools[s["seq_len"]]) for _ in range(s["n"])]
            data.write_dataset(self.path(f"shard-{j:02d}.mofe"), recs, n_classes=task["n_classes"])
            self.shard_records.append(recs)
        fit_recs, _ = data.generate_synthetic(data.SyntheticTaskSpec(**task))
        labels = np.array([r.label for r in fit_recs])
        self.teacher = classify.fit_linear_classifier(
            classify.pooled_matrix([r.flow_target for r in fit_recs]), labels, task["n_classes"])
        self.appearance = classify.fit_linear_classifier(
            classify.pooled_matrix([r.appearance for r in fit_recs]), labels, task["n_classes"])
        _save_classifier(self.path("teacher.json"), self.teacher)
        _save_classifier(self.path("appearance.json"), self.appearance)
        self.model = Hallucinator.build(MONET_L3, np.random.default_rng(self.plan["model_seed"]))
        self.model.save(self.path("model.monw"))

    def build_references(self) -> None:
        """Expected outputs per shard, from the benchmark's own numpy code."""
        params = self.model.params
        weights = {f.name: getattr(params, f.name).data for f in dataclasses.fields(params)}
        self.expected = []
        for recs in self.shard_records:
            app = reference.f32(np.stack([r.appearance for r in recs]))
            flow = reference.f32(np.stack([r.flow_target for r in recs]))
            pred = reference.monet_forward(weights, app, MONET_L3.layers)
            halluc = reference.f32(pred)
            p_flow = reference.pooled_probs(halluc, self.teacher.W, self.teacher.b)
            p_app = reference.pooled_probs(app, self.appearance.W, self.appearance.b)
            self.expected.append({"ids": [r.id for r in recs], "labels": [r.label for r in recs],
                                  "app": app, "halluc": halluc,
                                  "mse": float(np.mean((pred - flow) ** 2)),
                                  "fused": 0.5 * (p_app + p_flow)})

    def warm_up(self) -> None:
        self.build_references()
        for j in range(2):
            self._request(j)

    def _request(self, j: int) -> tuple[float, list[int], str]:
        shard = self.path(f"shard-{j:02d}.mofe")
        out = io.StringIO()
        start = self.clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            codes = [
                monet.cli.main(["hallucinate", "--checkpoint", self.path("model.monw"),
                                "--data", shard, "--out", self.path("halluc.mofe")]),
                monet.cli.main(["eval", "--checkpoint", self.path("model.monw"), "--data", shard,
                                "--teacher", self.path("teacher.json"),
                                "--appearance", self.path("appearance.json"),
                                "--csv", self.path("fused.csv")])]
        return self.clock() - start, codes, out.getvalue()

    def parts(self, i: int) -> list:
        return [functools.partial(self._serve, i)]

    def _serve(self, i: int) -> Op:
        j = i % self.cycle
        seconds, codes, output = self._request(j)
        return Op(seconds, self.plan["shards"][j]["n"], 1, self._check(i, j, codes, output))

    def _check(self, i: int, j: int, codes: list[int], output: str) -> list[str]:
        tag = f"request {i} (shard {j})"
        if codes != [0, 0]:
            return [f"{tag}: exit codes {codes}: {output.strip()}"]
        exp = self.expected[j]
        failures = []
        with open(self.path("halluc.mofe"), "rb") as f:
            ids, labels, app, halluc = reference.decode_mofe(f.read())
        if ids != exp["ids"] or labels != exp["labels"] or not np.array_equal(app, exp["app"]):
            failures.append(f"{tag}: hallucinated shard ids, labels or appearance differ")
        elif np.max(np.abs(halluc - exp["halluc"])) > FEATURE_TOL:
            failures.append(f"{tag}: hallucinated features off by {np.max(np.abs(halluc - exp['halluc'])):.3e}")
        mse = json.loads(output.strip().splitlines()[-1])["val_mse"]
        if abs(mse - exp["mse"]) > MSE_REL_TOL * exp["mse"]:
            failures.append(f"{tag}: eval val_mse {mse!r}, reference {exp['mse']!r}")
        with open(self.path("fused.csv"), encoding="utf-8") as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        if [r[0] for r in rows] != exp["ids"]:
            return failures + [f"{tag}: CSV rows do not match the shard's records"]
        probs = np.array([[float(v) for v in r[3:]] for r in rows])
        if probs.shape != exp["fused"].shape or np.max(np.abs(probs - exp["fused"])) > PROB_TOL:
            failures.append(f"{tag}: CSV probabilities differ from the reference")
        if np.max(np.abs(probs.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            failures.append(f"{tag}: a CSV row does not sum to 1")
        if [int(r[2]) for r in rows] != list(np.argmax(probs, axis=1)):
            failures.append(f"{tag}: CSV top1 is not the argmax of its row")
        return failures

    def counts(self) -> dict[str, float]:
        return {"cells.madds_per_seq": flops_per_sequence(MONET_L3, MADDS_SEQ_LEN).total_madds}


def make_workload(name: str, plan: dict, workdir: str, clock=time.perf_counter):
    """``clock`` times the operations; the benchmark passes one that leaves
    out its own speed sampling."""
    if name == "train-expansion":
        return TrainWorkload(plan, workdir, clock, expansion=True)
    if name == "train-recurrent":
        return TrainWorkload(plan, workdir, clock, expansion=False)
    if name == "gradcheck-suite":
        return GradcheckWorkload(plan, workdir, clock)
    return InferWorkload(plan, workdir, clock)
