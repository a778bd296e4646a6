"""Hallucination training: objective, optimizers, schedule, epoch loop.

The objective has two parts: a mean-squared feature term between the
hallucinated and ground-truth motion sequences, and an L1 term between the
frozen teacher classifier's probabilities on the two, weighted by alpha.
Both are averaged over every contributing dimension (batch, time, feature
channel for the first; batch, class for the second).

Everything downstream of the seed is deterministic: batch order, parameter
updates, and the per-epoch report serialize bit-identically across runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np

from .cells import Hallucinator, _time_major
from .classify import (PROB_SUM_TOL, LinearClassifier, _np_softmax,
                       class_probabilities_steps)
from .data import FeatureRecord
from .tensor import Tape, Tensor, abs_, add, mul, scale, sub, tsum


class TrainingDiverged(RuntimeError):
    """Loss or gradient norm became non-finite (no weight was updated from
    that batch), or an epoch's validation MSE did; the message says where."""


@dataclasses.dataclass
class LossConfig:
    alpha: float = 10.0
    classifier: LinearClassifier | None = None

    def validate(self) -> None:
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.alpha > 0 and self.classifier is None:
            raise ValueError("alpha > 0 requires a frozen teacher classifier")


@dataclasses.dataclass
class TrainConfig:
    lr: float = 2e-4
    decay_factor: float = 0.1
    decay_every: int = 15
    clip_norm: float = 1.0
    max_epochs: int = 40
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "adam"
    patience: int = 5

    def validate(self) -> None:
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 < self.decay_factor <= 1:
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.decay_every < 1 or self.batch_size < 1:
            raise ValueError("decay_every and batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if not 0 < self.clip_norm < math.inf:
            raise ValueError(f"clip_norm must be finite and > 0, got {self.clip_norm}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be sgd or adam, got {self.optimizer!r}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Stepped decay: the base rate divided by (1/decay_factor) once per
    completed decay period.  Dividing by the inverse factor keeps the
    decayed values exact in floating point (2e-4 -> 2e-5 -> 2e-6)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr / (1.0 / cfg.decay_factor) ** (epoch // cfg.decay_every)


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _as_matrix(x) -> Tensor:
    """A (T*N, D) tensor as it is, or per-timestep (N, D) steps joined into
    one time-major matrix."""
    return x if isinstance(x, Tensor) else _time_major(x)[0]


def _check_prob_rows(p: Tensor, name: str) -> None:
    sums = p.data.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > PROB_SUM_TOL:
        raise ValueError(f"{name}: probability rows must sum to 1, worst sum {sums.flat[np.argmax(np.abs(sums - 1.0))]}")


def hallucination_loss(predicted, target, pred_probs: Tensor | None,
                       target_probs: Tensor | None, cfg: LossConfig) -> Tensor:
    """Scalar objective for one batch.

    ``predicted`` and ``target`` are either (T*N, D) tensors (a single
    sequence is N = 1) or lists of per-timestep (N, D) tensors; the
    probability tensors are (C,) or (N, C).  The feature term averages over
    all of N, T, and D; the probability term averages over N and C and is
    scaled by alpha.  Step lists are joined into one matrix first, so the
    feature term records the same few tape nodes whatever T is.
    """
    cfg.validate()
    if not isinstance(predicted, Tensor) and not isinstance(target, Tensor):
        if len(predicted) != len(target):
            raise ValueError(f"sequence lengths differ: {len(predicted)} vs {len(target)}")
    pred, tgt = _as_matrix(predicted), _as_matrix(target)
    if pred.shape != tgt.shape:
        raise ValueError(f"feature shapes differ: {pred.shape} vs {tgt.shape}")
    diff = sub(pred, tgt)
    loss = scale(tsum(mul(diff, diff)), 1.0 / diff.size)
    if cfg.alpha > 0:
        if pred_probs is None or target_probs is None:
            raise ValueError("alpha > 0 requires both probability tensors")
        if pred_probs.shape != target_probs.shape:
            raise ValueError(f"probability shapes differ: {pred_probs.shape} vs {target_probs.shape}")
        _check_prob_rows(pred_probs, "predicted probabilities")
        _check_prob_rows(target_probs, "target probabilities")
        l1 = tsum(abs_(sub(pred_probs, target_probs)))
        loss = add(loss, scale(l1, cfg.alpha / pred_probs.size))
    return loss


# ---------------------------------------------------------------------------
# Gradient utilities and optimizers
# ---------------------------------------------------------------------------

def global_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> tuple[list[np.ndarray], float]:
    """Scale every gradient by max_norm/norm when the joint L2 norm exceeds
    max_norm; otherwise return them untouched.  Returns (grads, pre-norm).
    A non-finite norm has no meaningful scale, so those gradients also come
    back untouched; the caller must check the norm."""
    if not max_norm > 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = global_norm(grads)
    if norm <= max_norm or not np.isfinite(norm):
        return grads, norm
    factor = max_norm / norm
    return [g * factor for g in grads], norm


class _FlatParams:
    """Optimizer state over one flat float64 vector ``theta`` that holds
    every parameter, in list order.  A step joins the gradients once,
    updates a new ``theta`` with whole-vector operations, and rebinds each
    parameter's ``data`` to a reshaped view of it: data is rebound, never
    written through.  The update rules are elementwise, so every value is
    the one a per-tensor loop computes.  The state is built for the
    parameter shapes of the first step; a step with another count or shape
    of parameters, or with gradients that do not match them, raises
    ``ValueError``."""

    def __init__(self):
        self._shapes: list[tuple[int, ...]] | None = None
        self.theta: np.ndarray | None = None
        self._slices: list[slice] = []  # each parameter's span of ``theta``
        self._views: list[np.ndarray] = []  # the arrays the last step bound

    def _join(self, params: list[Tensor], grads: list[np.ndarray]) -> np.ndarray:
        """Check both lists against the layout, re-read ``theta`` if any
        parameter was rebound since the last step, and return the joined
        gradient vector."""
        if len(grads) != len(params):
            raise ValueError(f"{len(params)} parameters but {len(grads)} gradients")
        if self._shapes is None:
            self._shapes = [p.data.shape for p in params]
            ends = list(itertools.accumulate((math.prod(s) for s in self._shapes), initial=0))
            self._slices = [slice(a, b) for a, b in zip(ends, ends[1:])]
        if len(params) != len(self._shapes):
            raise ValueError(f"optimizer state was built for {len(self._shapes)} parameters, "
                             f"got {len(params)}")
        if [g.shape for g in grads] != self._shapes:
            raise ValueError(f"gradient shapes {[g.shape for g in grads]} differ from "
                             f"the parameter shapes {self._shapes}")
        if self.theta is None or any(p.data is not v for p, v in zip(params, self._views)):
            if [p.data.shape for p in params] != self._shapes:
                raise ValueError(f"parameter shapes {[p.data.shape for p in params]} differ "
                                 f"from the {self._shapes} the optimizer state was built for")
            self.theta = np.concatenate([p.data.ravel() for p in params])
        return np.concatenate([g.ravel() for g in grads])

    def _bind(self, params: list[Tensor], theta: np.ndarray) -> None:
        self.theta = theta
        self._views = [theta[sl].reshape(shape) for sl, shape in zip(self._slices, self._shapes)]
        for p, view in zip(params, self._views):
            p.data = view


class Sgd(_FlatParams):
    def step(self, params: list[Tensor], grads: list[np.ndarray], lr: float) -> None:
        g = self._join(params, grads)
        self._bind(params, self.theta - lr * g)


# Adam's moment decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam(_FlatParams):
    def __init__(self):
        super().__init__()
        self.m: np.ndarray | None = None  # flat, in ``theta``'s layout
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, params: list[Tensor], grads: list[np.ndarray], lr: float) -> None:
        g = self._join(params, grads)
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * (g * g)
        m_hat = self.m / (1 - b1 ** self.t)
        v_hat = self.v / (1 - b2 ** self.t)
        self._bind(params, self.theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


def make_optimizer(name: str):
    return Adam() if name == "adam" else Sgd()


# ---------------------------------------------------------------------------
# Batch assembly and evaluation
# ---------------------------------------------------------------------------

def records_arrays(records: list[FeatureRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack records into (n, T, d_x), (n, T, d_s), and labels (n,)."""
    if not records:
        raise ValueError("no records")
    # np.array builds np.stack's array in under half the time, and also
    # raises ValueError on records of mixed shapes.
    app = np.array([r.appearance for r in records])
    flow = np.array([r.flow_target for r in records])
    labels = np.array([r.label for r in records], dtype=np.int64)
    return app, flow, labels


# Sequences per forward call in ``hallucinate_array``.  A batched pass holds
# a few dozen (T * block, d) intermediates at once, so blocking keeps the
# working set fixed however many records a file or validation set has.
_HALLUCINATE_BLOCK = 64


def _step_views(batch: np.ndarray) -> list[Tensor]:
    """An (n, T, d) batch as T (n, d) steps, views into the batch: the
    model's one join copies them."""
    return [Tensor(step) for step in batch.transpose(1, 0, 2)]


def hallucinate_array(model: Hallucinator, app: np.ndarray) -> np.ndarray:
    """Run the model over a stacked (n, T, d_x) batch, returning
    (n, T, output_dim).  Nothing is recorded."""
    out = []
    for start in range(0, app.shape[0], _HALLUCINATE_BLOCK):
        block = app[start:start + _HALLUCINATE_BLOCK]
        rows = model.forward_steps(_step_views(block)).data
        out.append(rows.reshape(block.shape[1], block.shape[0], -1).transpose(1, 0, 2))
    return np.concatenate(out)


@dataclasses.dataclass
class EvalResult:
    mse: float
    top1: float | None
    hallucinated: np.ndarray  # (n, T, output_dim) model output, full f64
    teacher_probs: np.ndarray | None = None  # (n, C) behind top1


def evaluate(model: Hallucinator, records: list[FeatureRecord],
             classifier: LinearClassifier | None = None) -> EvalResult:
    """Val-set metrics: feature MSE, plus teacher top-1 on the hallucinated
    features when a classifier is supplied.  The hallucinated features come
    back too, and so do the teacher's class probabilities, so callers need
    not run the model or the classifier again.

    The MSE uses full f64 outputs.  The top-1 path first rounds the
    hallucinated features to the f32 precision the dataset files carry, so
    classifying a written-then-reread hallucination gives the same answer.
    Each sequence's logits are one ``W @ x`` as ``classify`` computes them:
    one batched matmul rounds the last bit differently.
    """
    app, flow, labels = records_arrays(records)
    pred = hallucinate_array(model, app)
    if pred.shape != flow.shape:
        raise ValueError(f"model emits {pred.shape[2]} dims but targets have {flow.shape[2]}")
    mse = float(np.mean((pred - flow) ** 2))
    top1 = probs = None
    if classifier is not None:
        pooled = pred.astype(np.float32).astype(np.float64).mean(axis=1)
        probs = _np_softmax(np.stack([classifier.W @ x for x in pooled]) + classifier.b)
        top1 = float(np.mean(np.argmax(probs, axis=1) == labels))
    return EvalResult(mse=mse, top1=top1, hallucinated=pred, teacher_probs=probs)


# ---------------------------------------------------------------------------
# The epoch loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EpochStats:
    """One epoch of the report.  The gradient fields describe the global
    norm of each batch's gradients before clipping: their mean and max,
    and the fraction of batches whose norm exceeded ``clip_norm`` and were
    scaled down."""
    epoch: int
    lr: float
    train_loss: float
    val_mse: float
    val_top1: float | None
    grad_norm_mean: float
    grad_norm_max: float
    clip_fraction: float


@dataclasses.dataclass
class TrainReport:
    epochs: list[EpochStats]
    best_epoch: int
    best_val_mse: float | None
    stopped_early: bool

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "TrainReport":
        raw = json.loads(text)
        epochs = [EpochStats(**e) for e in raw["epochs"]]
        return cls(epochs=epochs, best_epoch=raw["best_epoch"],
                   best_val_mse=raw["best_val_mse"], stopped_early=raw["stopped_early"])


def train(model: Hallucinator, train_records: list[FeatureRecord],
          val_records: list[FeatureRecord], cfg: TrainConfig,
          loss_cfg: LossConfig) -> TrainReport:
    """Run the epoch loop; on return the model holds the best-validation
    parameters and the report holds the full per-epoch history."""
    cfg.validate()
    loss_cfg.validate()
    if not train_records or not val_records:
        raise ValueError(f"train needs at least one training and one validation record, "
                         f"got {len(train_records)} and {len(val_records)}")
    app, flow, _ = records_arrays(train_records)
    n, t_len = app.shape[0], app.shape[1]
    clf = loss_cfg.classifier if loss_cfg.alpha > 0 else None
    target_probs_all = None
    if clf is not None:
        target_probs_all = _np_softmax(flow.mean(axis=1) @ clf.W.T + clf.b)
    params = model.tensors()
    optimizer = make_optimizer(cfg.optimizer)
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    best_epoch = -1
    best_val = np.inf
    best_snapshot: list[np.ndarray] | None = None
    stopped_early = False
    for epoch in range(cfg.max_epochs):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(n)
        loss_sum = 0.0
        norms: list[float] = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_app = app[idx]
            xs = _step_views(batch_app)
            tgt = Tensor(flow[idx].transpose(1, 0, 2).reshape(t_len * len(idx), -1))
            with Tape() as tape:
                pred = model.forward_steps(xs)
                pred_probs = target_probs = None
                if clf is not None:
                    pred_probs = class_probabilities_steps(pred, clf, len(idx))
                    target_probs = Tensor(target_probs_all[idx])
                loss = hallucination_loss(pred, tgt, pred_probs, target_probs, loss_cfg)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss in epoch {epoch}, "
                                       f"batch {start // cfg.batch_size}")
            for p in params:
                p.zero_grad()
            tape.backward(loss)
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            grads, norm = clip_global_norm(grads, cfg.clip_norm)
            if not np.isfinite(norm):
                raise TrainingDiverged(f"non-finite gradient norm in epoch {epoch}, "
                                       f"batch {start // cfg.batch_size}")
            optimizer.step(params, grads, lr)
            loss_sum += value * len(idx)
            norms.append(norm)
        val = evaluate(model, val_records, clf)
        if not np.isfinite(val.mse):
            raise TrainingDiverged(f"non-finite validation MSE in epoch {epoch}")
        history.append(EpochStats(epoch=epoch, lr=lr, train_loss=loss_sum / n,
                                  val_mse=val.mse, val_top1=val.top1,
                                  grad_norm_mean=sum(norms) / len(norms),
                                  grad_norm_max=max(norms),
                                  clip_fraction=sum(x > cfg.clip_norm for x in norms) / len(norms)))
        if val.mse < best_val:
            best_val = val.mse
            best_epoch = epoch
            best_snapshot = [p.data.copy() for p in params]
        elif epoch - best_epoch >= cfg.patience:
            stopped_early = True
            break
    if best_snapshot is not None:
        for p, saved in zip(params, best_snapshot):
            p.data = saved
    return TrainReport(epochs=history, best_epoch=best_epoch,
                       best_val_mse=float(best_val) if history else None,
                       stopped_early=stopped_early)
