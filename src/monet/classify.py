"""Temporal-pooled linear classification, two-stream ensembling, metrics.

Each stream's classifier is a single linear map over the time-averaged
feature vector, followed by a softmax.  Inference is plain numpy; the
tape-recorded variant (used inside the hallucination loss, where gradient
must flow through the features into a frozen classifier) lives alongside.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .tensor import (Tensor, _softmax_stable as _np_softmax, affine, scale, softmax,
                     sum_row_blocks)

PROB_SUM_TOL = 1e-9


@dataclasses.dataclass
class LinearClassifier:
    """Mean-pool over time, then W x + b and a softmax.  W is (C, D)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError(f"classifier needs W (C, D) and b (C,), "
                             f"got {self.W.shape} and {self.b.shape}")

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.W.shape[1]


@dataclasses.dataclass
class Prediction:
    probs: np.ndarray
    top1: int

    def validate(self) -> None:
        if abs(float(self.probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")
        if (self.probs < 0).any():
            raise ValueError("negative probability")


def pooled_features(seq: np.ndarray) -> np.ndarray:
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ValueError(f"need a (T, D) sequence with T >= 1, got {seq.shape}")
    return seq.mean(axis=0)


def classify(seq: np.ndarray, clf: LinearClassifier) -> Prediction:
    """Predict one sequence: softmax(W mean_t(seq) + b)."""
    pooled = pooled_features(seq)
    if pooled.shape[0] != clf.feature_dim:
        raise ValueError(f"feature dim {pooled.shape[0]} does not match "
                         f"classifier dim {clf.feature_dim}")
    probs = _np_softmax(clf.W @ pooled + clf.b)
    return Prediction(probs=probs, top1=int(np.argmax(probs)))


def ensemble(p_app: Prediction, p_flow: Prediction) -> Prediction:
    """Equal-weight average of two streams' probabilities, re-argmaxed."""
    if p_app.probs.shape != p_flow.probs.shape:
        raise ValueError(f"class counts differ: {p_app.probs.shape} vs {p_flow.probs.shape}")
    probs = 0.5 * (p_app.probs + p_flow.probs)
    return Prediction(probs=probs, top1=int(np.argmax(probs)))


def top1_accuracy(preds: list[Prediction], labels: list[int]) -> float:
    if len(preds) != len(labels):
        raise ValueError(f"got {len(preds)} predictions for {len(labels)} labels")
    if not preds:
        raise ValueError("top1_accuracy of an empty set is undefined")
    hits = sum(1 for p, y in zip(preds, labels) if p.top1 == y)
    return hits / len(preds)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted when it holds a comma, a quote or a
    line break.  (``csv.writer`` with a ``"\\n"`` line end leaves a bare
    ``"\\r"`` unquoted, which ``csv.reader`` splits the row at.)"""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def predictions_csv(ids: list[str], labels: list[int], preds: list[Prediction]) -> str:
    """CSV export: example_id, label, top1, then one probability column per class."""
    if not preds:
        raise ValueError("nothing to export")
    c = preds[0].probs.shape[0]
    lines = ["example_id,label,top1," + ",".join(f"prob_{k}" for k in range(c))]
    for rid, y, p in zip(ids, labels, preds):
        cells = [_csv_field(rid), str(y), str(p.top1)] + [f"{float(v):.17g}" for v in p.probs]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tape path (frozen classifier, gradient flows through the features)
# ---------------------------------------------------------------------------

def class_probabilities_steps(rows: Tensor, clf: LinearClassifier, n: int) -> Tensor:
    """Per-example class probabilities for a batch of ``n`` sequences, given
    as their time-major (T*n, D) matrix.  Each sequence is mean-pooled over
    time, summed first step to last.  Classifier weights enter as constants,
    so backward reaches the features only."""
    pooled = scale(sum_row_blocks(rows, n), 1.0 / (rows.shape[0] // n))
    logits = affine(((pooled, Tensor(clf.W.T.copy())),), Tensor(clf.b.copy()))
    return softmax(logits)


# ---------------------------------------------------------------------------
# Classifier fitting (deterministic full-batch logistic regression)
# ---------------------------------------------------------------------------

def fit_linear_classifier(features: np.ndarray, labels: np.ndarray, n_classes: int,
                          lr: float = 0.5, iters: int = 300) -> LinearClassifier:
    """Multinomial logistic regression on pooled features by full-batch
    gradient descent from zero weights.  No randomness: refitting on the
    same inputs gives bit-identical weights."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"need features (n, D) with matching labels, got {x.shape} and {y.shape}")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty set")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels outside [0, {n_classes})")
    n, d = x.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    for _ in range(iters):
        resid = _np_softmax(x @ w.T + b) - onehot
        w -= lr * (resid.T @ x) / n
        b -= lr * resid.mean(axis=0)
    return LinearClassifier(W=w, b=b)


def pooled_matrix(seqs: list[np.ndarray]) -> np.ndarray:
    return np.stack([pooled_features(s) for s in seqs])
