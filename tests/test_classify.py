"""Pooled linear classification, two-stream ensembling, and metrics."""

import csv
import io

import numpy as np
import pytest

from monet.classify import (LinearClassifier, Prediction, _np_softmax,
                            class_probabilities_steps, classify, ensemble,
                            fit_linear_classifier, pooled_features,
                            pooled_matrix, predictions_csv, top1_accuracy)
from monet.tensor import Tape, Tensor, finite_diff_grad, relative_error, tsum


def random_clf(rng, c=4, d=6):
    return LinearClassifier(W=rng.normal(size=(c, d)), b=rng.normal(size=c))


# -- classify ----------------------------------------------------------------

def test_zero_classifier_is_uniform():
    clf = LinearClassifier(W=np.zeros((5, 3)), b=np.zeros(5))
    pred = classify(np.random.default_rng(0).normal(size=(4, 3)), clf)
    np.testing.assert_allclose(pred.probs, np.full(5, 0.2), rtol=1e-15)


def test_mean_pool_collapses_repeated_frames():
    rng = np.random.default_rng(1)
    clf = random_clf(rng)
    frame = rng.normal(size=(1, 6))
    single = classify(frame, clf)
    repeated = classify(np.repeat(frame, 7, axis=0), clf)
    np.testing.assert_allclose(repeated.probs, single.probs, rtol=1e-12)
    assert repeated.top1 == single.top1


def test_classify_matches_hand_computed_softmax():
    rng = np.random.default_rng(2)
    clf = random_clf(rng)
    seq = rng.normal(size=(5, 6))
    pred = classify(seq, clf)
    logits = clf.W @ seq.mean(axis=0) + clf.b
    hand = np.exp(logits - logits.max())
    hand = hand / hand.sum()
    assert np.max(np.abs(pred.probs - hand)) < 1e-12
    assert pred.top1 == int(np.argmax(hand))
    pred.validate()


def test_classify_is_invariant_to_time_permutation():
    rng = np.random.default_rng(3)
    clf = random_clf(rng)
    seq = rng.normal(size=(8, 6))
    base = classify(seq, clf)
    shuffled = classify(seq[rng.permutation(8)], clf)
    np.testing.assert_allclose(shuffled.probs, base.probs, rtol=1e-12)


def test_classify_rejects_dim_mismatch():
    clf = LinearClassifier(W=np.zeros((3, 4)), b=np.zeros(3))
    with pytest.raises(ValueError, match="dim"):
        classify(np.zeros((5, 6)), clf)
    with pytest.raises(ValueError):
        pooled_features(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        pooled_features(np.zeros(4))


def test_classifier_shape_contract():
    with pytest.raises(ValueError):
        LinearClassifier(W=np.zeros((3, 4)), b=np.zeros(4))


def test_prediction_validate_rejects_bad_vectors():
    with pytest.raises(ValueError):
        Prediction(probs=np.array([0.7, 0.7]), top1=0).validate()
    with pytest.raises(ValueError):
        Prediction(probs=np.array([1.5, -0.5]), top1=0).validate()


# -- ensemble ----------------------------------------------------------------

def test_ensemble_of_identical_streams_is_identity():
    p = Prediction(probs=np.array([0.1, 0.6, 0.3]), top1=1)
    fused = ensemble(p, p)
    np.testing.assert_array_equal(fused.probs, p.probs)
    assert fused.top1 == 1


def test_ensemble_follows_the_peaked_stream():
    uniform = Prediction(probs=np.full(4, 0.25), top1=0)
    peaked = Prediction(probs=np.array([0.05, 0.05, 0.85, 0.05]), top1=2)
    assert ensemble(uniform, peaked).top1 == 2


def test_ensemble_is_commutative_and_convex():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(5))
        pa = Prediction(probs=a, top1=int(np.argmax(a)))
        pb = Prediction(probs=b, top1=int(np.argmax(b)))
        ab, ba = ensemble(pa, pb), ensemble(pb, pa)
        np.testing.assert_array_equal(ab.probs, ba.probs)
        ab.validate()
        assert abs(ab.probs.sum() - 1.0) < 1e-12


def test_ensemble_rejects_class_count_mismatch():
    pa = Prediction(probs=np.full(3, 1 / 3), top1=0)
    pb = Prediction(probs=np.full(4, 0.25), top1=0)
    with pytest.raises(ValueError):
        ensemble(pa, pb)


# -- metrics -----------------------------------------------------------------

def test_top1_accuracy_edges():
    perfect = [Prediction(probs=np.eye(3)[y], top1=y) for y in (0, 1, 2)]
    assert top1_accuracy(perfect, [0, 1, 2]) == 1.0
    assert top1_accuracy([perfect[0]], [2]) == 0.0
    with pytest.raises(ValueError):
        top1_accuracy([], [])
    with pytest.raises(ValueError):
        top1_accuracy(perfect, [0, 1])


def test_top1_accuracy_on_uniform_predictions_is_near_chance():
    rng = np.random.default_rng(5)
    n, c = 10000, 4
    preds = [Prediction(probs=np.full(c, 0.25), top1=0) for _ in range(n)]
    labels = list(rng.integers(0, c, size=n))
    acc = top1_accuracy(preds, labels)
    assert abs(acc - 0.25) < 0.05


def test_accuracy_invariant_under_consistent_relabeling():
    rng = np.random.default_rng(6)
    clf = random_clf(rng, c=5, d=4)
    seqs = [rng.normal(size=(6, 4)) for _ in range(40)]
    labels = list(rng.integers(0, 5, size=40))
    base = top1_accuracy([classify(s, clf) for s in seqs], labels)

    perm = rng.permutation(5)  # new class k holds old class perm[k]
    relabeled_clf = LinearClassifier(W=clf.W[perm], b=clf.b[perm])
    inverse = np.argsort(perm)
    relabeled = [int(inverse[y]) for y in labels]
    moved = top1_accuracy([classify(s, relabeled_clf) for s in seqs], relabeled)
    assert moved == base


# -- CSV export --------------------------------------------------------------

def test_predictions_csv_layout():
    preds = [Prediction(probs=np.array([0.25, 0.75]), top1=1),
             Prediction(probs=np.array([0.9, 0.1]), top1=0)]
    text = predictions_csv(["a", "b"], [1, 1], preds)
    lines = text.strip().split("\n")
    assert lines[0] == "example_id,label,top1,prob_0,prob_1"
    assert lines[1].split(",")[:3] == ["a", "1", "1"]
    assert float(lines[2].split(",")[3]) == 0.9
    with pytest.raises(ValueError):
        predictions_csv([], [], [])


def test_predictions_csv_reads_back_any_id():
    """Ids holding a comma, a quote or a line break come back whole from
    ``csv.reader``, each row with the header's six columns."""
    ids = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain"]
    preds = [Prediction(probs=np.array([0.2, 0.3, 0.5]), top1=2)] * len(ids)
    text = predictions_csv(ids, [0] * len(ids), preds)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [len(row) for row in rows] == [6] * (1 + len(ids))
    assert [row[0] for row in rows[1:]] == ids
    assert predictions_csv(["seq-00001"], [0], preds[:1]).split("\n")[1].startswith("seq-00001,0,2,")


# -- tape path ---------------------------------------------------------------

def test_tape_probabilities_match_plain_inference():
    rng = np.random.default_rng(7)
    clf = random_clf(rng, c=3, d=4)
    steps_np = [rng.normal(size=(2, 4)) for _ in range(5)]
    probs = class_probabilities_steps(Tensor(np.concatenate(steps_np)), clf, 2)
    for i in range(2):
        seq = np.stack([s[i] for s in steps_np])
        np.testing.assert_allclose(probs.data[i], classify(seq, clf).probs,
                                   rtol=1e-12)


def test_tape_probabilities_of_the_time_major_matrix_match_the_step_chain():
    """The matrix gives the probabilities of pooling by a chain of step
    additions, bit for bit."""
    rng = np.random.default_rng(10)
    clf = random_clf(rng, c=3, d=4)
    steps_np = [rng.normal(size=(2, 4)) * 10.0 ** rng.uniform(-4, 4, (2, 4)) for _ in range(20)]
    total = steps_np[0]
    for s in steps_np[1:]:
        total = total + s
    expected = _np_softmax((total * (1.0 / 20)) @ clf.W.T.copy() + clf.b)
    probs = class_probabilities_steps(Tensor(np.concatenate(steps_np)), clf, 2)
    assert np.array_equal(probs.data.view(np.int64), expected.view(np.int64))


def test_tape_probabilities_gradient_reaches_features():
    rng = np.random.default_rng(8)
    clf = random_clf(rng, c=3, d=4)
    feat = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    with Tape() as tape:
        loss = tsum(class_probabilities_steps(feat, clf, 2))
    tape.backward(loss)

    def f(t):
        return tsum(class_probabilities_steps(t, clf, 2))

    err = relative_error(feat.grad, finite_diff_grad(f, Tensor(feat.data.copy())))
    assert err < 1e-5


# -- fitting -----------------------------------------------------------------

def test_fit_is_deterministic_and_separates_easy_data():
    rng = np.random.default_rng(9)
    centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
    labels = np.repeat(np.arange(3), 30)
    feats = centers[labels] + rng.normal(0, 0.3, size=(90, 2))
    a = fit_linear_classifier(feats, labels, 3)
    b = fit_linear_classifier(feats, labels, 3)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)
    preds = [classify(f[None, :], a) for f in feats]
    assert top1_accuracy(preds, list(labels)) > 0.95


def test_fit_contract_errors():
    with pytest.raises(ValueError):
        fit_linear_classifier(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValueError):
        fit_linear_classifier(np.zeros((4, 3)), np.array([0, 1, 2, 3]), 3)
    with pytest.raises(ValueError):
        fit_linear_classifier(np.zeros((4, 3)), np.zeros(3, dtype=int), 2)


def test_pooled_matrix_stacks_means():
    seqs = [np.ones((2, 3)), 3.0 * np.ones((5, 3))]
    out = pooled_matrix(seqs)
    np.testing.assert_array_equal(out, np.array([[1.0] * 3, [3.0] * 3]))
