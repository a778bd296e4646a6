"""Objective, clipping, schedule, optimizers, and the epoch loop."""

import math

import numpy as np
import pytest

from monet.cells import CellConfig, Hallucinator, match_params
from monet.classify import (_np_softmax, class_probabilities_steps, classify,
                            fit_linear_classifier, pooled_matrix)
from monet.data import SyntheticTaskSpec, generate_synthetic
from monet.tensor import ShapeError, Tape, Tensor, _sweep
from monet.training import (Adam, LossConfig, Sgd, TrainConfig, TrainReport,
                            TrainingDiverged, clip_global_norm, evaluate,
                            global_norm, hallucinate_array,
                            hallucination_loss, lr_at, records_arrays, train)


def small_task(**overrides):
    base = dict(n_classes=4, seq_len=10, d_x=8, d_s=6, n_train=64, n_val=16,
                noise_sigma=0.05, seed=3)
    base.update(overrides)
    return generate_synthetic(SyntheticTaskSpec(**base))


def teacher_for(records, n_classes):
    feats = pooled_matrix([r.flow_target for r in records])
    return fit_linear_classifier(feats, np.array([r.label for r in records]),
                                 n_classes)


def fresh_model(d_x=8, d_s=6, seed=0, **kwargs):
    cfg = CellConfig(family="monet", d_x=d_x, d_s=d_s, **kwargs)
    return Hallucinator.build(cfg, np.random.default_rng(seed))


# -- Schedule ----------------------------------------------------------------

def test_lr_schedule_steps_are_exact():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 2e-4
    assert lr_at(14, cfg) == 2e-4
    assert lr_at(15, cfg) == 2e-5
    assert lr_at(30, cfg) == 2e-6
    assert lr_at(44, cfg) == 2e-6


def test_lr_schedule_follows_formula_deep_into_decay():
    cfg = TrainConfig()
    assert math.isclose(lr_at(45, cfg), 2e-7, rel_tol=1e-12)
    assert lr_at(45, cfg) == cfg.lr / 1000.0


def test_lr_schedule_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_at(-1, TrainConfig())


# -- Objective ---------------------------------------------------------------

def test_loss_is_zero_on_identical_inputs():
    rng = np.random.default_rng(0)
    s = Tensor(rng.normal(size=(4, 3)))
    p = Tensor(_np_softmax(rng.normal(size=(2, 5))))
    clf_stub = LossConfig(alpha=10.0, classifier="frozen")  # only alpha is read here
    loss = hallucination_loss(s, Tensor(s.data.copy()), p,
                              Tensor(p.data.copy()), clf_stub)
    assert loss.item() == 0.0


def test_loss_alpha_zero_is_pure_quadratic():
    rng = np.random.default_rng(1)
    target = Tensor(rng.normal(size=(5, 4)))
    gap = rng.normal(size=(5, 4))
    cfg = LossConfig(alpha=0.0)
    one = hallucination_loss(Tensor(target.data + gap), target, None, None, cfg)
    two = hallucination_loss(Tensor(target.data + 2 * gap), target, None, None, cfg)
    assert math.isclose(two.item(), 4 * one.item(), rel_tol=1e-12)


def test_loss_matches_hand_summed_formula():
    rng = np.random.default_rng(2)
    n, t_len, d, c = 3, 4, 5, 6
    pred_np = rng.normal(size=(t_len, n, d))
    tgt_np = rng.normal(size=(t_len, n, d))
    p_pred = _np_softmax(rng.normal(size=(n, c)))
    p_tgt = _np_softmax(rng.normal(size=(n, c)))
    alpha = 10.0

    expected_sq = 0.0
    for t in range(t_len):
        for i in range(n):
            for j in range(d):
                expected_sq += (pred_np[t, i, j] - tgt_np[t, i, j]) ** 2
    expected_l1 = 0.0
    for i in range(n):
        for k in range(c):
            expected_l1 += abs(p_pred[i, k] - p_tgt[i, k])
    expected = expected_sq / (n * t_len * d) + alpha * expected_l1 / (n * c)

    loss = hallucination_loss([Tensor(pred_np[t]) for t in range(t_len)],
                              [Tensor(tgt_np[t]) for t in range(t_len)],
                              Tensor(p_pred), Tensor(p_tgt),
                              LossConfig(alpha=alpha, classifier="frozen"))
    assert math.isclose(loss.item(), expected, rel_tol=1e-12)


def _loss_with_grad(pred, tgt):
    with Tape() as tape:
        loss = hallucination_loss(pred, tgt, None, None, LossConfig(alpha=0.0))
    tape.backward(loss)
    return loss.item(), len(tape)


def test_list_form_loss_matches_matrix_form():
    rng = np.random.default_rng(4)
    t_len, n, d = 7, 3, 5
    pred = rng.normal(size=(t_len * n, d))
    tgt = rng.normal(size=(t_len * n, d))
    steps = [Tensor(pred[t * n:(t + 1) * n].copy(), requires_grad=True) for t in range(t_len)]
    listed, listed_nodes = _loss_with_grad(
        steps, [Tensor(tgt[t * n:(t + 1) * n]) for t in range(t_len)])
    whole = Tensor(pred.copy(), requires_grad=True)
    joined, joined_nodes = _loss_with_grad(whole, Tensor(tgt))
    joined_grad = np.concatenate([s.grad for s in steps])
    assert np.array_equal(joined_grad.view(np.int64), whole.grad.view(np.int64))
    assert listed == joined
    # Each list, the constant targets' too, is joined by one concat node.
    assert listed_nodes == joined_nodes + 2


def test_list_form_loss_tape_size_does_not_depend_on_length():
    rng = np.random.default_rng(6)
    sizes = set()
    for t_len in (1, 4, 20):
        steps = [Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(t_len)]
        _, nodes = _loss_with_grad(steps, [Tensor(rng.normal(size=(3, 2))) for _ in range(t_len)])
        sizes.add(nodes)
    assert len(sizes) == 1, sizes


def test_loss_is_nonnegative_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        p = Tensor(_np_softmax(rng.normal(size=(2, 3))))
        q = Tensor(_np_softmax(rng.normal(size=(2, 3))))
        val = hallucination_loss(a, b, p, q,
                                 LossConfig(alpha=5.0, classifier="frozen")).item()
        assert val >= 0.0


def test_loss_contract_errors():
    a = Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="shapes differ"):
        hallucination_loss(a, Tensor(np.zeros((3, 3))), None, None,
                           LossConfig(alpha=0.0))
    with pytest.raises(ValueError, match="lengths differ"):
        hallucination_loss([a, a], [a], None, None, LossConfig(alpha=0.0))
    ragged = [a, Tensor(np.zeros((2, 2)))]
    with pytest.raises(ShapeError, match="all of one shape"):
        hallucination_loss(ragged, ragged, None, None, LossConfig(alpha=0.0))
    with pytest.raises(ValueError, match="probability"):
        hallucination_loss(a, a, Tensor(np.array([[0.7, 0.7]])),
                           Tensor(np.array([[0.5, 0.5]])),
                           LossConfig(alpha=1.0, classifier="frozen"))
    with pytest.raises(ValueError, match="requires both"):
        hallucination_loss(a, a, None, None,
                           LossConfig(alpha=1.0, classifier="frozen"))
    with pytest.raises(ValueError, match="alpha"):
        LossConfig(alpha=-1.0).validate()
    with pytest.raises(ValueError, match="teacher"):
        LossConfig(alpha=2.0, classifier=None).validate()


# -- Clipping ----------------------------------------------------------------

def test_clip_leaves_small_gradients_untouched():
    grads = [np.array([0.3, 0.4])]  # norm 0.5
    out, norm = clip_global_norm(grads, 1.0)
    assert norm == 0.5
    assert np.array_equal(out[0], grads[0])


def test_clip_rescales_three_four_to_unit_norm():
    out, norm = clip_global_norm([np.array([3.0, 4.0])], 1.0)
    assert norm == 5.0
    np.testing.assert_allclose(out[0], [0.6, 0.8], rtol=1e-12)


def test_clip_preserves_direction_and_caps_norm():
    rng = np.random.default_rng(4)
    grads = [rng.normal(size=(3, 2)) * 10, rng.normal(size=4) * 10]
    out, pre = clip_global_norm(grads, 1.0)
    assert global_norm(out) <= 1.0 + 1e-12
    flat_in = np.concatenate([g.ravel() for g in grads])
    flat_out = np.concatenate([g.ravel() for g in out])
    cosine = flat_in @ flat_out / (np.linalg.norm(flat_in) * np.linalg.norm(flat_out))
    assert abs(cosine - 1.0) < 1e-12
    assert pre > 1.0


def test_clip_leaves_non_finite_gradients_for_the_caller():
    grads = [np.array([np.inf, 1.0])]
    out, norm = clip_global_norm(grads, 1.0)
    assert norm == np.inf
    assert np.array_equal(out[0], grads[0])


def test_clip_rejects_nonpositive_max():
    with pytest.raises(ValueError):
        clip_global_norm([np.ones(2)], 0.0)


# -- Optimizers --------------------------------------------------------------

def test_sgd_step_descends_quadratic_bowl():
    w = Tensor(np.array([[2.0, -3.0]]), requires_grad=True)
    grad = 2.0 * w.data
    Sgd().step([w], [grad], lr=0.1)
    np.testing.assert_allclose(w.data, [[1.6, -2.4]], rtol=1e-12)
    assert np.sum(w.data ** 2) < 13.0


def test_adam_step_descends_quadratic_bowl():
    w = Tensor(np.array([[2.0, -3.0]]), requires_grad=True)
    before = float(np.sum(w.data ** 2))
    Adam().step([w], [2.0 * w.data], lr=0.01)
    assert float(np.sum(w.data ** 2)) < before


# -- Config validation -------------------------------------------------------

def test_train_config_rejects_bad_values():
    for bad in (dict(lr=-1.0), dict(decay_factor=0.0), dict(decay_factor=1.5),
                dict(decay_every=0), dict(batch_size=0), dict(max_epochs=-1),
                dict(clip_norm=0.0), dict(optimizer="rmsprop"), dict(patience=0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()


@pytest.mark.parametrize("field,build", [
    ("alpha", lambda v: LossConfig(alpha=v, classifier="frozen")),
    ("lr", lambda v: TrainConfig(lr=v)),
    ("clip_norm", lambda v: TrainConfig(clip_norm=v)),
    ("noise_sigma", lambda v: SyntheticTaskSpec(n_classes=2, seq_len=3, d_x=2, d_s=2, n_train=2,
                                                n_val=1, noise_sigma=v, seed=0)),
], ids=["alpha", "lr", "clip_norm", "noise_sigma"])
def test_validate_rejects_non_finite_floats(field, build):
    """A NaN or infinite value fails validation instead of dropping a term
    (alpha) or writing NaN weights (lr)."""
    build(1.0).validate()
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=field):
            build(value).validate()


# -- Epoch loop --------------------------------------------------------------

def test_zero_learning_rate_leaves_parameters_bit_identical():
    tr, va = small_task()
    model = fresh_model()
    before = [t.data.copy() for t in model.tensors()]
    cfg = TrainConfig(lr=0.0, max_epochs=10, batch_size=16, seed=0)
    report = train(model, tr, va, cfg, LossConfig(alpha=0.0))
    for t, keep in zip(model.tensors(), before):
        assert np.array_equal(t.data, keep)
    # no epoch can improve on epoch 0, so patience trips early
    assert report.stopped_early
    assert len(report.epochs) == cfg.patience + 1


def test_same_seed_gives_bit_identical_runs():
    tr, va = small_task()
    reports = []
    finals = []
    for _ in range(2):
        model = fresh_model(seed=1)
        rep = train(model, tr, va,
                    TrainConfig(lr=3e-3, max_epochs=3, batch_size=16, seed=7),
                    LossConfig(alpha=0.0))
        reports.append(rep.to_json())
        finals.append([t.data.copy() for t in model.tensors()])
    assert reports[0] == reports[1]
    for a, b in zip(*finals):
        assert np.array_equal(a, b)


def test_train_loss_strictly_decreases_under_default_config():
    tr, va = small_task()
    clf = teacher_for(tr, 4)
    model = fresh_model()
    report = train(model, tr, va, TrainConfig(max_epochs=5, seed=0),
                   LossConfig(alpha=10.0, classifier=clf))
    losses = [e.train_loss for e in report.epochs]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_training_restores_best_validation_parameters():
    tr, va = small_task()
    model = fresh_model()
    report = train(model, tr, va,
                   TrainConfig(lr=3e-3, max_epochs=6, batch_size=16, seed=2),
                   LossConfig(alpha=0.0))
    assert report.best_val_mse == min(e.val_mse for e in report.epochs)
    assert evaluate(model, va).mse == report.best_val_mse


def test_non_finite_loss_aborts_with_batch_diagnostic():
    tr, va = small_task(n_train=12, n_val=4)
    tr[3].appearance[0, 0] = np.nan
    model = fresh_model()
    with pytest.raises(TrainingDiverged, match=r"epoch 0, batch \d+"):
        train(model, tr, va, TrainConfig(max_epochs=1, batch_size=4, seed=0),
              LossConfig(alpha=0.0))


def test_non_finite_gradient_aborts_before_any_update(monkeypatch):
    tr, va = small_task(n_train=12, n_val=4)
    model = fresh_model()
    calls = []
    real_backward = Tape.backward

    def backward_with_overflow(tape, loss):
        real_backward(tape, loss)
        calls.append([t.data.copy() for t in model.tensors()])
        if len(calls) == 3:
            model.params.U_h.grad[0, 0] = np.inf

    monkeypatch.setattr(Tape, "backward", backward_with_overflow)
    with pytest.raises(TrainingDiverged, match=r"gradient norm in epoch 0, batch 2"):
        train(model, tr, va, TrainConfig(max_epochs=1, batch_size=4, seed=0),
              LossConfig(alpha=0.0))
    for t, before in zip(model.tensors(), calls[-1]):
        assert np.array_equal(t.data, before)


def test_train_rejects_empty_record_sets_before_any_step():
    tr, va = small_task(n_train=8, n_val=4)
    model = fresh_model()
    before = [t.data.copy() for t in model.tensors()]
    for train_recs, val_recs in (([], va), (tr, [])):
        with pytest.raises(ValueError, match="at least one training and one validation"):
            train(model, train_recs, val_recs, TrainConfig(max_epochs=1, batch_size=4),
                  LossConfig(alpha=0.0))
    for t, saved in zip(model.tensors(), before):
        assert np.array_equal(t.data, saved)


def test_hallucinate_array_blocks_match_whole_sequence_forward():
    """A forward call takes 64 sequences, and at T = 10 a monet pass runs
    512 // 10 = 51 of them at a time, so 0, 50, 51, 63, 64, 114, 115, 127,
    128 and 129 are the ends of the blocks; the GRU runs whole calls.  A
    sequence longer than 512 steps runs alone.  OpenBLAS may round a row
    differently with the block's row count (seen at d_s 19 with a readout),
    hence the 1e-12 bound rather than equality."""
    tr, _ = small_task(n_train=130, n_val=0)
    app = np.stack([r.appearance for r in tr])
    long = np.random.default_rng(1).normal(size=(3, 600, 8))
    monet = CellConfig(family="monet", d_x=8, d_s=6, layers=2)
    for config in (monet, match_params(monet, "gru").config,
                   CellConfig(family="monet", d_x=8, d_s=19, layers=2, out_dim=6)):
        model = Hallucinator.build(config, np.random.default_rng(0))
        out = hallucinate_array(model, app)
        assert out.shape == (130, 10, 6)
        for i in (0, 50, 51, 63, 64, 114, 115, 127, 128, 129):
            np.testing.assert_allclose(out[i], model.forward(Tensor(app[i])).data,
                                       rtol=0, atol=1e-12)
        out = hallucinate_array(model, long)
        np.testing.assert_allclose(out[2], model.forward(Tensor(long[2])).data, rtol=0, atol=1e-12)


def test_hallucinate_array_rejects_sequences_of_length_zero():
    with pytest.raises(ShapeError, match="at least one step"):
        hallucinate_array(fresh_model(layers=1), np.zeros((3, 0, 8)))


@pytest.mark.parametrize("alpha,block_sums", [(0.0, 0), (10.0, 1)])
def test_training_step_keeps_the_batch_time_major(monkeypatch, alpha, block_sums):
    """The model hands the loss its time-major output: the inputs are the
    step's one row join (the passes join their gated states on axis 1), and
    the teacher term pools it over time with one block sum."""
    tr, va = small_task(n_train=8, n_val=4)
    model = fresh_model(layers=3)
    recorded = []
    real_backward = Tape.backward

    def recording_backward(tape, loss):
        recorded.append(list(tape.nodes))
        real_backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", recording_backward)
    clf = teacher_for(tr, 4) if alpha > 0 else None
    train(model, tr, va, TrainConfig(max_epochs=1, batch_size=8),
          LossConfig(alpha=alpha, classifier=clf))
    [nodes] = recorded
    ops = [node.op for node in nodes]
    assert [node.saved[0] for node in nodes if node.op == "concat"].count(0) == 1
    assert ops.count("sum_row_blocks") == block_sums


def test_report_json_round_trip():
    tr, va = small_task(n_train=16, n_val=8)
    model = fresh_model()
    report = train(model, tr, va,
                   TrainConfig(lr=1e-3, max_epochs=2, batch_size=8, seed=0),
                   LossConfig(alpha=0.0))
    back = TrainReport.from_json(report.to_json())
    assert back == report
    assert all(e.val_top1 is None for e in back.epochs)


def test_evaluate_reports_teacher_top1():
    tr, va = small_task()
    clf = teacher_for(tr, 4)
    model = fresh_model()
    result = evaluate(model, va, clf)
    assert result.mse > 0.0
    assert 0.0 <= result.top1 <= 1.0


def test_evaluate_teacher_probs_are_the_per_sequence_classification():
    """The probabilities behind top1 are, bit for bit, ``classify`` on each
    f32-rounded hallucination, so ``monet eval`` can reuse them for its
    per-record CSV; without a classifier there are none."""
    tr, va = small_task()
    clf = teacher_for(tr, 4)
    result = evaluate(fresh_model(), va, clf)
    rounded = result.hallucinated.astype(np.float32).astype(np.float64)
    expected = np.stack([classify(seq, clf).probs for seq in rounded])
    assert np.array_equal(result.teacher_probs.view(np.int64), expected.view(np.int64))
    labels = np.array([r.label for r in va])
    assert result.top1 == float(np.mean(np.argmax(expected, axis=1) == labels))
    assert evaluate(fresh_model(), va).teacher_probs is None


def test_evaluate_rejects_dim_mismatch():
    tr, va = small_task()
    wrong = fresh_model(d_s=5)
    with pytest.raises(ValueError, match="dims"):
        evaluate(wrong, va)


# -- What the reverse sweep differentiates -------------------------------------

def _training_step(model, records, clf, inputs_require_grad):
    """One batch of ``train``'s step, alpha 10, with the appearance steps,
    the target features and the target probabilities created with the
    given ``requires_grad``.  Returns the tape and the loss."""
    app, flow, _ = records_arrays(records)
    n, t_len = app.shape[0], app.shape[1]
    xs = [Tensor(np.ascontiguousarray(app[:, t, :]), requires_grad=inputs_require_grad)
          for t in range(t_len)]
    tgt = Tensor(flow.transpose(1, 0, 2).reshape(t_len * n, -1),
                 requires_grad=inputs_require_grad)
    target_probs = Tensor(_np_softmax(flow.mean(axis=1) @ clf.W.T + clf.b),
                          requires_grad=inputs_require_grad)
    with Tape() as tape:
        pred = model.forward_steps(xs)
        pred_probs = class_probabilities_steps(pred, clf, n)
        loss = hallucination_loss(pred, tgt, pred_probs, target_probs,
                                  LossConfig(alpha=10.0, classifier=clf))
    return tape, loss


def _step_models():
    monet = CellConfig(family="monet", d_x=8, d_s=6, layers=3)
    return [monet, match_params(monet, "gru").config]


@pytest.mark.parametrize("config", _step_models(), ids=["monet-L3", "matched-gru"])
def test_parameter_gradients_do_not_depend_on_whether_inputs_require_grad(config):
    tr, _ = small_task(n_train=32, n_val=0)
    clf = teacher_for(tr, 4)
    model = Hallucinator.build(config, np.random.default_rng(0))
    runs = []
    for inputs_require_grad in (True, False):
        tape, loss = _training_step(model, tr, clf, inputs_require_grad)
        for p in model.tensors():
            p.zero_grad()
        tape.backward(loss)
        runs.append([p.grad for p in model.tensors()])
    for with_inputs, without in zip(*runs):
        assert without is not None and np.array_equal(with_inputs, without)


def test_sweep_keeps_no_gradient_for_a_constant():
    tr, _ = small_task(n_train=32, n_val=0)
    clf = teacher_for(tr, 4)
    model = fresh_model(layers=3)
    tape, loss = _training_step(model, tr, clf, inputs_require_grad=False)
    grads = _sweep(tape, {loss: np.ones(loss.shape)})
    assert set(model.tensors()) <= set(grads)
    assert [t for t in grads if not t.requires_grad] == []


def test_epoch_stats_summarise_the_pre_clip_gradient_norms(monkeypatch):
    tr, va = small_task(n_train=16, n_val=8)
    seen = []

    def recording_clip(grads, max_norm):
        result = clip_global_norm(grads, max_norm)
        seen.append(result[1])
        return result

    monkeypatch.setattr("monet.training.clip_global_norm", recording_clip)
    clip_norm = 0.2
    report = train(fresh_model(), tr, va,
                   TrainConfig(lr=3e-3, max_epochs=2, batch_size=4, clip_norm=clip_norm, seed=0),
                   LossConfig(alpha=0.0))
    assert len(seen) == 8
    for stats, norms in zip(report.epochs, (seen[:4], seen[4:])):
        assert stats.grad_norm_mean == sum(norms) / len(norms)
        assert stats.grad_norm_max == max(norms)
        assert stats.clip_fraction == sum(x > clip_norm for x in norms) / 4
    assert [e.clip_fraction for e in report.epochs] == [0.75, 0.25]
