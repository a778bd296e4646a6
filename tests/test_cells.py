"""Cell families: step semantics, receptive fields, parameter accounting,
and checkpoint round trips."""

import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest

from monet.binio import BadMagicError, DigestError, FormatError, TruncatedError, VersionError
from monet.cells import (FAMILIES, BidirParams, CellConfig, Conv1dParams,
                         ConvStage, GruParams, Hallucinator, MoNetParams,
                         collect_tensors, count_params, flops_per_sequence,
                         flops_per_step, gru_step, init_bidir,
                         init_cell, init_conv1d, init_monet, lstm_step,
                         MAX_LAYERS, match_params, monet_forward, monet_unit,
                         vanilla_step)
from monet.tensor import (ShapeError, Tape, Tensor, affine, concat, finite_diff_grad,
                          jacobian, mul, recurrent, relative_error, scale, tsum)


def zero_gru(d_x, d_s):
    z = lambda *shape: Tensor(np.zeros(shape), requires_grad=True)
    return GruParams(
        W_r=z(d_x, d_s), U_r=z(d_s, d_s), b_r=z(d_s),
        W_z=z(d_x, d_s), U_z=z(d_s, d_s), b_z=z(d_s),
        W_h=z(d_x, d_s), U_h=z(d_s, d_s), b_h=z(d_s))


def zero_monet(d_x, d_s):
    z = lambda *shape: Tensor(np.zeros(shape), requires_grad=True)
    return MoNetParams(
        W_r=z(d_x, d_s), U_r_left=z(d_s, d_s), U_r_right=z(d_s, d_s), b_r=z(d_s),
        W_z=z(d_x, d_s), U_z_left=z(d_s, d_s), U_z_right=z(d_s, d_s), b_z=z(d_s),
        W_h=z(d_x, d_s), U_h=z(2 * d_s, d_s), b_h=z(d_s))


# -- GRU --------------------------------------------------------------------

def test_gru_zero_params_zero_state_gives_zero():
    p = zero_gru(3, 4)
    s = gru_step(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 4))), p)
    np.testing.assert_array_equal(s.data, np.zeros((1, 4)))


def test_gru_saturated_update_gate_copies_state():
    p = zero_gru(3, 4)
    p.b_z.data[...] = 1000.0  # update gate pinned to 1
    prev = Tensor(np.array([[0.3, -1.2, 0.8, 2.0]]))
    s = gru_step(Tensor(np.ones((1, 3))), prev, p)
    np.testing.assert_allclose(s.data, prev.data, atol=1e-6)


def test_step_functions_reject_input_and_state_of_different_rows():
    """One step only: an input with a multiple of the state's rows is not
    read as several steps."""
    rng = np.random.default_rng(3)
    x, s = Tensor(np.ones((4, 3))), Tensor(np.zeros((2, 4)))
    for step, p in ((vanilla_step, init_cell("vanilla-rnn", 3, 4, rng)),
                    (gru_step, init_cell("gru", 3, 4, rng))):
        with pytest.raises(ShapeError, match="rows differ"):
            step(x, s, p)
    with pytest.raises(ShapeError, match="rows differ"):
        lstm_step(x, (s, s), init_cell("lstm", 3, 4, rng))


def test_gru_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    p = init_cell("gru", 3, 4, rng)
    x = Tensor(rng.uniform(-1, 1, (1, 3)))
    s0 = Tensor(rng.uniform(-1, 1, (1, 4)))
    with Tape() as tape:
        loss = tsum(gru_step(x, s0, p))
    tape.backward(loss)
    for leaf in collect_tensors(p):
        def f(t, leaf=leaf):
            keep = leaf.data
            leaf.data = t.data
            try:
                return tsum(gru_step(x, s0, p))
            finally:
                leaf.data = keep

        err = relative_error(leaf.grad, finite_diff_grad(f, Tensor(leaf.data.copy())))
        assert err < 1e-5


# -- LSTM -------------------------------------------------------------------

def test_lstm_zero_params_zero_state_gives_zero():
    rng = np.random.default_rng(0)
    p = init_cell("lstm", 3, 4, rng)
    for t in collect_tensors(p):
        t.data[...] = 0.0
    s, c = lstm_step(Tensor(np.ones((1, 3))), (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))), p)
    np.testing.assert_array_equal(s.data, np.zeros((1, 4)))
    np.testing.assert_array_equal(c.data, np.zeros((1, 4)))


def test_lstm_saturated_gates_preserve_cell():
    rng = np.random.default_rng(1)
    p = init_cell("lstm", 3, 4, rng)
    for t in collect_tensors(p):
        t.data[...] = 0.0
    p.b_f.data[...] = 1000.0   # forget gate exactly 1 in f64
    p.b_i.data[...] = -1000.0  # input gate exactly 0
    cell = Tensor(np.array([[0.5, -0.25, 2.0, -1.5]]))
    _, c_next = lstm_step(Tensor(np.ones((1, 3))), (Tensor(np.zeros((1, 4))), cell), p)
    np.testing.assert_array_equal(c_next.data, cell.data)


def test_lstm_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    p = init_cell("lstm", 2, 3, rng)
    x = Tensor(rng.uniform(-1, 1, (1, 2)))
    state = (Tensor(rng.uniform(-1, 1, (1, 3))), Tensor(rng.uniform(-1, 1, (1, 3))))
    leaf = p.W_g
    with Tape() as tape:
        s, _ = lstm_step(x, state, p)
        loss = tsum(s)
    tape.backward(loss)

    def f(t):
        keep = leaf.data
        leaf.data = t.data
        try:
            s, _ = lstm_step(x, state, p)
            return tsum(s)
        finally:
            leaf.data = keep

    assert relative_error(leaf.grad, finite_diff_grad(f, Tensor(leaf.data.copy()))) < 1e-5


# -- MoNet unit -------------------------------------------------------------

def test_monet_unit_zero_params_zero_neighbors():
    p = zero_monet(3, 4)
    zero_s = Tensor(np.zeros((1, 4)))
    trace = monet_unit(Tensor(np.ones((1, 3))), zero_s, zero_s, p)
    np.testing.assert_array_equal(trace.mix_left.data, np.full((1, 4), 0.5))
    np.testing.assert_array_equal(trace.mix_right.data, np.full((1, 4), 0.5))
    np.testing.assert_array_equal(trace.candidate.data, np.zeros((1, 4)))
    np.testing.assert_array_equal(trace.out.data, np.zeros((1, 4)))


def test_monet_unit_saturated_mix_gates_closed_form_weights():
    p = zero_monet(3, 4)
    p.b_z.data[...] = -1000.0  # mix gates exactly 0
    rng = np.random.default_rng(4)
    left = Tensor(rng.normal(size=(1, 4)))
    right = Tensor(rng.normal(size=(1, 4)))
    trace = monet_unit(Tensor(np.ones((1, 3))), left, right, p)
    e = math.e
    np.testing.assert_allclose(trace.weight_cand.data, e / (e + 2), rtol=1e-15)
    np.testing.assert_allclose(trace.weight_right.data, 1 / (e + 2), rtol=1e-15)
    np.testing.assert_allclose(trace.weight_left.data, 1 / (e + 2), rtol=1e-15)
    expected = (left.data + right.data) / (e + 2)
    np.testing.assert_allclose(trace.out.data, expected, rtol=1e-12)


def test_monet_unit_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    p = init_monet(3, 4, rng)
    x = Tensor(rng.uniform(-1, 1, (1, 3)))
    left = Tensor(rng.uniform(-1, 1, (1, 4)))
    right = Tensor(rng.uniform(-1, 1, (1, 4)))
    leaves = collect_tensors(p) + [x, left, right]
    for leaf in leaves:
        leaf.requires_grad = True
    with Tape() as tape:
        loss = tsum(monet_unit(x, left, right, p).out)
    tape.backward(loss)
    for leaf in leaves:
        def f(t, leaf=leaf):
            keep = leaf.data
            leaf.data = t.data
            try:
                return tsum(monet_unit(x, left, right, p).out)
            finally:
                leaf.data = keep

        err = relative_error(leaf.grad, finite_diff_grad(f, Tensor(leaf.data.copy())))
        assert err < 1e-5


def test_monet_trace_invariants_on_random_steps():
    rng = np.random.default_rng(6)
    p = init_monet(4, 5, rng)
    for _ in range(200):
        x = Tensor(rng.uniform(-2, 2, (1, 4)))
        left = Tensor(rng.uniform(-2, 2, (1, 5)))
        right = Tensor(rng.uniform(-2, 2, (1, 5)))
        tr = monet_unit(x, left, right, p)
        total = tr.weight_cand.data + tr.weight_right.data + tr.weight_left.data
        assert np.max(np.abs(total - 1.0)) < 1e-12
        for g in (tr.reset_left, tr.reset_right, tr.mix_left, tr.mix_right,
                  tr.weight_cand, tr.weight_right, tr.weight_left):
            assert np.all(g.data > 0.0) and np.all(g.data < 1.0)
        lo = np.minimum(np.minimum(tr.candidate.data, left.data), right.data)
        hi = np.maximum(np.maximum(tr.candidate.data, left.data), right.data)
        assert np.all(tr.out.data >= lo - 1e-12)
        assert np.all(tr.out.data <= hi + 1e-12)


def _assert_candidate_weight_bounds(mix_left, mix_right, weight_cand, neighbour_mass):
    """The fusion caps the candidate weight at e/(e+2) and leaves at least
    2/(e+2) to the neighbours, up to rounding; the cap is met where both
    mix gates are exactly 0 and missed by a margin wherever either is
    above 1e-6 (every gate of random, unsaturated inputs)."""
    e = math.e
    assert np.all(weight_cand <= e / (e + 2) + 1e-15)
    assert np.all(neighbour_mass >= 2 / (e + 2) - 1e-15)
    closed = (mix_left == 0.0) & (mix_right == 0.0)
    np.testing.assert_allclose(weight_cand[closed], e / (e + 2), rtol=1e-15)
    open_ = (mix_left > 1e-6) | (mix_right > 1e-6)
    assert np.all(weight_cand[open_] < e / (e + 2) - 1e-9)
    assert np.all(closed | open_)


def test_candidate_weight_is_capped_at_e_over_e_plus_2():
    """The depth failure's mechanism: with the constant candidate logit 1
    and sigmoid mix gates, no pass can keep more than e/(e+2) ~ 0.576 of its
    candidate, through ``monet_unit`` and through every pass of a run."""
    rng = np.random.default_rng(12)
    p = init_monet(4, 6, rng)
    p.b_z.data = np.where(np.arange(6) < 2, -1000.0, 0.0)  # two columns' mix gates shut
    for _ in range(50):
        tr = monet_unit(Tensor(rng.normal(0, 2, (3, 4))), Tensor(rng.normal(0, 2, (3, 6))),
                        Tensor(rng.normal(0, 2, (3, 6))), p)
        _assert_candidate_weight_bounds(tr.mix_left.data, tr.mix_right.data, tr.weight_cand.data,
                                        tr.weight_right.data + tr.weight_left.data)
        assert not tr.mix_left.data[:, :2].any() and not tr.mix_right.data[:, :2].any()
    for causal_only in (False, True):
        model = Hallucinator.build(CellConfig(family="monet", d_x=4, d_s=6, layers=3,
                                              causal_only=causal_only), rng)
        with Tape() as tape:
            model.forward_steps([Tensor(rng.normal(0, 2, (5, 4))) for _ in range(7)])
        [passes] = [node.saved[1] for node in tape.nodes if node.op == "monet_pass"]
        assert len(passes) == 4
        for _, _, _, (sig, _, _, _, w) in passes:
            _assert_candidate_weight_bounds(sig[1], sig[3], w[0], w[1] + w[2])


# -- MoNet sequence expansion ----------------------------------------------

def _band_blocks(jac, t_len, d_out, d_in):
    """Max |entry| per (t, u) block of a (T*d_out, T*d_in) jacobian."""
    mags = np.zeros((t_len, t_len))
    for t in range(t_len):
        for u in range(t_len):
            block = jac[t * d_out:(t + 1) * d_out, u * d_in:(u + 1) * d_in]
            mags[t, u] = np.max(np.abs(block))
    return mags


@pytest.mark.parametrize("layers", [1, 2])
def test_monet_receptive_field_is_exactly_layers(layers):
    rng = np.random.default_rng(11)
    p = init_monet(3, 4, rng)
    t_len = 5
    X = Tensor(rng.uniform(-1, 1, (t_len, 3)), requires_grad=True)
    with Tape() as tape:
        out = monet_forward(X, p, layers)
    jac = jacobian(out, X, tape)
    mags = _band_blocks(jac, t_len, 4, 3)
    for t in range(t_len):
        for u in range(t_len):
            if abs(u - t) > layers:
                assert mags[t, u] == 0.0, (t, u)
            else:
                assert mags[t, u] > 0.0, (t, u)


def test_monet_causal_only_blocks_future():
    rng = np.random.default_rng(12)
    p = init_monet(3, 4, rng)
    t_len = 5
    X = Tensor(rng.uniform(-1, 1, (t_len, 3)), requires_grad=True)
    with Tape() as tape:
        out = monet_forward(X, p, 2, causal_only=True)
    jac = jacobian(out, X, tape)
    mags = _band_blocks(jac, t_len, 4, 3)
    for t in range(t_len):
        for u in range(t_len):
            if u > t:
                assert mags[t, u] == 0.0, (t, u)
    assert mags[3, 2] > 0.0 and mags[3, 3] > 0.0


def test_monet_length_one_collapses_to_context_free_unit():
    rng = np.random.default_rng(13)
    p = init_monet(3, 4, rng)
    x_row = rng.uniform(-1, 1, (1, 3))
    zero_s = Tensor(np.zeros((1, 4)))
    unit_out = monet_unit(Tensor(x_row), zero_s, zero_s, p).out
    for layers in (1, 4):
        seq_out = monet_forward(Tensor(x_row), p, layers)
        np.testing.assert_allclose(seq_out.data, unit_out.data, rtol=0, atol=1e-15)


def test_monet_parameter_set_is_depth_independent():
    cfg1 = CellConfig(family="monet", d_x=3, d_s=4, layers=1)
    cfg5 = CellConfig(family="monet", d_x=3, d_s=4, layers=5)
    m1 = Hallucinator.build(cfg1, np.random.default_rng(0))
    m5 = Hallucinator.build(cfg5, np.random.default_rng(0))
    assert len(m1.tensors()) == len(m5.tensors()) == 11
    for a, b in zip(m1.tensors(), m5.tensors()):
        np.testing.assert_array_equal(a.data, b.data)


def _monet_unit_loop(xs, p, layers, causal_only):
    """The expansion as T separate unit calls per pass, zero states at the
    sequence ends."""
    zero = Tensor(np.zeros((xs[0].shape[0], p.b_h.shape[0])))
    states = [monet_unit(x, zero, zero, p).out for x in xs]
    for _ in range(layers):
        states = [monet_unit(xs[t], states[t - 1] if t > 0 else zero,
                             states[t + 1] if t + 1 < len(xs) and not causal_only else zero,
                             p).out
                  for t in range(len(xs))]
    return states


def _monet_forward_steps(xs, p, layers, causal_only):
    d_x, d_s = p.W_r.shape
    config = CellConfig(family="monet", d_x=d_x, d_s=d_s, layers=layers,
                        causal_only=causal_only)
    return Hallucinator(config, p).forward_steps(xs)


@pytest.mark.parametrize("causal_only", [False, True])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("t_len", [1, 2, 5])
def test_monet_steps_matches_per_step_unit_loop(t_len, layers, causal_only):
    """The time-parallel expansion behind ``forward_steps`` against T unit
    calls per pass."""
    rng = np.random.default_rng(14)
    p = init_monet(3, 4, rng)
    xs = [Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True) for _ in range(t_len)]
    weights = Tensor(rng.uniform(-1, 1, (t_len * 3, 4)))
    looped = lambda *args: concat(_monet_unit_loop(*args))
    grads = []
    for run in (_monet_forward_steps, looped):
        for x in xs:
            x.zero_grad()
        with Tape() as tape:
            out = run(xs, p, layers, causal_only)
            loss = tsum(mul(out, weights))
        tape.backward(loss)
        grads.append([out.data] + [x.grad for x in xs])
    for a, b in zip(*grads):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_time_parallel_tape_size_does_not_depend_on_length(family):
    """The recurrent families run each layer's steps inside one node."""
    model = Hallucinator.build(CellConfig(family=family, d_x=3, d_s=4, layers=3),
                               np.random.default_rng(15))
    sizes = set()
    for t_len in (1, 4, 20):
        xs = [Tensor(np.ones((2, 3))) for _ in range(t_len)]
        with Tape() as tape:
            model.forward_steps(xs)
        sizes.add(len(tape))
    assert len(sizes) == 1, sizes


def test_monet_steps_rejects_ragged_steps():
    p = init_monet(3, 4, np.random.default_rng(16))
    with pytest.raises(ShapeError):
        _monet_forward_steps([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], p, 1, False)


_RECURRENT = ["vanilla-rnn", "gru", "lstm", "bi-gru", "bi-lstm"]
_STEP = {"vanilla-rnn": vanilla_step, "gru": gru_step, "lstm": lstm_step}


def _step_loop(xs, layer_params, family):
    """A stack of causal cells as one step call per layer and step."""
    seq = xs
    for p in layer_params:
        # Every cell's last field is a bias as wide as its state.
        zero = Tensor(np.zeros((xs[0].shape[0], collect_tensors(p)[-1].shape[0])))
        state = (zero, zero) if family == "lstm" else zero
        out = []
        for x in seq:
            state = _STEP[family](x, state, p)
            out.append(state[0] if family == "lstm" else state)
        seq = out
    return seq


def _recurrent_loop(xs, config, params):
    """``forward_steps`` of a recurrent family, per step: the bi-RNN runs
    the backward stack on the reversed steps and projects every step."""
    if not config.family.startswith("bi-"):
        return concat(_step_loop(xs, params, config.family))
    base = config.family.removeprefix("bi-")
    fwd = _step_loop(xs, params.fwd, base)
    bwd = _step_loop(xs[::-1], params.bwd, base)[::-1]
    return concat([affine([(f, params.proj_fwd), (b, params.proj_bwd)], params.b_out)
                   for f, b in zip(fwd, bwd)])


@pytest.mark.parametrize("t_len", [1, 4, 20])
@pytest.mark.parametrize("family", _RECURRENT)
def test_recurrent_runners_match_per_step_loop(family, t_len):
    """The runners project every step's input at once; values and input
    gradients equal stepping the public step functions."""
    config = CellConfig(family=family, d_x=3, d_s=4, layers=2)
    model = Hallucinator.build(config, np.random.default_rng(19))
    rng = np.random.default_rng(20)
    xs = [Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True) for _ in range(t_len)]
    weights = Tensor(rng.uniform(-1, 1, (t_len * 3, 4)))
    runs = []
    for run in (model.forward_steps, lambda xs: _recurrent_loop(xs, config, model.params)):
        for x in xs:
            x.zero_grad()
        with Tape() as tape:
            out = run(xs)
            loss = tsum(mul(out, weights))
        tape.backward(loss)
        runs.append([out.data] + [x.grad for x in xs])
    for a, b in zip(*runs):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", _RECURRENT)
def test_recurrent_input_matrices_enter_one_recurrent_node_each(family):
    """Each gate's input matrix and bias is read by its layer's one
    ``recurrent`` node, which projects the layer's input itself."""
    config = CellConfig(family=family, d_x=3, d_s=4, layers=2)
    model = Hallucinator.build(config, np.random.default_rng(21))
    layers = model.params.fwd + model.params.bwd if family.startswith("bi-") else model.params
    inputs = [getattr(p, f) for p in layers for f in vars(p) if f[0] in "Wb"]
    assert len(inputs) == 2 * len(layers) * {"vanilla-rnn": 1, "gru": 3, "lstm": 4}[
        family.removeprefix("bi-")]
    for t_len in (1, 4, 20):
        xs = [Tensor(np.ones((2, 3))) for _ in range(t_len)]
        with Tape() as tape:
            model.forward_steps(xs)
        for W in inputs:
            uses = [node for node in tape.nodes if any(t is W for t in node.inputs)]
            assert [node.op for node in uses] == ["recurrent"], (t_len, W.shape)


@pytest.mark.parametrize("out_dim", [None, 5])
@pytest.mark.parametrize("family", FAMILIES)
def test_forward_steps_returns_time_major_rows(family, out_dim):
    """Row t*N + i of the batch output is sequence i's step t, as the
    single-sequence forward computes it."""
    n, t_len = 3, 4
    config = CellConfig(family=family, d_x=3, d_s=4, layers=2, out_dim=out_dim)
    model = Hallucinator.build(config, np.random.default_rng(17))
    seqs = np.random.default_rng(18).uniform(-1, 1, (n, t_len, 3))
    rows = model.forward_steps([Tensor(seqs[:, t]) for t in range(t_len)])
    assert rows.shape == (t_len * n, config.output_dim)
    for i in range(n):
        np.testing.assert_allclose(rows.data[i::n], model.forward(Tensor(seqs[i])).data,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_forward_runs_the_sequence_as_it_is(family):
    """A (T, d_x) sequence is the time-major matrix of a batch of one, so
    ``forward`` records what ``forward_steps`` does after joining its steps,
    and no family records a row join at all."""
    model = Hallucinator.build(CellConfig(family=family, d_x=3, d_s=4, layers=2),
                               np.random.default_rng(22))
    seq = np.random.default_rng(23).uniform(-1, 1, (5, 3))
    tapes = []
    for run in (lambda: model.forward(Tensor(seq)),
                lambda: model.forward_steps([Tensor(row[None]) for row in seq])):
        with Tape() as tape:
            run()
        tapes.append([(node.op, node.saved[0] if node.op == "concat" else None)
                      for node in tape.nodes])
    direct, stepped = tapes
    assert stepped[0] == ("concat", 0) and direct == stepped[1:]
    assert ("concat", 0) not in direct


@pytest.mark.parametrize("bad", [(4, 2), (4, 5), (3,), (0, 3), (2, 3, 1)],
                         ids=["narrow", "wide", "1-D", "no-steps", "3-D"])
def test_a_bad_input_fails_alike_at_both_entries_of_every_family(bad):
    """``forward`` and ``forward_steps`` enter every family through one
    check: the same input raises the same ``ShapeError`` whichever entry and
    family takes it, naming d_x and the shape received.  As one step,
    ``forward``'s input is the same matrix; two steps join to another."""
    x = Tensor(np.ones(bad))
    joined = np.concatenate([x.data, x.data]).shape
    texts = {bad: set(), joined: set()}
    for family in FAMILIES:
        model = Hallucinator.build(CellConfig(family=family, d_x=3, d_s=4, layers=2),
                                   np.random.default_rng(0))
        for shape, run in ((bad, lambda: model.forward(x)),
                           (bad, lambda: model.forward_steps([x])),
                           (joined, lambda: model.forward_steps([x, x]))):
            with pytest.raises(ShapeError) as exc:
                run()
            texts[shape].add(str(exc.value))
    for shape, seen in texts.items():
        assert len(seen) == 1, seen
        text = seen.pop()
        assert "d_x=3" in text and str(shape) in text, text


# -- Bidirectional wrappers -------------------------------------------------

def test_bidir_zero_backward_params_equals_forward_branch():
    rng = np.random.default_rng(21)
    p = init_bidir("gru", 3, 4, 1, rng)
    for t in collect_tensors(p.bwd):
        t.data[...] = 0.0
    X = Tensor(rng.uniform(-1, 1, (6, 3)))
    out = Hallucinator(CellConfig(family="bi-gru", d_x=3, d_s=4), p).forward(X)

    fwd = Hallucinator(CellConfig(family="gru", d_x=3, d_s=4), p.fwd).forward(X)
    expected = affine([(fwd, p.proj_fwd)], p.b_out).data
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)


def test_bidir_palindrome_with_tied_params_is_palindromic():
    rng = np.random.default_rng(22)
    p = init_bidir("gru", 3, 4, 1, rng)
    tied = BidirParams(fwd=p.fwd, bwd=p.fwd, proj_fwd=p.proj_fwd,
                       proj_bwd=p.proj_fwd, b_out=p.b_out)
    half = rng.uniform(-1, 1, (3, 3))
    X = Tensor(np.vstack([half, half[::-1]]))  # palindrome, T=6
    out = Hallucinator(CellConfig(family="bi-gru", d_x=3, d_s=4), tied).forward(X).data
    np.testing.assert_array_equal(out, out[::-1])


def _two_scans(X, n, p, family):
    """A bidirectional model composed by hand from one-direction
    ``recurrent`` scans: the whole forward stack, then the whole backward
    stack, each layer projecting its input one gate at a time in ``affine``
    nodes.  A scan reads those projections back exactly: side by side as
    its input, through 0/1 input matrices (every other term of a product is
    a zero) and zero biases.  Each projection passes through a scale by 1,
    whose rule hands its ``affine`` a contiguous gradient, as a scan's rule
    did when it took the projections themselves."""
    base = family.removeprefix("bi-")
    d = p.b_out.shape[0]
    tops = []
    for stack, reverse in ((p.fwd, False), (p.bwd, True)):
        H = X
        for q in stack:
            names = [f.name for f in dataclasses.fields(q)]
            pres = [affine([(H, getattr(q, w))], getattr(q, "b" + w[1:]))
                    for w in names if w[0] == "W"]
            eye = np.eye(len(pres) * d)
            zero = Tensor(np.zeros((n, d)))
            H = recurrent(base, concat([scale(q, 1.0) for q in pres], axis=1),
                          [Tensor(eye[:, j * d:(j + 1) * d]) for j in range(len(pres))],
                          [Tensor(np.zeros(d))] * len(pres), [zero] * (2 if base == "lstm" else 1),
                          [getattr(q, u) for u in names if u[0] == "U"], reverse)
            H = H[0] if base == "lstm" else H
        tops.append(H)
    return affine([(tops[0], p.proj_fwd), (tops[1], p.proj_bwd)], p.b_out)


@pytest.mark.parametrize("d_s", [1, 4, 19])
@pytest.mark.parametrize("n,t_len", [(1, 1), (3, 5), (32, 20)])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("family", ["bi-gru", "bi-lstm"])
def test_bidir_layer_is_one_node_bit_identical_to_two_scans(family, layers, n, t_len, d_s):
    """Both directions of a depth level run as one two-direction
    ``recurrent`` node; its outputs and every parameter and input gradient
    equal two one-direction scans composed by hand, bit for bit."""
    config = CellConfig(family=family, d_x=5, d_s=d_s, layers=layers)
    model = Hallucinator.build(config, np.random.default_rng(24 + d_s))
    rng = np.random.default_rng(25)
    xs = [Tensor(rng.uniform(-1, 1, (n, 5)), requires_grad=True) for _ in range(t_len)]
    weights = Tensor(rng.uniform(-1, 1, (t_len * n, d_s)))
    runs = []
    for run in (model.forward_steps, lambda xs: _two_scans(concat(xs), n, model.params, family)):
        for t in xs + model.tensors():
            t.zero_grad()
        with Tape() as tape:
            out = run(xs)
            loss = tsum(mul(out, weights))
        tape.backward(loss)
        runs.append(([node.op for node in tape.nodes].count("recurrent"),
                     [out.data] + [t.grad for t in model.tensors() + xs]))
    (nodes, got), (hand_nodes, expected) = runs
    assert (nodes, hand_nodes) == (layers, 2 * layers)
    for a, b in zip(got, expected, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_bidir_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    p = init_bidir("lstm", 2, 3, 1, rng)
    X = Tensor(rng.uniform(-1, 1, (4, 2)))
    model = Hallucinator(CellConfig(family="bi-lstm", d_x=2, d_s=3), p)
    leaf = p.proj_bwd
    with Tape() as tape:
        loss = tsum(model.forward(X))
    tape.backward(loss)

    def f(t):
        keep = leaf.data
        leaf.data = t.data
        try:
            return tsum(model.forward(X))
        finally:
            leaf.data = keep

    assert relative_error(leaf.grad, finite_diff_grad(f, Tensor(leaf.data.copy()))) < 1e-5


# -- 1D convolution ---------------------------------------------------------

def test_conv1d_identity_delta_is_linear_projection():
    rng = np.random.default_rng(31)
    proj = rng.normal(size=(3, 4))
    stage = ConvStage(taps=[Tensor(np.zeros((3, 4))), Tensor(proj), Tensor(np.zeros((3, 4)))],
                      bias=Tensor(np.zeros(4)))
    X = Tensor(rng.uniform(-1, 1, (5, 3)))
    model = Hallucinator(CellConfig(family="conv1d", d_x=3, d_s=4), Conv1dParams(stages=[stage]))
    out = model.forward(X)
    np.testing.assert_allclose(out.data, X.data @ proj, rtol=1e-12)


def test_conv1d_receptive_field_two_layers_kernel_three():
    rng = np.random.default_rng(32)
    from monet.cells import init_conv1d
    p = init_conv1d(3, 4, layers=2, kernel=3, rng=rng)
    t_len = 7
    X = Tensor(rng.uniform(-1, 1, (t_len, 3)), requires_grad=True)
    with Tape() as tape:
        out = Hallucinator(CellConfig(family="conv1d", d_x=3, d_s=4, layers=2), p).forward(X)
    jac = jacobian(out, X, tape)
    mags = _band_blocks(jac, t_len, 4, 3)
    for t in range(t_len):
        for u in range(t_len):
            if abs(u - t) > 2:
                assert mags[t, u] == 0.0, (t, u)
            else:
                assert mags[t, u] > 0.0, (t, u)


def test_conv1d_causal_only_blocks_future():
    rng = np.random.default_rng(33)
    from monet.cells import init_conv1d
    p = init_conv1d(2, 3, layers=1, kernel=3, rng=rng)
    t_len = 5
    X = Tensor(rng.uniform(-1, 1, (t_len, 2)), requires_grad=True)
    with Tape() as tape:
        out = Hallucinator(CellConfig(family="conv1d", d_x=2, d_s=3, causal_only=True),
                           p).forward(X)
    jac = jacobian(out, X, tape)
    mags = _band_blocks(jac, t_len, 3, 2)
    for t in range(t_len):
        for u in range(t_len):
            if u > t:
                assert mags[t, u] == 0.0, (t, u)


def test_conv1d_gradient_matches_finite_differences():
    rng = np.random.default_rng(34)
    from monet.cells import init_conv1d
    p = init_conv1d(2, 3, layers=2, kernel=3, rng=rng)
    X = Tensor(rng.uniform(-1, 1, (4, 2)))
    model = Hallucinator(CellConfig(family="conv1d", d_x=2, d_s=3, layers=2), p)
    leaf = p.stages[1].taps[0]
    with Tape() as tape:
        loss = tsum(model.forward(X))
    tape.backward(loss)

    def f(t):
        keep = leaf.data
        leaf.data = t.data
        try:
            return tsum(model.forward(X))
        finally:
            leaf.data = keep

    assert relative_error(leaf.grad, finite_diff_grad(f, Tensor(leaf.data.copy()))) < 1e-5


def _conv1d_tap_loop(xs, p, causal_only):
    """Reference convolution in numpy: per step, a sum over the taps that
    land inside the sequence."""
    seq = [x.data for x in xs]
    for idx, stage in enumerate(p.stages):
        k = len(stage.taps)
        pad = k - 1 if causal_only else (k - 1) // 2
        out = []
        for t in range(len(seq)):
            acc = stage.bias.data.copy()
            for j in range(k):
                if 0 <= t + j - pad < len(seq):
                    acc = acc + seq[t + j - pad] @ stage.taps[j].data
            out.append(np.maximum(acc, 0.0) if idx + 1 < len(p.stages) else acc)
        seq = out
    return seq


@pytest.mark.parametrize("causal_only", [False, True])
@pytest.mark.parametrize("layers,kernel", [(1, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize("t_len", [1, 2, 5])
def test_conv1d_steps_matches_per_tap_loop(t_len, layers, kernel, causal_only):
    rng = np.random.default_rng(35)
    p = init_conv1d(3, 4, layers=layers, kernel=kernel, rng=rng)
    for stage in p.stages:
        stage.bias.data = rng.uniform(-0.5, 0.5, stage.bias.shape)
    xs = [Tensor(rng.uniform(-1, 1, (3, 3))) for _ in range(t_len)]
    config = CellConfig(family="conv1d", d_x=3, d_s=4, layers=layers, kernel=kernel,
                        causal_only=causal_only)
    got = Hallucinator(config, p).forward_steps(xs).data
    for t, want in enumerate(_conv1d_tap_loop(xs, p, causal_only)):
        np.testing.assert_allclose(got[t * 3:(t + 1) * 3], want, rtol=0, atol=1e-12)


# -- Parameter accounting ---------------------------------------------------

def test_count_params_gru_example():
    assert count_params(CellConfig(family="gru", d_x=4, d_s=4)) == 108


def test_count_params_monet_example():
    assert count_params(CellConfig(family="monet", d_x=4, d_s=4)) == 156


@pytest.mark.parametrize("out_dim", [None, 7])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("family,kernel", [(f, 3) for f in FAMILIES] + [("conv1d", 5)])
def test_count_params_matches_built_tensors(family, kernel, layers, out_dim):
    cfg = CellConfig(family=family, d_x=5, d_s=4, layers=layers, kernel=kernel,
                     out_dim=out_dim)
    model = Hallucinator.build(cfg, np.random.default_rng(0))
    assert count_params(cfg) == sum(t.size for t in model.tensors())


@pytest.mark.parametrize("out_dim", [None, 4, 7])
@pytest.mark.parametrize("family", FAMILIES)
def test_multiply_adds_per_step_equal_the_parameter_count(family, out_dim):
    """A step uses every weight in one multiply-add and every bias in one
    add, the linear readout's (present only when out_dim differs from d_s)
    included; over a sequence the readout adds its count once per step."""
    cfg = CellConfig(family=family, d_x=5, d_s=4, layers=2, out_dim=out_dim)
    assert flops_per_step(cfg).total_madds == count_params(cfg)
    bare = dataclasses.replace(cfg, out_dim=None)
    readout = count_params(cfg) - count_params(bare)
    assert readout == (0 if out_dim in (None, 4) else 4 * 7 + 7)
    assert (flops_per_sequence(cfg, 6).total_madds
            == flops_per_sequence(bare, 6).total_madds + 6 * readout)


# Per family and out_dim at d_x=5, d_s=4, layers=2, kernel=3: the per-step
# FlopCount fields, the length-20 sequence's fields and the parameter count.
_GOLDEN_COSTS = [
    ("vanilla-rnn", None, (36, 32, 8, 8, 8), (720, 640, 160, 160, 160), 76),
    ("vanilla-rnn", 7, (36, 60, 15, 8, 8), (720, 1200, 300, 160, 160), 111),
    ("gru", None, (108, 96, 24, 24, 56), (2160, 1920, 480, 480, 1120), 228),
    ("gru", 7, (108, 124, 31, 24, 56), (2160, 2480, 620, 480, 1120), 263),
    ("lstm", None, (144, 128, 32, 40, 64), (2880, 2560, 640, 800, 1280), 304),
    ("lstm", 7, (144, 156, 39, 40, 64), (2880, 3120, 780, 800, 1280), 339),
    ("bi-gru", None, (216, 224, 52, 48, 116), (4320, 4480, 1040, 960, 2320), 492),
    ("bi-gru", 7, (216, 252, 59, 48, 116), (4320, 5040, 1180, 960, 2320), 527),
    ("bi-lstm", None, (288, 288, 68, 80, 132), (5760, 5760, 1360, 1600, 2640), 644),
    ("bi-lstm", 7, (288, 316, 75, 80, 132), (5760, 6320, 1500, 1600, 2640), 679),
    ("conv1d", None, (60, 48, 8, 4, 0), (1200, 960, 160, 80, 0), 116),
    ("conv1d", 7, (60, 76, 15, 4, 0), (1200, 1520, 300, 80, 0), 151),
    ("monet", None, (60, 96, 12, 32, 44), (1200, 3840, 240, 1680, 1840), 168),
    ("monet", 7, (60, 124, 19, 32, 44), (1200, 4400, 380, 1680, 1840), 203),
]


@pytest.mark.parametrize("family,out_dim,step,seq,params", _GOLDEN_COSTS)
def test_cost_model_golden_values(family, out_dim, step, seq, params):
    """Every field of the cost model, activations and elementwise included."""
    cfg = CellConfig(family=family, d_x=5, d_s=4, layers=2, out_dim=out_dim)
    assert dataclasses.astuple(flops_per_step(cfg)) == step
    assert dataclasses.astuple(flops_per_sequence(cfg, 20)) == seq
    assert count_params(cfg) == params


def test_match_params_finds_gru_width_for_wide_monet():
    ref = CellConfig(family="monet", d_x=64, d_s=64, layers=3)
    result = match_params(ref, "gru")
    assert result.matched
    assert result.gap <= 0.05
    assert result.config.out_dim == 64


def test_match_params_flags_infeasible_target():
    ref = CellConfig(family="monet", d_x=1, d_s=1)
    result = match_params(ref, "vanilla-rnn")
    assert not result.matched
    assert result.gap > 0.05
    assert result.config.family == "vanilla-rnn"


# -- Config validation ------------------------------------------------------

def test_cell_config_rejects_bad_values():
    with pytest.raises(ValueError):
        CellConfig(family="transformer", d_x=4, d_s=4).validate()
    with pytest.raises(ValueError):
        CellConfig(family="conv1d", d_x=4, d_s=4, kernel=4).validate()
    with pytest.raises(ValueError):
        CellConfig(family="gru", d_x=4, d_s=4, layers=0).validate()
    with pytest.raises(ValueError):
        CellConfig(family="bi-gru", d_x=4, d_s=4, causal_only=True).validate()


def test_cell_config_bounds_the_depth():
    CellConfig(family="monet", d_x=4, d_s=4, layers=MAX_LAYERS).validate()
    with pytest.raises(ValueError, match="layers"):
        CellConfig(family="monet", d_x=4, d_s=4, layers=MAX_LAYERS + 1).validate()


@pytest.mark.parametrize("field", ["d_x", "d_s", "kernel", "out_dim"])
def test_cell_config_bounds_the_u32_header_fields(field):
    """The checkpoint header stores these as u32s, so a larger value fails
    validation instead of the save after training.  Validation builds no
    model, so the bound itself is checked without allocating weights."""
    base = dict(family="gru", d_x=4, d_s=4, kernel=1, out_dim=4)
    CellConfig(**dict(base, **{field: 2**32 - 1})).validate()
    with pytest.raises(ValueError, match=field):
        CellConfig(**dict(base, **{field: 2**32})).validate()


# -- Checkpoint round trip --------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    for family, kwargs in [("monet", dict(layers=3)),
                           ("bi-lstm", dict(layers=2)),
                           ("gru", dict(out_dim=7))]:
        cfg = CellConfig(family=family, d_x=5, d_s=4, **kwargs)
        model = Hallucinator.build(cfg, np.random.default_rng(99))
        path = str(tmp_path / f"{family}.monw")
        model.save(path)
        loaded = Hallucinator.load(path)
        assert loaded.config == cfg
        for a, b in zip(model.tensors(), loaded.tensors()):
            assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("family", FAMILIES)
def test_checkpoint_load_builds_from_the_file_alone(tmp_path, monkeypatch, family):
    """A load builds the parameters from the file's arrays in field order,
    with no random generator and so no weights drawn and thrown away."""
    cfg = CellConfig(family=family, d_x=5, d_s=4, layers=2, out_dim=3)
    model = Hallucinator.build(cfg, np.random.default_rng(98))
    path = str(tmp_path / "m.monw")
    model.save(path)

    def no_rng(*_):
        raise AssertionError("a load made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = Hallucinator.load(path)
    assert [t.shape for t in loaded.tensors()] == [t.shape for t in model.tensors()]
    for a, b in zip(model.tensors(), loaded.tensors()):
        assert b.requires_grad and a.data.tobytes() == b.data.tobytes()


def test_checkpoint_corrupt_magic(tmp_path):
    cfg = CellConfig(family="gru", d_x=3, d_s=3)
    model = Hallucinator.build(cfg, np.random.default_rng(0))
    path = str(tmp_path / "m.monw")
    model.save(path)
    raw = bytearray(open(path, "rb").read())
    raw[:4] = b"XXXX"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(BadMagicError):
        Hallucinator.load(path)


def test_checkpoint_version_mismatch(tmp_path):
    cfg = CellConfig(family="gru", d_x=3, d_s=3)
    model = Hallucinator.build(cfg, np.random.default_rng(0))
    path = str(tmp_path / "m.monw")
    model.save(path)
    raw = bytearray(open(path, "rb").read())
    raw[4:8] = (99).to_bytes(4, "little")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(VersionError):
        Hallucinator.load(path)


def test_checkpoint_truncated(tmp_path):
    cfg = CellConfig(family="gru", d_x=3, d_s=3)
    model = Hallucinator.build(cfg, np.random.default_rng(0))
    path = str(tmp_path / "m.monw")
    model.save(path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-5])
    with pytest.raises(TruncatedError):
        Hallucinator.load(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    cfg = CellConfig(family="gru", d_x=3, d_s=3)
    model = Hallucinator.build(cfg, np.random.default_rng(0))
    path = str(tmp_path / "m.monw")
    model.save(path)
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(FormatError):
        Hallucinator.load(path)


def test_checkpoint_header_weight_shape_mismatch(tmp_path):
    cfg = CellConfig(family="monet", d_x=4, d_s=4)
    model = Hallucinator.build(cfg, np.random.default_rng(0))
    path = str(tmp_path / "m.monw")
    model.save(path)
    raw = bytearray(open(path, "rb").read())
    # header layout: magic(4) version(4) strlen(4) "monet"(5) d_x(4) then d_s
    offset = 4 + 4 + 4 + 5 + 4
    raw[offset:offset + 4] = (5).to_bytes(4, "little")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError, match="shape"):
        Hallucinator.load(path)


def _damaged_checkpoint(tmp_path, offset, patch):
    model = Hallucinator.build(CellConfig(family="monet", d_x=4, d_s=4),
                               np.random.default_rng(0))
    path = str(tmp_path / "m.monw")
    model.save(path)
    raw = bytearray(open(path, "rb").read())
    raw[offset:offset + len(patch)] = patch
    open(path, "wb").write(bytes(raw))
    return path


# header layout: magic(4) version(4) strlen(4) tag, then six u32 fields
_TAG = 12
_WEIGHTS = _TAG + len("monet") + 6 * 4


def test_checkpoint_header_beyond_the_file_fails_before_building(tmp_path, monkeypatch):
    path = _damaged_checkpoint(tmp_path, _TAG + 5 + 4, (100_000).to_bytes(4, "little"))

    def no_build(*_):
        raise AssertionError("parameters built for a header the file cannot hold")

    monkeypatch.setattr(Hallucinator, "build", no_build)
    with pytest.raises(TruncatedError):
        Hallucinator.load(path)


def test_checkpoint_array_dims_whose_product_wraps_are_truncated(tmp_path):
    # rank 4, every dim 2**16: the element count is 2**64, 0 in int64
    dims = (4).to_bytes(4, "little") + (1 << 16).to_bytes(4, "little") * 4
    path = _damaged_checkpoint(tmp_path, _WEIGHTS, dims)
    with pytest.raises(TruncatedError):
        Hallucinator.load(path)


def test_checkpoint_non_finite_weight_is_format_error(tmp_path):
    # first weight array: rank(4) and two dims(8), then the payload
    path = _damaged_checkpoint(tmp_path, _WEIGHTS + 12, np.float64(np.inf).tobytes())
    with pytest.raises(FormatError, match="non-finite"):
        Hallucinator.load(path)


def test_checkpoint_loads_alike_through_a_pipe(tmp_path):
    model = Hallucinator.build(CellConfig(family="bi-lstm", d_x=5, d_s=4, layers=2, out_dim=3),
                               np.random.default_rng(1))
    raw = model.save(str(tmp_path / "m.monw"))
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, raw)  # small enough for the pipe's buffer
        os.close(write_end)
        loaded = Hallucinator.load(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert loaded.config == model.config
    assert [t.data.tobytes() for t in loaded.tensors()] == [t.data.tobytes() for t in model.tensors()]


def test_checkpoint_load_checks_the_sha256_of_the_bytes_it_parses(tmp_path):
    model = Hallucinator.build(CellConfig(family="monet", d_x=4, d_s=3, layers=2),
                               np.random.default_rng(0))
    path = tmp_path / "m.monw"
    raw = model.save(str(path))
    digest = hashlib.sha256(raw).hexdigest()
    loaded = Hallucinator.load(str(path), sha256=digest)
    assert [t.data.tobytes() for t in loaded.tensors()] == [t.data.tobytes() for t in model.tensors()]
    path.write_bytes(raw[:-2] + bytes([raw[-2] ^ 0x08]) + raw[-1:])
    with pytest.raises(DigestError):
        Hallucinator.load(str(path), sha256=digest)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_checkpoint_arrays_straddling_a_short_read_load_identically(tmp_path,
                                                                     open_in_short_reads,
                                                                     block):
    model = Hallucinator.build(CellConfig(family="bi-lstm", d_x=5, d_s=4, layers=2, out_dim=3),
                               np.random.default_rng(1))
    path = str(tmp_path / "m.monw")
    model.save(path)
    opened = open_in_short_reads("monet.cells", block)
    loaded = Hallucinator.load(path)
    assert len(opened) == 1 and max(opened[0].sizes) == block
    assert loaded.config == model.config
    assert [t.data.tobytes() for t in loaded.tensors()] == [t.data.tobytes() for t in model.tensors()]


def test_checkpoint_truncated_at_every_offset_is_a_format_error(tmp_path):
    """Cut at every byte offset, a checkpoint fails with a ``FormatError``
    subclass and nothing else."""
    model = Hallucinator.build(CellConfig(family="monet", d_x=4, d_s=3, layers=2),
                               np.random.default_rng(0))
    path = tmp_path / "m.monw"
    raw = model.save(str(path))
    assert raw == path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            Hallucinator.load(str(path))
