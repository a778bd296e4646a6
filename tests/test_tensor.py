"""Tensor arithmetic and tape-based reverse-mode differentiation."""

import itertools
import math
import weakref

import numpy as np
import pytest

from monet import tensor
from monet.tensor import (BACKWARD_RULES, GradientError, ShapeError, Tape,
                          Tensor, _monet_pass, _shifted, _sigmoid_stable, abs_, add, affine,
                          concat, finite_diff_grad, jacobian, monet_pass, mul,
                          pause_recording, recurrent, relative_error, relu, scale, shift_rows,
                          softmax, sub, sum_row_blocks, tsum)


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    v = Tensor([[3.0], [4.0]])
    np.testing.assert_array_equal((eye @ v).data, [[3.0], [4.0]])


def test_matmul_hand_computed():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    np.testing.assert_array_equal((a @ b).data, [[11.0]])


def test_matmul_operator_is_one_affine_node_without_bias():
    a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]])
    with Tape() as tape:
        a @ b
    [node] = tape.nodes
    assert node.op == "affine" and node.inputs == (a, b)


def test_matmul_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    with Tape() as tape:
        loss = tsum(a @ b)
    tape.backward(loss)

    fd_a = finite_diff_grad(lambda t: tsum(t @ b), a)
    fd_b = finite_diff_grad(lambda t: tsum(a @ t), b)
    assert relative_error(a.grad, fd_a) < 1e-6
    assert relative_error(b.grad, fd_b) < 1e-6


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))
    assert "(2, 3)" in str(exc.value)


def test_sigmoid_kernel_matches_two_branch_formula_bit_for_bit():
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    edges = np.array([0.0, 1e-300, 36.7, 709.0, 745.0, np.inf])
    finite = np.concatenate([edges, -edges,
                             np.random.default_rng(17).normal(0.0, 40.0, 100_000)])
    x = np.concatenate([finite, [np.nan, -np.nan]])
    with np.errstate(all="ignore"):
        expected = two_branch(x)
    got = _sigmoid_stable(x)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    with np.errstate(all="raise"):
        _sigmoid_stable(finite)


def test_relu_values():
    out = relu(Tensor([-2.5, 3.0]))
    np.testing.assert_array_equal(out.data, [0.0, 3.0])


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor([0.0, -1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(relu(x))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("shape", [(), (40, 16)])
def test_relu_and_its_rule_match_np_where_bit_for_bit(shape):
    """The bit-mask select against ``np.where``: -0.0, both nans and both
    infinities among the operands and the upstream gradients, on a matrix
    and on 0-d operands, including a numpy scalar as the gradient."""
    rng = np.random.default_rng(79)
    draws = ([(np.array(v), g) for v in EDGES for g in rng.choice(EDGES, 4)] if shape == ()
             else [(edge_values(rng, shape), edge_values(rng, shape)) for _ in range(6)])
    for a, g in draws:
        with Tape() as tape:
            out = relu(Tensor(a, requires_grad=True))
        (back,) = BACKWARD_RULES["relu"](tape.nodes[0], (g,))
        # No arithmetic on either side: nan signs and payloads agree too.
        for got, expected in ((out.data, np.where(a > 0, a, 0.0)),
                              (back, np.where(a > 0, g, 0.0))):
            assert np.array_equal(np.asarray(got).view(np.int64), expected.view(np.int64))


def test_elementwise_binary_shape_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor([1.0]), Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError):
        mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


# Values that exercise a kernel's edges: signed zeros, infinities, nans of
# both signs, subnormals and magnitudes past exp's range.
EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                  2.2e-308, -2.2e-308, 1.0, -1.0, 745.0, -745.0, 1e300, -1e300])


def edge_values(rng, shape):
    """Normal draws with about a third of the entries swapped for edges."""
    return np.where(rng.random(shape) < 0.35, rng.choice(EDGES, shape),
                    rng.normal(0.0, 3.0, shape))


def assert_same_bits(got, expected):
    """Equal bit for bit, signed zeros included, except that a nan may carry
    either sign: numpy's own reductions pick it by code path (the max over
    axis 0 of a (3, 1) and of a (3, 20) stack of -nan, nan and 1.0 differ)."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype == np.float64
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))


@pytest.mark.parametrize("shape", [(1, 1), (40, 16)])
def test_vanilla_rnn_rule_matches_the_tanh_slope_bit_for_bit(shape):
    """The vanilla cell's rule writes the pre-activation gradient as the
    one-expression tanh slope ``g * (1 - y * y)`` of the step's output y,
    nan bits included."""
    rng = np.random.default_rng(71)
    for _ in range(80 if shape == (1, 1) else 6):
        with np.errstate(all="ignore"):
            y = np.tanh(edge_values(rng, shape))
        g = edge_values(rng, shape)
        da = np.empty((1, *shape))
        with np.errstate(all="ignore"):
            assert tensor._vanilla_rule((g,), None, None, (y,), [False], da) == (None,)
            expected = g * (1.0 - y * y)
        assert np.array_equal(da[0].view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("k", [0, 1, -1, 4, -4, 12, -12, 13, -13, 30, -30])
def test_shift_rows_matches_a_zero_filled_copy_bit_for_bit(k):
    """Shifts by none, one row, one time step of n=4 rows, all 12 rows and
    beyond, forward and (by -k) backward."""
    rng = np.random.default_rng(73)
    x = edge_values(rng, (12, 3))
    for a, shift in ((x, k), (x, -k)):
        expected = np.zeros_like(a)
        for i in range(a.shape[0]):
            if 0 <= i - shift < a.shape[0]:
                expected[i] = a[i - shift]
        got = _shifted(a, shift)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = shift_rows(t, k)
    assert np.array_equal(out.data.view(np.int64), _shifted(x, k).view(np.int64))
    g = edge_values(rng, x.shape)
    (back,) = BACKWARD_RULES["shift_rows"](tape.nodes[0], (g,))
    assert np.array_equal(back.view(np.int64), _shifted(g, -k).view(np.int64))


def test_concat_basic():
    out = concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_concat_with_empty_is_identity():
    x = Tensor([1.0, 2.0])
    out = concat([x, Tensor(np.zeros(0))], axis=0)
    np.testing.assert_array_equal(out.data, x.data)


def test_concat_errors():
    with pytest.raises(ShapeError):
        concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)
    with pytest.raises(ShapeError):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones(3))])
    with pytest.raises(ShapeError):
        concat([Tensor([1.0]), Tensor([2.0])], axis=5)
    with pytest.raises(ShapeError):
        concat([Tensor(1.0), Tensor(2.0)])


def test_concat_rows_errors():
    with pytest.raises(ShapeError):
        concat([])
    with pytest.raises(ShapeError):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))])


def test_concat_backward_splits_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        joined = concat([a, b], axis=0)
        loss = tsum(mul(joined, Tensor([2.0, 4.0, 6.0])))
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad, [2.0, 4.0])
    np.testing.assert_array_equal(b.grad, [6.0])


@pytest.mark.parametrize("axis", [0, 1])
def test_concat_of_three_parts_matches_finite_differences(axis):
    rng = np.random.default_rng(41)
    shapes = [(r, 3) if axis == 0 else (3, r) for r in (2, 1, 3)]
    parts = [Tensor(rng.uniform(-1, 1, shape), requires_grad=True) for shape in shapes]
    weights = Tensor(rng.uniform(-1, 1, (6, 3) if axis == 0 else (3, 6)))
    with Tape() as tape:
        out = concat(parts, axis=axis)
        loss = tsum(mul(out, weights))
    np.testing.assert_array_equal(out.data, np.concatenate([t.data for t in parts], axis=axis))
    assert len(tape) == 3  # one node however many parts
    tape.backward(loss)
    for i, part in enumerate(parts):
        def f(t, i=i):
            return tsum(mul(concat(parts[:i] + [t] + parts[i + 1:], axis=axis), weights))
        assert relative_error(part.grad, finite_diff_grad(f, part)) < 1e-8


@pytest.mark.parametrize("rows,n,cols", [(20, 4, 3), (20, 1, 1)])
def test_sum_row_blocks_adds_blocks_in_order_and_tiles_the_gradient(rows, n, cols):
    """Bit for bit a chain of ``add`` nodes, also where numpy would sum one
    contiguous column pairwise (n = cols = 1)."""
    rng = np.random.default_rng(0)
    # Magnitudes spread over ten decades make the summation order visible.
    x = Tensor(rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-5, 5, (rows, cols)),
               requires_grad=True)
    weights = Tensor(rng.uniform(-1, 1, (n, cols)))
    with Tape() as tape:
        out = sum_row_blocks(x, n)
        loss = tsum(mul(out, weights))
    chain = Tensor(x.data[:n])
    for t in range(1, rows // n):
        chain = add(chain, Tensor(x.data[n * t:n * t + n]))
    assert np.array_equal(out.data.view(np.int64), chain.data.view(np.int64))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.tile(weights.data, (rows // n, 1)))


def test_sum_row_blocks_errors():
    for bad in ((Tensor(np.ones((6, 3))), 4), (Tensor(np.ones((2, 3))), 4),
                (Tensor(np.ones(4)), 2), (Tensor(np.ones((4, 3))), 0)):
        with pytest.raises(ShapeError):
            sum_row_blocks(*bad)


def test_shift_rows_values():
    x = Tensor(np.arange(10.0).reshape(5, 2))
    np.testing.assert_array_equal(shift_rows(x, 2).data, [[0, 0], [0, 0], [0, 1], [2, 3], [4, 5]])
    np.testing.assert_array_equal(shift_rows(x, -2).data, [[4, 5], [6, 7], [8, 9], [0, 0], [0, 0]])
    np.testing.assert_array_equal(shift_rows(x, 0).data, x.data)
    with pytest.raises(ShapeError):
        shift_rows(Tensor(np.ones(3)), 1)


@pytest.mark.parametrize("k", [-5, -3, -1, 0, 1, 2, 4, 5, 7])
def test_shift_rows_gradient_matches_finite_differences(k):
    rng = np.random.default_rng(42)
    x = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
    weights = Tensor(rng.uniform(-1, 1, (5, 3)))
    with Tape() as tape:
        loss = tsum(mul(shift_rows(x, k), weights))
    tape.backward(loss)
    fd = finite_diff_grad(lambda t: tsum(mul(shift_rows(t, k), weights)), x)
    assert relative_error(x.grad, fd) < 1e-8
    # Rows shifted out of range get exactly zero gradient; a shift by the
    # whole length or more keeps no row at all.
    kept = [i for i in range(5) if 0 <= i + k < 5]
    dropped = [i for i in range(5) if i not in kept]
    assert np.all(x.grad[dropped] == 0.0)
    assert np.all(x.grad[kept] != 0.0)
    if abs(k) >= 5:
        assert np.all(shift_rows(x, k).data == 0.0)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares_gives_2x():
    x = Tensor([1.5, -2.0, 0.25], requires_grad=True)
    with Tape() as tape:
        loss = tsum(mul(x, x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-15)


def test_backward_composed_graph_matches_finite_differences():
    rng = np.random.default_rng(17)
    w = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)

    def f(t):
        h = softmax(Tensor(rng_x) @ t)
        g = recurrent("vanilla-rnn", add(h, relu(h)), [v], [Tensor(np.zeros(3))],
                      [Tensor(np.zeros((1, 3)))], [u])
        return tsum(mul(g, g))

    rng_x = rng.uniform(-2, 2, (2, 4))
    u, v = (Tensor(rng.uniform(-1, 1, (3, 3))) for _ in range(2))
    with Tape() as tape:
        loss = f(w)
    tape.backward(loss)
    assert relative_error(w.grad, finite_diff_grad(f, w)) < 1e-5


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(GradientError, match="scalar"):
        tape.backward(y)


def test_item_needs_a_single_element():
    with pytest.raises(GradientError, match=r"single-element tensor, got shape \(2,\)"):
        Tensor(np.zeros(2)).item()


def test_backward_accumulates_until_cleared():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(mul(x, x))
    tape.backward(loss)
    first = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2 * first)
    with Tape() as other:
        loss_b = tsum(mul(x, Tensor([5.0])))
    other.backward(loss_b)
    np.testing.assert_array_equal(x.grad, 2 * first + 5.0)
    x.zero_grad()
    assert x.grad is None


def test_backward_leaf_loss_gets_unit_gradient():
    x = Tensor([3.0], requires_grad=True)
    y = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        mul(y, y)  # a recorded node that the loss does not reach
    tape.backward(x)
    np.testing.assert_array_equal(x.grad, [1.0])
    assert y.grad is None
    constant = Tensor([2.0])
    tape.backward(constant)
    assert constant.grad is None


def test_backward_gives_each_input_its_own_array():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(add(a, b))
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])
    assert a.grad is not b.grad
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_backward_hands_out_no_shared_gradient_buffers():
    rng = np.random.default_rng(29)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    mats = [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in [(3, 3)] * 15 + [(6, 3)] + [(3,)] * 7]
    with Tape() as tape:
        s = add(a, b)
        # concat hands out views of one gradient, and recurrent and
        # monet_pass their matrices' and biases' gradients as views of one
        # buffer each.
        rows = concat([s, a, b])
        h, c = recurrent("lstm", rows, mats[:4], mats[16:20], [s, a], mats[4:8])
        p = monet_pass(c, mats[8:11], mats[20:], relu(a), b, *mats[11:16])
        q = concat([b, p], axis=1)
        loss = add(add(tsum(mul(p, Tensor(rng.normal(size=(2, 3))))), tsum(mul(q, q))),
                   tsum(mul(h, h)))
    tape.backward(loss)
    reached = {t for node in tape.nodes for t in node.inputs + node.outputs
               if t.grad is not None}
    assert {a, b, s, rows, h, c, p, q, loss, *mats} <= reached
    reached = list(reached)
    for i, t in enumerate(reached):
        for u in reached[i + 1:]:
            assert not np.shares_memory(t.grad, u.grad), (t, u)
    for t in reached:
        others = [u for u in reached if u is not t]
        before = [u.grad.copy() for u in others]
        t.grad += 1.0
        for u, saved in zip(others, before):
            np.testing.assert_array_equal(u.grad, saved)


def test_unread_shared_gradients_accumulate_into_new_arrays():
    """``add`` hands one buffer to both inputs, and ``backward`` stores it
    unread; a second call must not add into that shared buffer."""
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(add(a, b))
    tape.backward(loss)
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad, [2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [2.0, 2.0])
    assert not np.shares_memory(a.grad, b.grad)


def test_gradient_is_copied_once_on_first_read():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        s = add(a, b)
        loss = tsum(s)
    tape.backward(loss)
    first = s.grad
    assert s.grad is first
    first += 1.0
    np.testing.assert_array_equal(s.grad, [2.0, 2.0])
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])


def test_backward_reaches_requires_grad_intermediates():
    x = Tensor([1.5, -2.0], requires_grad=True)
    with Tape() as tape:
        h = mul(x, x)
        loss = tsum(mul(h, Tensor([3.0, 5.0])))
    tape.backward(loss)
    assert h.requires_grad
    np.testing.assert_array_equal(h.grad, [3.0, 5.0])
    np.testing.assert_array_equal(x.grad, [3.0 * 2 * 1.5, 5.0 * 2 * -2.0])
    np.testing.assert_array_equal(loss.grad, 1.0)


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(23)
        x = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        with Tape() as tape:
            y = softmax(x) @ recurrent("vanilla-rnn", x, [x], [Tensor(np.zeros(3))],
                                       [Tensor(np.zeros((1, 3)))], [x])
            loss = tsum(mul(y, y))
        tape.backward(loss)
        return x.grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_finite_diff_identity_sum():
    x = Tensor([0.3, -1.2, 4.0])
    fd = finite_diff_grad(lambda t: tsum(t), x)
    np.testing.assert_allclose(fd, np.ones(3), atol=1e-9)


def test_finite_diff_sigmoid_sum_at_zero():
    x = Tensor(np.zeros(4))
    fd = finite_diff_grad(lambda t: float(np.sum(_sigmoid_stable(t.data))), x)
    np.testing.assert_allclose(fd, 0.25 * np.ones(4), atol=1e-9)


def test_finite_diff_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: tsum(t), Tensor([1.0]), h=0.0)


def test_finite_diff_runs_unrecorded():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        y = tsum(mul(x, x))
        finite_diff_grad(lambda t: tsum(mul(t, t)), x)
    recorded = len(tape)
    assert recorded == 2  # mul + sum only, oracle evaluations left no nodes


def test_pause_recording_suppresses_nodes():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with pause_recording():
            mul(x, x)
        assert len(tape) == 0


def test_tape_is_topologically_ordered():
    """Each node input is either a leaf or the output of an earlier node."""
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with Tape() as tape:
        y = relu(x) @ softmax(x)
        tsum(add(y, shift_rows(y, 1)))
    all_outputs = {o for n in tape.nodes for o in n.outputs}
    produced = set()
    for node in tape.nodes:
        for t in node.inputs:
            if t in all_outputs:
                assert t in produced
        produced.update(node.outputs)


def test_jacobian_exact_structural_zeros():
    x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]), requires_grad=True)
    with Tape() as tape:
        a = shift_rows(x, 2)
        y = mul(a, a)
    jac = jacobian(y, x, tape)
    # y depends only on the first half of x; the rest must be exactly 0.0.
    np.testing.assert_array_equal(jac[:, 2:], np.zeros((4, 2)))
    np.testing.assert_array_equal(jac[:2], np.zeros((2, 4)))
    np.testing.assert_allclose(np.diag(jac[2:, :2]), 2 * x.data[:2, 0], rtol=1e-15)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(41)
    x = Tensor(rng.uniform(-2, 2, (3,)), requires_grad=True)
    with Tape() as tape:
        y = softmax(x)
    jac = jacobian(y, x, tape)
    for j in range(3):
        fd = finite_diff_grad(
            lambda t, j=j: tsum(mul(softmax(t), Tensor(np.eye(3)[j]))), x)
        assert relative_error(jac[j], fd) < 1e-6


def test_jacobian_wrt_a_constant_is_an_error():
    c = Tensor([1.0, 2.0])
    x = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, c)
    with pytest.raises(GradientError, match="does not require grad"):
        jacobian(y, c, tape)


def _monet_pass_case(*ts):
    """``monet_pass`` given only the tensors it reads: the input, the three
    gates' input matrices and biases, and both neighbours (14 tensors), the
    left one only (11) or none (7); or two passes over n = 2 row blocks
    after a base pass with no neighbours, reading both sides (12) or,
    causal, the left one only (10)."""
    X, Ws, bs, rest = ts[0], ts[1:4], ts[4:7], ts[7:]
    if len(ts) == 7:
        return monet_pass(X, Ws, bs, None, None, None, None, None, None, None)
    if len(ts) == 11:
        left, U_r, U_z, U_h = rest
        return monet_pass(X, Ws, bs, left, None, U_r, U_z, None, None, U_h)
    if len(ts) == 12:
        return monet_pass(X, Ws, bs, None, None, *rest, n=2, layers=2)
    if len(ts) == 10:
        U_r, U_z, U_h = rest
        return monet_pass(X, Ws, bs, None, None, U_r, U_z, None, None, U_h, n=2, layers=2,
                          causal_only=True)
    return monet_pass(X, Ws, bs, *rest)


# Per recurrent cell: how many gates (one input matrix, bias and state
# matrix each) and state arrays it has.
CELLS = {"vanilla-rnn": (1, 1), "gru": (3, 1), "lstm": (4, 2)}


def _recurrent_args(cell, ts):
    """``ts`` cut into the lists of the cell's input (a list of one), input
    matrices, biases, initial states and state matrices."""
    gates, n_states = CELLS[cell]
    cuts = list(itertools.accumulate([1, gates, gates, n_states]))
    return [list(ts[i:j]) for i, j in zip([0] + cuts, cuts + [len(ts)])]


def _recurrent_shapes(cell, t_len, n, d_in, d):
    """The shapes of a ``recurrent`` node's operands, as ``_recurrent_args``
    cuts them."""
    gates, n_states = CELLS[cell]
    return ([(t_len * n, d_in)] + [(d_in, d)] * gates + [(d,)] * gates + [(n, d)] * n_states
            + [(d, d)] * gates)


def _recurrent_case(cell):
    """The ``recurrent`` op's case for one cell: T = 1 and 3 steps of n = 2
    rows, run forward and reversed."""
    return ("recurrent",
            tuple(lambda *ts, reverse=reverse: recurrent(cell, *_recurrent_args(cell, ts), reverse)
                  for reverse in (False, True)),
            [_recurrent_shapes(cell, t_len, 2, 4, 3) for t_len in (1, 3)])


def _affine_case(*ts):
    """``affine`` over operands given as X, W pairs and, if odd in number,
    a bias last."""
    return affine(list(zip(ts[::2], ts[1::2])), ts[-1] if len(ts) % 2 else None)


# Every recorded op with operand shapes it accepts; the elementwise ones
# also on 0-d operands, where numpy computes a scalar rather than an array.
OP_CASES = {
    "add": (add, [[(2, 3), (2, 3)], [(), ()]]),
    "sub": (sub, [[(2, 3), (2, 3)], [(), ()]]),
    "mul": (mul, [[(2, 3), (2, 3)], [(), ()]]),
    "scale": (lambda a: scale(a, -0.5), [[(2, 3)], [()]]),
    "affine": (_affine_case, [[(2, 3), (3, 4)], [(2, 3), (3, 4), (4,)],
                              [(2, 3), (3, 4), (2, 5), (5, 4), (2, 1), (1, 4), (4,)]]),
    "relu": (relu, [[(2, 3)], [()]]),
    "abs": (abs_, [[(2, 3)], [()]]),
    "sum": (tsum, [[(2, 3)], [()]]),
    "sum_row_blocks": (lambda a: sum_row_blocks(a, 2), [[(6, 3)]]),
    "concat": (lambda *ps: concat(ps, axis=-1), [[(2, 3), (2, 1)], [(2,), (1,), (3,)]]),
    "shift_rows": (lambda a: shift_rows(a, 1), [[(4, 2)]]),
    "softmax": (softmax, [[(2, 3)]]),
    "monet_pass": (_monet_pass_case,
                   [[(2, 4)] + [(4, 3)] * 3 + [(3,)] * 3 + [(2, 3)] * 2 + [(3, 3)] * 4 + [(6, 3)],
                    [(2, 4)] + [(4, 3)] * 3 + [(3,)] * 3 + [(2, 3)] + [(3, 3)] * 2 + [(6, 3)],
                    [(2, 4)] + [(4, 3)] * 3 + [(3,)] * 3,
                    [(6, 4)] + [(4, 3)] * 3 + [(3,)] * 3 + [(3, 3)] * 4 + [(6, 3)],
                    [(6, 4)] + [(4, 3)] * 3 + [(3,)] * 3 + [(3, 3)] * 2 + [(6, 3)]]),
}
# Each entry becomes (op, functions, shape lists), keyed by the case's name:
# the op's own name, or for the recurrent op, the step of the cell it runs.
OP_CASES = {op: (op, *case) for op, case in OP_CASES.items()}
OP_CASES.update({"vanilla_rnn_cell": _recurrent_case("vanilla-rnn"),
                 "gru_cell": _recurrent_case("gru"),
                 "lstm_cell": _recurrent_case("lstm")})


def _runs(case):
    """The op of an ``OP_CASES`` entry and each (function, operand shapes)
    pair it runs; its function may be a tuple of variants run on every
    shape list."""
    op, fns, shape_sets = OP_CASES[case]
    return op, [(fn, shapes) for fn in (fns if isinstance(fns, tuple) else (fns,))
                for shapes in shape_sets]


# The gate count of each case whose operands are the input, the gates'
# input matrices, the gates' biases and then the rest.
GATED_CASES = {"monet_pass": 3, **{f"{cell.replace('-', '_')}_cell": gates
                                   for cell, (gates, _) in CELLS.items()}}


def _flag_sets(n, gates=0):
    """Requires-grad patterns for ``n`` operands: every one, except that
    with ``gates`` the input matrices (operands 1 to ``gates``) share one
    flag and the biases (the next ``gates``) another, since the rules ask
    only whether any of each requires grad (2**15 patterns of the LSTM node
    would take minutes); plus each operand alone requiring grad and each
    alone not."""
    patterns = set()
    for flags in itertools.product((False, True), repeat=n - 2 * gates + 2 if gates else n):
        if gates:
            flags = flags[:1] + flags[1:2] * gates + flags[2:3] * gates + flags[3:]
        patterns.add(flags)
    eye = np.eye(n, dtype=bool)
    patterns.update(tuple(map(bool, row)) for row in [*eye, *~eye])
    return sorted(patterns)


def test_op_cases_cover_every_backward_rule():
    assert {op for op, *_ in OP_CASES.values()} == set(BACKWARD_RULES)


@pytest.mark.parametrize("case", sorted(OP_CASES))
def test_op_output_is_float64_array_requiring_grad_exactly_when_an_input_does(case):
    rng = np.random.default_rng(47)
    op, runs = _runs(case)
    for fn, shapes in runs:
        for flags in _flag_sets(len(shapes), GATED_CASES.get(case, 0)):
            inputs = [Tensor(rng.uniform(-2, 2, shape), requires_grad=flag)
                      for shape, flag in zip(shapes, flags)]
            with Tape() as tape:
                result = fn(*inputs)
            [node] = tape.nodes
            assert node.op == op
            for out in (result if isinstance(result, tuple) else (result,)):
                assert type(out.data) is np.ndarray and out.data.dtype == np.float64, \
                    (op, shapes, type(out.data))
                assert out.requires_grad is any(flags), (op, shapes, flags)
                assert out.grad is None


def _read_only(a):
    a.flags.writeable = False
    return a


def _arrays(saved):
    """Every array in a node's saved tuple, also inside nested sequences."""
    for item in saved:
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, (list, tuple)):
            yield from _arrays(item)


@pytest.mark.parametrize("case", sorted(OP_CASES))
def test_kernels_write_only_into_buffers_they_allocated(case):
    """Operands, outputs, saved arrays and upstream gradients are read-only
    here, so a forward op or a backward rule that wrote into one of them
    would raise instead of silently corrupting another tensor's data."""
    rng = np.random.default_rng(53)
    op, runs = _runs(case)
    for fn, shapes in runs:
        for flags in _flag_sets(len(shapes), GATED_CASES.get(case, 0)):
            inputs = [Tensor(rng.uniform(-2, 2, shape), requires_grad=flag)
                      for shape, flag in zip(shapes, flags)]
            for t in inputs:
                _read_only(t.data)
            before = [t.data.copy() for t in inputs]
            with Tape() as tape:
                fn(*inputs)
            [node] = tape.nodes
            for t in node.outputs:
                _read_only(t.data)
            for item in _arrays(node.saved):
                _read_only(item)
            n_out = len(node.outputs)
            for missing in [None] + (list(range(n_out)) if n_out > 1 else []):
                gs = tuple(None if i == missing else _read_only(rng.uniform(-1, 1, t.shape))
                           for i, t in enumerate(node.outputs))
                BACKWARD_RULES[op](node, gs)
            for t, data in zip(inputs, before):
                assert np.array_equal(t.data, data)


def test_affine_adds_the_bias_to_every_row():
    m = Tensor(np.zeros((2, 3)), requires_grad=True)
    v = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        y = affine([(m, Tensor(np.eye(3)))], v)
        loss = tsum(y)
    tape.backward(loss)
    np.testing.assert_array_equal(y.data, [[1.0, 2.0, 3.0]] * 2)
    np.testing.assert_array_equal(m.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(v.grad, [2.0, 2.0, 2.0])


def _affine_operands(rng, n=3, d=4, ks=(2, 5, 1)):
    pairs = [(Tensor(rng.uniform(-2, 2, (n, k)), requires_grad=True),
              Tensor(rng.uniform(-2, 2, (k, d)), requires_grad=True)) for k in ks]
    return pairs, Tensor(rng.uniform(-2, 2, d), requires_grad=True)


def test_affine_gradients_match_finite_differences():
    rng = np.random.default_rng(59)
    pairs, b = _affine_operands(rng)
    leaves = [t for pair in pairs for t in pair] + [b]
    weights = Tensor(rng.uniform(-1, 1, (3, 4)))

    def loss_of(i):
        def f(t):
            ts = leaves[:i] + [t] + leaves[i + 1:]
            return tsum(mul(_affine_case(*ts), weights))
        return f

    with Tape() as tape:
        loss = loss_of(0)(leaves[0])
    tape.backward(loss)
    for i, leaf in enumerate(leaves):
        assert relative_error(leaf.grad, finite_diff_grad(loss_of(i), leaf)) < 1e-6, i


def test_affine_is_the_numpy_chain_bit_for_bit():
    """The value sums the products first to last, then adds the bias; the
    rule returns ``g @ W.T`` and ``X.T @ g`` per pair and ``g.sum(axis=0)``
    for the bias, each on the same upstream gradient."""
    rng = np.random.default_rng(61)
    pairs, b = _affine_operands(rng)
    (x1, w1), (x2, w2), (x3, w3) = pairs
    with Tape() as tape:
        y = affine(pairs, b)
    value = ((x1.data @ w1.data + x2.data @ w2.data) + x3.data @ w3.data) + b.data
    assert y.data.tobytes() == value.tobytes()
    g = rng.uniform(-1, 1, (3, 4))
    grads = BACKWARD_RULES["affine"](tape.nodes[0], (g,))
    expected = [e for x, w in pairs for e in (g @ w.data.T, x.data.T @ g)] + [g.sum(axis=0)]
    assert len(grads) == len(expected) == 7
    for got, want in zip(grads, expected):
        assert got.tobytes() == want.tobytes()


def test_affine_returns_no_gradient_for_a_constant():
    x, b = Tensor(np.ones((2, 3))), Tensor(np.ones(2))
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    with Tape() as tape:
        affine([(x, w)], b)
    dx, dw, db = BACKWARD_RULES["affine"](tape.nodes[0], (np.ones((2, 2)),))
    assert dx is None and db is None
    np.testing.assert_array_equal(dw, np.full((3, 2), 2.0))


@pytest.mark.parametrize("pairs,bias", [
    ([], None),
    ([((3,), (3, 4))], None),
    ([((2, 3), (3,))], None),
    ([((2, 3), (2, 4))], None),
    ([((2, 3), (3, 4)), ((3, 3), (3, 4))], None),
    ([((2, 3), (3, 4)), ((2, 3), (3, 5))], None),
    ([((2, 3), (3, 4))], (3,)),
    ([((2, 3), (3, 4))], (1, 4)),
], ids=["no-pairs", "1-d-x", "1-d-w", "inner-dims", "rows-differ", "cols-differ",
        "bias-length", "2-d-bias"])
def test_affine_rejects_bad_shapes(pairs, bias):
    with pytest.raises(ShapeError, match="affine"):
        affine([(Tensor(np.zeros(a)), Tensor(np.zeros(b))) for a, b in pairs],
               None if bias is None else Tensor(np.zeros(bias)))


def test_small_op_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    cases = [
        ("abs", lambda t: tsum(abs_(t)), (4,)),
        ("softmax", lambda t: tsum(mul(softmax(t), Tensor(np.arange(4.0)))), (4,)),
        ("sub", lambda t: tsum(mul(sub(t, Tensor(np.ones((2, 2)))), t)), (2, 2)),
    ]
    for name, f, shape in cases:
        x = Tensor(rng.uniform(-2, 2, shape) + 0.1, requires_grad=True)
        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)
        err = relative_error(x.grad, finite_diff_grad(f, x))
        assert err < 1e-5, f"{name}: relative error {err}"


def test_corrupted_backward_rule_is_detected():
    """Negative control: a wrong rule must trip the finite-difference check."""
    original = BACKWARD_RULES["mul"]
    BACKWARD_RULES["mul"] = lambda node, gs: (gs[0], gs[0])  # drops both factors
    try:
        x = Tensor([1.7, -0.4], requires_grad=True)

        def f(t):
            return tsum(mul(t, t))

        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)
        assert relative_error(x.grad, finite_diff_grad(f, x)) > 1e-3
    finally:
        BACKWARD_RULES["mul"] = original


def test_operator_sugar():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    np.testing.assert_array_equal((a + b).data, [4.0, 6.0])
    np.testing.assert_array_equal((a - b).data, [-2.0, -2.0])
    np.testing.assert_array_equal((a * b).data, [3.0, 8.0])
    np.testing.assert_array_equal((2.0 * a).data, [2.0, 4.0])
    np.testing.assert_array_equal((a * 2).data, [2.0, 4.0])
    with pytest.raises(TypeError):
        "ab" * a
    np.testing.assert_array_equal((-a).data, [-1.0, -2.0])
    m = Tensor([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal((m @ m).data, m.data)


def test_values_stay_finite_on_extreme_inputs():
    x = Tensor([-1e4, -50.0, 0.0, 50.0, 1e4])
    assert np.isfinite(_sigmoid_stable(x.data)).all()
    assert np.isfinite(relu(x).data).all()
    # Every recurrent cell's gates and candidate at those pre-activations.
    X, zero, one = Tensor(x.data.reshape(5, 1)), Tensor(np.zeros((1, 1))), Tensor(np.ones((1, 1)))
    for cell, (gates, n_states) in CELLS.items():
        out = recurrent(cell, X, [one] * gates, [Tensor(np.zeros(1))] * gates, [zero] * n_states,
                        [one] * gates)
        for t in out if isinstance(out, tuple) else (out,):
            assert np.isfinite(t.data).all()
    s = softmax(Tensor([1e4, 0.0, -1e4]))
    assert np.isfinite(s.data).all()


def test_grad_shape_matches_data_shape():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        loss = tsum(mul(x, x))
    tape.backward(loss)
    assert x.grad.shape == x.data.shape


def _monet_inputs(rng, rows, d):
    """Random operands of a MoNet pass below its projections: three
    projections, two states, four state-to-gate matrices and the (2d, d)
    candidate matrix, for ``_monet_from_pres``."""
    shapes = [(rows, d)] * 5 + [(d, d)] * 4 + [(2 * d, d)]
    return [Tensor(rng.normal(0.0, 1.5, shape), requires_grad=True) for shape in shapes]


def _selected(pres):
    """(rows, d) ``pres`` side by side as one input, with the constant 0/1
    matrices that read each one back and zero biases.  A node given these
    projects ``pres`` exactly, as every other term of each product is a
    zero (no operand is -0.0 or non-finite), and ``concat`` splits the
    input's gradient back into theirs."""
    d, k = pres[0].shape[1], len(pres)
    eye = np.eye(k * d)
    return (concat(list(pres), axis=1), [Tensor(eye[:, j * d:(j + 1) * d]) for j in range(k)],
            [Tensor(np.zeros(d)) for _ in range(k)])


def _monet_from_pres(pre_r, pre_z, pre_h, *rest, **kwargs):
    """``monet_pass`` on the given projections: the pass below ``_project``."""
    return monet_pass(*_selected([pre_r, pre_z, pre_h]), *rest, **kwargs)


def _sigmoid_two_branch(x):
    with np.errstate(over="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def monet_unit_op_by_op(pre_r, pre_z, pre_h, left, right, U_r_left, U_z_left, U_r_right,
                        U_z_right, U_h):
    """The MoNet unit as it ran one tape op at a time, in numpy: absent
    neighbours as zero states, four separate gate sigmoids, the candidate
    from the gated states joined side by side, the fusion as a max-shifted
    softmax over the stacked logits (1, mix_right, mix_left), and the blend
    added candidate, right, left."""
    left = np.zeros(pre_h.shape) if left is None else left
    right = np.zeros(pre_h.shape) if right is None else right
    reset_left = _sigmoid_two_branch(pre_r + left @ U_r_left)
    reset_right = _sigmoid_two_branch(pre_r + right @ U_r_right)
    mix_left = _sigmoid_two_branch(pre_z + left @ U_z_left)
    mix_right = _sigmoid_two_branch(pre_z + right @ U_z_right)
    a = pre_h + np.concatenate([right * reset_right, left * reset_left], axis=1) @ U_h
    candidate = np.where(a > 0, a, 0.0)
    logits = np.stack([np.ones(pre_h.shape), mix_right, mix_left])
    e = np.exp(logits - logits.max(axis=0))
    w = e / e.sum(axis=0)
    return w[0] * candidate + w[1] * right + w[2] * left


@pytest.mark.parametrize("rows,d", [(1, 1), (6, 5), (40, 16)])
@pytest.mark.parametrize("sides", ["both", "left", "right", "none"])
def test_monet_pass_matches_the_op_by_op_unit_bit_for_bit(rows, d, sides):
    """An absent neighbour equals a zero state bit for bit, and so does the
    fused kernel the separate steps it replaced."""
    rng = np.random.default_rng(83 + rows + d)
    for _ in range(5):
        args = [t.data for t in _monet_inputs(rng, rows, d)]
        args[2] -= 0.5  # some candidates clipped by the ReLU
        if sides in ("right", "none"):
            args[3] = None
        if sides in ("left", "none"):
            args[4] = None
        got = _monet_from_pres(*(None if a is None else Tensor(a) for a in args)).data
        assert_same_bits(got, monet_unit_op_by_op(*args))


@pytest.mark.parametrize("layers", [0, 2])
@pytest.mark.parametrize("sides", ["both", "left", "right", "none", "same"])
def test_monet_pass_gradients_match_finite_differences(sides, layers):
    """Every input the node reads, its input, input matrices and biases
    included, with an absent neighbour on either side or both, and with one
    tensor as both neighbours; over the one pass and over two more."""
    rng = np.random.default_rng(89)
    shapes = [(3, 5)] + [(5, 4)] * 3 + [(4,)] * 3 + [(3, 4)] * 2 + [(4, 4)] * 4 + [(8, 4)]
    args = [Tensor(rng.normal(0.0, 1.5, shape), requires_grad=True) for shape in shapes]
    if sides in ("right", "none"):
        args[8] = None
    if sides in ("left", "none"):
        args[7] = None
    if sides == "same":
        args[8] = args[7]
    weight = Tensor(rng.normal(size=(3, 4)))
    for i, x in enumerate(args):
        if x is None or (i == 8 and sides == "same"):
            continue

        def f(t, i=i):
            ts = [t if a is x else a for a in args]
            return tsum(mul(monet_pass(ts[0], ts[1:4], ts[4:7], *ts[7:], layers=layers), weight))

        for a in args:
            if a is not None:
                a.zero_grad()
        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)
        fd = finite_diff_grad(f, x)
        got = np.zeros(x.shape) if x.grad is None else x.grad
        assert relative_error(got, fd) < 1e-6, (sides, i)


@pytest.mark.parametrize("d", [4, 19])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("causal_only", [False, True])
def test_monet_pass_over_layers_equals_a_chain_of_one_pass_nodes_bit_for_bit(causal_only, n, d):
    """``layers`` more passes in one node give the output and every
    gradient of a chain of one-pass nodes joined by ``shift_rows``: the
    same values, summed in the same order."""
    rng = np.random.default_rng(131 + n + d)
    t_len = 5
    args = _monet_inputs(rng, t_len * n, d)
    args[2].data = args[2].data - 0.5  # some candidates clipped by the ReLU
    args[3] = args[4] = None
    leaves = [a for a in args if a is not None]
    weight = Tensor(rng.normal(size=(t_len * n, d)))
    for layers in range(4):
        runs = []
        for chained in (False, True):
            for a in leaves:
                a.zero_grad()
            with Tape() as tape:
                if chained:
                    out = _monet_from_pres(*args)
                    for _ in range(layers):
                        right = None if causal_only else shift_rows(out, -n)
                        out = _monet_from_pres(*args[:3], shift_rows(out, n), right, *args[5:])
                else:
                    out = _monet_from_pres(*args, n=n, layers=layers, causal_only=causal_only)
                loss = tsum(mul(out, weight))
            tape.backward(loss)
            runs.append([out.data] + [np.zeros(0) if a.grad is None else a.grad for a in leaves])
        assert [node.op for node in tape.nodes].count("monet_pass") == layers + 1
        for got, expected in zip(*runs):
            assert_same_bits(got, expected)


@pytest.mark.parametrize("scope", ["no tape", "paused", "tape"])
def test_monet_pass_keeps_no_pass_alive_unless_a_tape_records(monkeypatch, scope):
    """With nothing recording, each pass's neighbour copies and saved
    arrays are gone before the next pass starts; while a tape records, the
    node keeps every pass's."""
    refs, alive = [], []
    kernel = tensor._monet_kernel

    def watched(*args):
        alive.append(sum(r() is not None for r in refs))
        data, saved = kernel(*args)
        refs.extend(weakref.ref(a) for a in (*args[3:5], *saved) if a is not None)
        return data, saved

    monkeypatch.setattr(tensor, "_monet_kernel", watched)
    args = _monet_inputs(np.random.default_rng(137), 8, 3)
    args[3] = args[4] = None
    with Tape() as tape:
        if scope == "paused":
            with pause_recording():
                _monet_from_pres(*args, n=2, layers=3)
        elif scope == "tape":
            _monet_from_pres(*args, n=2, layers=3)
    if scope == "no tape":
        _monet_from_pres(*args, n=2, layers=3)
    # The base pass saves 4 arrays; each later pass 5 and its 2 neighbours.
    kept = [0, 4, 11, 18]
    assert alive == (kept if scope == "tape" else [0] * 4)
    assert [node.op for node in tape.nodes].count("monet_pass") == (scope == "tape")


@pytest.mark.parametrize("steps,n,blocks", [(256, 5, [2, 2, 1]), (600, 3, [1, 1, 1]),
                                            (8, 64, [64])])
@pytest.mark.parametrize("neighbours,causal_only", [(False, False), (True, True)])
@pytest.mark.parametrize("scope", ["no tape", "paused", "tape"])
def test_untaped_monet_pass_runs_whole_sequences_at_most_512_rows_at_a_time(
        monkeypatch, steps, n, blocks, neighbours, causal_only, scope):
    """With nothing recording, the passes run over blocks of whole
    sequences of at most 512 rows, or one sequence where one is longer; a
    recording tape runs every row at once.  The values match within 1e-12:
    OpenBLAS may round a row differently with the block's row count."""
    args = _monet_inputs(np.random.default_rng(139), steps * n, 3)
    if not neighbours:
        args[3] = args[4] = None
    run = lambda: _monet_from_pres(*args, n=n, layers=2, causal_only=causal_only).data
    with Tape():
        whole = run()
    rows = []
    kernel = tensor._monet_kernel

    def watched(*a):
        rows.append(len(a[2]))
        return kernel(*a)

    monkeypatch.setattr(tensor, "_monet_kernel", watched)
    with Tape() as tape:
        if scope == "paused":
            with pause_recording():
                out = run()
        elif scope == "tape":
            out = run()
    if scope == "no tape":
        out = run()
    expected = [steps * n] if scope == "tape" else [steps * b for b in blocks]
    assert rows == [r for r in expected for _ in range(3)]
    assert [node.op for node in tape.nodes].count("monet_pass") == (scope == "tape")
    np.testing.assert_allclose(out, whole, rtol=0, atol=1e-12)


# The fusion is a grouped softmax over the logits (1, mix_right, mix_left);
# ``_monet_pass`` hands back the weights (candidate, right, left) it saves.

def _fusion_weights(args):
    return _monet_pass(*_selected(args[:3]), *args[3:])[1][4]


def test_group_softmax_symmetry():
    """Equal logits, with both mix gates saturated at 1, give a third each;
    swapping the neighbours with their gate matrices swaps their weights,
    up to the order in which the denominator adds the terms."""
    rng = np.random.default_rng(97)
    args = _monet_inputs(rng, 4, 3)
    for c in (100.0, 745.0, 1e300):
        for sides in ((None, None), (args[3], args[4])):
            sat = list(args)
            sat[1] = Tensor(np.full((4, 3), c))
            sat[3:5] = sides
            np.testing.assert_allclose(_fusion_weights(sat), 1 / 3, rtol=0, atol=1e-15)
    swapped = list(args)
    swapped[3], swapped[4] = args[4], args[3]
    swapped[5:9] = args[7], args[8], args[5], args[6]
    w, ws = _fusion_weights(args), _fusion_weights(swapped)
    np.testing.assert_allclose(ws[0], w[0], rtol=1e-15, atol=0)
    np.testing.assert_allclose(ws[1], w[2], rtol=1e-15, atol=0)
    np.testing.assert_allclose(ws[2], w[1], rtol=1e-15, atol=0)


def test_group_softmax_closed_form():
    """Mix gates of exactly 0 leave the logits (1, 0, 0)."""
    rng = np.random.default_rng(101)
    args = _monet_inputs(rng, 4, 3)
    args[1] = Tensor(np.full((4, 3), -1000.0))
    e = math.e
    for sides in ((None, None), (args[3], args[4])):
        args[3:5] = sides
        w = _fusion_weights(args)
        np.testing.assert_allclose(w[0], e / (e + 2), rtol=1e-15, atol=0)
        np.testing.assert_allclose(w[1], 1 / (e + 2), rtol=1e-15, atol=0)
        np.testing.assert_allclose(w[2], 1 / (e + 2), rtol=1e-15, atol=0)


def test_group_softmax_sums_to_one_and_open_interval():
    rng = np.random.default_rng(3)
    for sides in ("both", "left", "right", "none"):
        args = _monet_inputs(rng, 4, 5)
        if sides in ("right", "none"):
            args[3] = None
        if sides in ("left", "none"):
            args[4] = None
        w = _fusion_weights(args)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) < 1e-12
        assert np.all(w > 0.0) and np.all(w < 1.0)


def _recurrent_inputs(rng, cell, n, d, t_len, d_in=5):
    """Random ``recurrent`` operands for ``t_len`` steps of (n, d) rows."""
    return [Tensor(rng.normal(0.0, 1.5, shape), requires_grad=True)
            for shape in _recurrent_shapes(cell, t_len, n, d_in, d)]


def vanilla_step_op_by_op(pre, s, U):
    """The vanilla RNN step as it ran one tape op at a time, in numpy."""
    return np.tanh(pre + s @ U)


def gru_cell_op_by_op(pre_r, pre_z, pre_h, s, U_r, U_z, U_h):
    """The GRU step as it ran one tape op at a time, in numpy."""
    r = _sigmoid_two_branch(pre_r + s @ U_r)
    z = _sigmoid_two_branch(pre_z + s @ U_z)
    h = np.tanh(pre_h + (r * s) @ U_h)
    return z * s + (np.ones(s.shape) - z) * h


def lstm_cell_op_by_op(pre_i, pre_f, pre_o, pre_g, s, c, U_i, U_f, U_o, U_g):
    """The LSTM step as it ran one tape op at a time, in numpy."""
    i = _sigmoid_two_branch(pre_i + s @ U_i)
    f = _sigmoid_two_branch(pre_f + s @ U_f)
    o = _sigmoid_two_branch(pre_o + s @ U_o)
    g = np.tanh(pre_g + s @ U_g)
    c_next = f * c + i * g
    return o * np.tanh(c_next), c_next


def scan_op_by_op(step, pres, states, mats, reverse):
    """A numpy loop of an op-by-op step over the row blocks of time-major
    projections: every step's hidden state in time order, then the LSTM's
    cell state after the last step run."""
    n = states[0].shape[0]
    t_len = pres[0].shape[0] // n
    hs, state = [None] * t_len, tuple(states)
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        out = step(*(p[t * n:(t + 1) * n] for p in pres), *state, *mats)
        state = out if isinstance(out, tuple) else (out,)
        hs[t] = state[0]
    return (np.concatenate(hs),) + state[1:]


@pytest.mark.parametrize("rows,d", [(1, 1), (6, 4), (32, 19)])
@pytest.mark.parametrize("cell,reference", [("vanilla-rnn", vanilla_step_op_by_op),
                                            ("gru", gru_cell_op_by_op),
                                            ("lstm", lstm_cell_op_by_op)])
def test_cell_ops_match_the_op_by_op_step_bit_for_bit(cell, reference, rows, d):
    """``recurrent`` over 1, 2 and 5 steps, both ways, against a loop of the
    op-by-op step; the LSTM's cell state after the last step run too."""
    rng = np.random.default_rng(103 + rows + d)
    for t_len, reverse in itertools.product((1, 2, 5), (False, True)):
        [X], Ws, bs, states, mats = args = _recurrent_args(
            cell, _recurrent_inputs(rng, cell, rows, d, t_len))
        got = recurrent(cell, *args, reverse)
        pres = [X.data @ W.data + b.data for W, b in zip(Ws, bs)]
        expected = scan_op_by_op(reference, pres, *([t.data for t in ts] for ts in (states, mats)),
                                 reverse)
        got = got if isinstance(got, tuple) else (got,)
        assert len(got) == len(expected)
        for out, want in zip(got, expected):
            assert_same_bits(out.data, want)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_recurrent_gradients_equal_one_node_per_step_bit_for_bit(cell, reverse):
    """The scan's rule sums what a chain of one-step nodes sums, in the
    same order: a state's rows of the output gradient plus the carry from
    the step after it, and each state matrix's gradient from the last step
    run to the first."""
    rng = np.random.default_rng(127)
    n, t_len = 3, 5
    *_, states, mats = _recurrent_args(cell, _recurrent_inputs(rng, cell, n, 4, t_len))
    # Each gate reads its own projection of the steps back exactly (see
    # ``_selected``), so the input's gradient holds the projections'.
    pres, Ws, bs = _selected([Tensor(rng.normal(0.0, 1.5, (t_len * n, 4))) for _ in mats])
    X = Tensor(pres.data, requires_grad=True)
    steps = [Tensor(X.data[t * n:(t + 1) * n], requires_grad=True) for t in range(t_len)]
    weight = Tensor(rng.normal(size=(t_len * n, 4)))
    runs = []
    for chained in (False, True):
        for t in states + mats:
            t.zero_grad()
        with Tape() as tape:
            if chained:
                hs, out = [None] * t_len, states
                for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
                    out = recurrent(cell, steps[t], Ws, bs, out, mats)
                    out = out if isinstance(out, tuple) else (out,)
                    hs[t] = out[0]
                out = (concat(hs), *out[1:])
            else:
                out = recurrent(cell, X, Ws, bs, states, mats, reverse)
                out = out if isinstance(out, tuple) else (out,)
            loss = tsum(mul(out[0], weight))
            for c in out[1:]:
                loss = add(loss, tsum(mul(c, c)))
        tape.backward(loss)
        dX = np.concatenate([step.grad for step in steps]) if chained else X.grad
        runs.append([t.data for t in out] + [dX] + [t.grad for t in states + mats])
    assert [node.op for node in tape.nodes].count("recurrent") == t_len
    for got, expected in zip(*runs):
        assert_same_bits(got, expected)


def _assert_recurrent_gradients_match_finite_differences(cell, loss_of, reverse, seed):
    """Every input of a ``recurrent`` node over three steps of three rows."""
    rng = np.random.default_rng(seed)
    args = _recurrent_inputs(rng, cell, 3, 4, 3)
    for i, x in enumerate(args):
        def f(t, i=i):
            ts = [t if j == i else a for j, a in enumerate(args)]
            return loss_of(recurrent(cell, *_recurrent_args(cell, ts), reverse))

        for a in args:
            a.zero_grad()
        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)
        assert relative_error(x.grad, finite_diff_grad(f, x)) < 1e-6, (i, reverse)


@pytest.mark.parametrize("reverse", [False, True])
def test_vanilla_rnn_cell_gradients_match_finite_differences(reverse):
    weight = Tensor(np.random.default_rng(105).normal(size=(9, 4)))
    _assert_recurrent_gradients_match_finite_differences(
        "vanilla-rnn", lambda out: tsum(mul(out, weight)), reverse, 106)


def test_gru_cell_gradients_match_finite_differences():
    weight = Tensor(np.random.default_rng(107).normal(size=(9, 4)))
    for reverse in (False, True):
        _assert_recurrent_gradients_match_finite_differences(
            "gru", lambda out: tsum(mul(out, weight)), reverse, 108)


@pytest.mark.parametrize("outputs", ["h", "c", "both"])
def test_lstm_cell_gradients_match_finite_differences(outputs):
    """A loss on the hidden states only, on the final cell state only (the
    rule gets None for the hidden states), and on both."""
    rng = np.random.default_rng(109)
    w_h, w_c = Tensor(rng.normal(size=(9, 4))), Tensor(rng.normal(size=(3, 4)))

    def loss_of(hc):
        h, c = hc
        if outputs == "h":
            return tsum(mul(h, w_h))
        if outputs == "c":
            return tsum(mul(c, w_c))
        return add(tsum(mul(h, w_h)), tsum(mul(c, w_c)))

    for reverse in (False, True):
        _assert_recurrent_gradients_match_finite_differences("lstm", loss_of, reverse, 110)


# Which outputs of each direction a loss reads: its hidden states ("h"), the
# LSTM's last cell state ("c"), both, or neither ("").  A read shared by
# every direction, and pairs of reads that differ between directions.
_SHARED_READS = {"vanilla-rnn": ["h"], "gru": ["h"], "lstm": ["hc", "h", "c"]}
_MIXED_READS = {"vanilla-rnn": [("h", ""), ("", "h")], "gru": [("h", ""), ("", "h")],
                "lstm": [("h", ""), ("", "h"), ("c", "hc"), ("h", "c"), ("", "c")]}


def _direction_inputs(rng, cell, flags, t_len):
    """Per direction, random ``recurrent`` operands of ``t_len`` steps of
    (3, 4) rows, and a weight for its hidden states in the loss."""
    per_dir = [_recurrent_args(cell, _recurrent_inputs(rng, cell, 3, 4, t_len)) for _ in flags]
    weights = [Tensor(rng.normal(size=(t_len * 3, 4))) for _ in flags]
    return per_dir, weights


def _joint_outputs(cell, per_dir, flags):
    """Each direction's outputs of one ``recurrent`` node over all of them."""
    n_states = CELLS[cell][1]
    outs = recurrent(cell, *([t for args in per_dir for t in args[part]] for part in range(5)),
                     flags)
    return [outs[k * n_states:(k + 1) * n_states] for k in range(len(flags))]


def _read_loss(outs, reads, weights):
    """A loss reading direction k's outputs as ``reads[k]`` says."""
    loss = Tensor(0.0)
    for out, read, w in zip(outs, reads, weights):
        if "h" in read:
            loss = add(loss, tsum(mul(out[0], w)))
        if "c" in read:
            loss = add(loss, tsum(mul(out[1], out[1])))
    return loss


@pytest.mark.parametrize("flags", [(False, True), (True, False), (False, True, True)])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_recurrent_directions_equal_one_node_per_direction_bit_for_bit(cell, flags):
    """A node over several directions returns, and passes back, exactly
    what one node per direction does when the loss reads every direction
    alike."""
    rng = np.random.default_rng(131)
    for t_len, read in itertools.product((1, 4), _SHARED_READS[cell]):
        per_dir, weights = _direction_inputs(rng, cell, flags, t_len)
        inputs = [t for part in range(5) for args in per_dir for t in args[part]]
        for t in inputs:
            _read_only(t.data)
        # The first direction's initial states take no gradient, and over
        # one step no direction's do.
        for args in per_dir if t_len == 1 else per_dir[:1]:
            for t in args[3]:
                t.requires_grad = False
        runs = []
        for joint in (True, False):
            for t in inputs:
                t.zero_grad()
            with Tape() as tape:
                if joint:
                    outs = _joint_outputs(cell, per_dir, flags)
                else:
                    outs = [recurrent(cell, *args, rev) for args, rev in zip(per_dir, flags)]
                    outs = [out if isinstance(out, tuple) else (out,) for out in outs]
                loss = _read_loss(outs, [read] * len(flags), weights)
            tape.backward(loss)
            runs.append([t.data for out in outs for t in out] + [t.grad for t in inputs])
        for got, expected in zip(*runs, strict=True):
            if expected is None:
                assert got is None, read
            else:
                assert_same_bits(got, expected)


@pytest.mark.parametrize("flags", [(False, True), (True, False), (False, True, True)])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_recurrent_directions_read_unlike_each_other_raise(cell, flags):
    """A loss that reads the directions of one node unlike each other gets
    a ``GradientError`` from the backward pass rather than a gradient
    silently dropped; such a loss records one node per direction."""
    rng = np.random.default_rng(137)
    for t_len, reads in itertools.product((1, 4), _MIXED_READS[cell]):
        per_dir, weights = _direction_inputs(rng, cell, flags, t_len)
        with Tape() as tape:
            outs = _joint_outputs(cell, per_dir, flags)
            loss = _read_loss(outs, (reads * len(flags))[:len(flags)], weights)
        with pytest.raises(GradientError, match="one node per direction"):
            tape.backward(loss)


def test_recurrent_rejects_malformed_operands():
    rng = np.random.default_rng(113)
    [X], Ws, bs, states, mats = _recurrent_args("gru", _recurrent_inputs(rng, "gru", 2, 3, 3))
    bad = [
        # Input matrices of mixed shapes, or not matching the input.
        (X, [Ws[0], Ws[1], Tensor(np.ones((4, 3)))], bs, states, mats),
        (X, [Ws[0], Ws[1], Tensor(np.ones((5, 2)))], bs, states, mats),
        (Tensor(np.ones((6, 4))), Ws, bs, states, mats),
        # Rows that are not a positive multiple of n.
        (Tensor(np.ones((5, 5))), Ws, bs, states, mats),
        (Tensor(np.ones((0, 5))), Ws, bs, states, mats),
        (Tensor(np.ones(6)), Ws, bs, states, mats),
        # A bias, state or matrix of the wrong shape, or the wrong number.
        (X, Ws, [bs[0], bs[1], Tensor(np.ones(4))], states, mats),
        (X, Ws, bs[:2] + [Tensor(np.ones((1, 3)))], states, mats),
        (X, Ws, bs, [Tensor(np.ones((2, 4)))], mats),
        (X, Ws, bs, [Tensor(np.ones(3))], mats),
        (X, Ws, bs, states, mats[:2] + [Tensor(np.ones((3, 4)))]),
        (X, Ws[:2], bs, states, mats),
        (X, Ws, bs[:2], states, mats),
        (X, Ws, bs, states + states, mats),
        (X, Ws, bs, states, mats[:2]),
    ]
    for args in bad:
        with pytest.raises(ShapeError):
            recurrent("gru", *args)
    # Two directions need two of each, and a list of inputs one per
    # direction; an empty flag list runs no direction.
    for args in bad[-4:] + [(X, Ws, bs, states, mats), ([X], Ws + Ws, bs + bs, states + states,
                                                         mats + mats)]:
        with pytest.raises(ShapeError):
            recurrent("gru", *args, (False, True))
    with pytest.raises(ShapeError):
        recurrent("gru", X, Ws + Ws, bs + bs, states + states,
                  mats + mats[:2] + [Tensor(np.ones((3, 4)))], (False, True))
    with pytest.raises(ShapeError):
        recurrent("gru", [], [], [], [], [], ())
    with pytest.raises(ValueError, match="unknown cell"):
        recurrent("gru_cell", X, Ws, bs, states, mats)


# The nodes project their own input.  Before they did, each gate's
# projection was one ``affine`` node recorded ahead of the node, in gate
# order per direction.  The compositions below record it that way and
# hand the projections to the node through ``_selected``; each passes
# through a scale by 1, whose rule hands its ``affine`` a contiguous
# gradient, as a node's rule did when it took the projections themselves.

def _per_gate(X, Ws, bs):
    """``_selected`` on one ``affine`` node per gate."""
    return _selected([scale(affine([(X, W)], b), 1.0) for W, b in zip(Ws, bs)])


def _same_gradients(got, expected):
    """Bit for bit, where a None (nothing reached) equals all zeros."""
    for a, b in zip(got, expected, strict=True):
        if a is None or b is None:
            assert not np.any(b if a is None else a)
        else:
            assert_same_bits(a, b)


def _run_both(leaves, weights, *runs):
    """Each run's outputs taped, every leaf's gradient of the sum of its
    outputs times ``weights`` (an output of another shape, the LSTM's last
    cell state, times itself), and its outputs with nothing recording."""
    results = []
    for run in runs:
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            outs = run()
            outs = outs if isinstance(outs, tuple) else (outs,)
            loss = Tensor(0.0)
            for out in outs:
                w = weights if out.shape == weights.shape else out
                loss = add(loss, tsum(mul(out, w)))
        tape.backward(loss)
        untaped = run()
        results.append(([t.data for t in outs], [t.grad for t in leaves],
                         [t.data for t in (untaped if isinstance(untaped, tuple) else (untaped,))]))
    return results


@pytest.mark.parametrize("n,t_len", [(1, 1), (3, 5), (32, 20)])
@pytest.mark.parametrize("d", [1, 4, 19])
@pytest.mark.parametrize("flags", [(False,), (False, True)])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_recurrent_equals_its_per_gate_affine_composition_bit_for_bit(cell, flags, d, n, t_len):
    """One node over one direction, or two reading one input as a bi-RNN
    layer does, gives the outputs and the gradients of its input, input
    matrices, biases, initial states and state matrices that per-gate
    ``affine`` nodes and a scan of their projections give, taped or not."""
    rng = np.random.default_rng(149 + d + n)
    gates, n_states = CELLS[cell]
    X = Tensor(rng.normal(0.0, 1.5, (t_len * n, 5)), requires_grad=True)
    per_dir = [_recurrent_args(cell, _recurrent_inputs(rng, cell, n, d, t_len))[1:] for _ in flags]
    Ws, bs, states, mats = ([t for args in per_dir for t in args[part]] for part in range(4))
    weights = Tensor(rng.normal(size=(t_len * n, d)))

    def composed():
        sides = [_per_gate(X, Ws[k * gates:(k + 1) * gates], bs[k * gates:(k + 1) * gates])
                 for k in range(len(flags))]
        return recurrent(cell, [s[0] for s in sides], [S for s in sides for S in s[1]],
                         [z for s in sides for z in s[2]], states, mats, flags)

    (got, got_grads, got_untaped), expected = _run_both(
        [X, *Ws, *bs, *states, *mats], weights,
        lambda: recurrent(cell, X, Ws, bs, states, mats, flags), composed)
    for a, b in zip(got + got_untaped, expected[0] + expected[2], strict=True):
        assert_same_bits(a, b)
    _same_gradients(got_grads, expected[1])


@pytest.mark.parametrize("n,t_len", [(1, 1), (3, 5), (32, 20)])
@pytest.mark.parametrize("d", [1, 4, 19])
@pytest.mark.parametrize("causal_only", [False, True])
@pytest.mark.parametrize("layers", [0, 1, 3])
def test_monet_pass_equals_its_per_gate_affine_composition_bit_for_bit(layers, causal_only, d,
                                                                       n, t_len):
    """The node over 0, 1 and 3 passes after the base pass gives the
    outputs and the gradients of its input, input matrices, biases and
    state matrices that per-gate ``affine`` nodes and a pass over their
    projections give, taped or not (untaped, past 512 rows, in blocks of
    whole sequences of the one projection).  With no pass after the base
    pass nothing reads the reset gate: its matrix and bias get no
    gradient, and in the composition a zero one."""
    rng = np.random.default_rng(151 + d + n)
    shapes = [(t_len * n, 5)] + [(5, d)] * 3 + [(d,)] * 3 + [(d, d)] * 4 + [(2 * d, d)]
    X, *params = [Tensor(rng.normal(0.0, 1.5, shape), requires_grad=True) for shape in shapes]
    params[5].data = params[5].data - 0.5  # some candidates clipped by the ReLU
    Ws, bs, mats = params[:3], params[3:6], params[6:]
    weights = Tensor(rng.normal(size=(t_len * n, d)))
    kwargs = dict(n=n, layers=layers, causal_only=causal_only)
    (got, got_grads, got_untaped), expected = _run_both(
        [X, *params], weights,
        lambda: monet_pass(X, Ws, bs, None, None, *mats, **kwargs),
        lambda: monet_pass(*_per_gate(X, Ws, bs), None, None, *mats, **kwargs))
    for a, b in zip(got + got_untaped, expected[0] + expected[2], strict=True):
        assert_same_bits(a, b)
    _same_gradients(got_grads, expected[1])
    assert (got_grads[1] is None) is (layers == 0)
