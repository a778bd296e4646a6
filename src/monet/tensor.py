"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

Every differentiable operation is a free function that computes its value
with numpy and, while a ``Tape`` is active, appends a node describing the
computation.  ``backward`` replays the recorded nodes in reverse, which keeps
gradient accumulation deterministic (two passes over the same tape are
bit-identical) and lets ``jacobian`` extract exact structural sparsity:
a coordinate never touched by the reverse sweep stays exactly 0.0.

There is no broadcasting: binary operations demand equal shapes, and the one
matrix-plus-row-vector case that batched cells need, a bias, is added inside
the one affine-map operation (``affine``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import accumulate

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GradientError(ValueError):
    """Backward-pass contract violation (e.g. non-scalar loss)."""


# Innermost entry wins; ``None`` marks a paused-recording scope.
_TAPE_STACK: list["Tape | None"] = []


class Tensor:
    """A dense float64 array, optionally carrying a gradient buffer.

    ``data`` is treated as immutable once the tensor participates in a
    recorded computation; parameter updates rebind ``data`` to a fresh array
    instead of writing through it.  ``grad`` is only ever assigned by
    ``backward`` (accumulating across calls) or cleared by ``zero_grad``.
    Tensors hash by identity, which is how the reverse sweep keys them.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_grad_shared")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad: np.ndarray | None = None
        self._grad_shared = False

    @property
    def grad(self) -> np.ndarray | None:
        """The accumulated gradient, an array this tensor owns.  ``backward``
        stores the sweep's buffers as they are, and a rule may hand one
        buffer to several tensors or hand out a view of another tensor's
        gradient, so a stored buffer is copied here once, on first read:
        a gradient nobody reads is never copied."""
        if self._grad_shared:
            self._grad = self._grad.copy()
            self._grad_shared = False
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value
        self._grad_shared = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GradientError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return NotImplemented

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return affine(((self, other),))


class TapeNode:
    __slots__ = ("op", "inputs", "outputs", "saved")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], outputs: tuple[Tensor, ...], saved: tuple):
        self.op = op
        self.inputs = inputs
        self.outputs = outputs
        self.saved = saved


class Tape:
    """Ordered record of operations; inputs of a node always precede it."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self.nodes)

    def backward(self, loss: Tensor) -> None:
        backward(loss, self)


class pause_recording:
    """Context manager that suspends recording on any active tape."""

    def __enter__(self):
        _TAPE_STACK.append(None)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()


def _record(op: str, inputs: tuple[Tensor, ...], outputs: tuple[Tensor, ...], saved: tuple = ()) -> None:
    if _TAPE_STACK:
        tape = _TAPE_STACK[-1]
        if tape is not None:
            tape.nodes.append(TapeNode(op, inputs, outputs, saved))


def _out(data: np.ndarray, inputs: Sequence[Tensor]) -> Tensor:
    """Wrap an op's result, which is float64 already, skipping the public
    constructor's cast.  Only an op on 0-d operands needs converting: numpy
    hands back a scalar there."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out._grad = None
    out._grad_shared = False
    out.requires_grad = False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            break
    return out


def _require_equal_shapes(op: str, a: Tensor, b: Tensor) -> None:
    a_shape, b_shape = a.data.shape, b.data.shape
    if a_shape != b_shape:
        raise ShapeError(f"{op}: shapes must match exactly, got {a_shape} and {b_shape}")


# ---------------------------------------------------------------------------
# Forward operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _require_equal_shapes("add", a, b)
    out = _out(a.data + b.data, (a, b))
    _record("add", (a, b), (out,))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_equal_shapes("sub", a, b)
    out = _out(a.data - b.data, (a, b))
    _record("sub", (a, b), (out,))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_equal_shapes("mul", a, b)
    out = _out(a.data * b.data, (a, b))
    _record("mul", (a, b), (out,))
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = _out(a.data * c, (a,))
    _record("scale", (a,), (out,), (c,))
    return out


def affine(terms: Sequence[tuple[Tensor, Tensor]], b: Tensor | None = None) -> Tensor:
    """``X_1 @ W_1 + X_2 @ W_2 + ... + b`` as one tape node: (N, K_i) @
    (K_i, D) products summed first to last into the first one, then the
    (D,) row vector ``b``, if given, added to every row."""
    data, inputs = None, ()
    for X, W in terms:
        xd, wd = X.data, W.data
        if (xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]
                or data is not None and (xd.shape[0], wd.shape[1]) != data.shape):
            raise ShapeError(f"affine: need (N, K) @ (K, D) pairs of one (N, D), got "
                             f"{[(X.shape, W.shape) for X, W in terms]}")
        data = xd @ wd if data is None else np.add(data, xd @ wd, out=data)
        inputs += (X, W)
    if data is None:
        raise ShapeError("affine: need at least one (X, W) pair")
    if b is not None:
        if b.data.shape != data.shape[1:]:
            raise ShapeError(f"affine: the bias must be {data.shape[1:]}, got {b.data.shape}")
        data += b.data
        inputs += (b,)
    out = _out(data, inputs)
    _record("affine", inputs, (out,))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in one pass, bit-identical to the two-branch form
    ``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` below.
    Both branches are ``n / (1 + e)`` with ``e = exp(-|x|)``, which never
    overflows, and numerator 1 for x >= 0, ``e`` below.  That numerator is
    ``maximum(e, x >= 0)`` without a per-element branch: ``e <= 1`` exactly
    when x >= 0, and a nan ``e`` passes through.  -|x| is taken as
    ``minimum(x, -x)``, which passes a nan input through unchanged, as the
    two-branch form does.  Past |x| ~ 708 ``e`` is subnormal, which is the
    right value, so the caller ignores underflow: ``_sigmoid_stable`` per
    call, the scan nodes once around their loop.  The sum and the divide
    run in place on the arrays this call made (on a 0-d operand numpy hands
    back scalars, and the augmented assignments rebind them instead)."""
    e = np.exp(np.minimum(x, -x))
    y = np.maximum(e, x >= 0)
    e += 1.0
    y /= e
    return y


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """``_sigmoid`` with its subnormal ``e`` not reported as underflow."""
    with np.errstate(under="ignore"):
        return _sigmoid(x)


def _softmax_stable(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a numpy array, max-shifted."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _relu_select(a: np.ndarray, keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``np.where(a > 0, a, 0.0)`` bit for bit, at a fraction of its cost,
    and the 64-bit mask it selects with: all ones where a > 0, zero
    elsewhere, so every other entry, nan and -0.0 included, becomes +0.0.
    Given a ``keep`` mask instead, the same select of ``a`` by it: that is
    the ReLU's rule.  Works on 0-d operands and numpy scalars too."""
    if keep is None:
        keep = np.negative(a > 0, dtype=np.int64)
    return np.bitwise_and(a.view(np.int64), keep).view(np.float64), keep


def relu(a: Tensor) -> Tensor:
    # Subgradient at exactly 0 is 0: the mask is a strict inequality.
    y, keep = _relu_select(a.data)
    out = _out(y, (a,))
    _record("relu", (a,), (out,), (keep,))
    return out


def abs_(a: Tensor) -> Tensor:
    out = _out(np.abs(a.data), (a,))
    _record("abs", (a,), (out,), (np.sign(a.data),))
    return out


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar (shape ()) tensor."""
    out = _out(np.asarray(a.data.sum()), (a,))
    _record("sum", (a,), (out,), (a.shape,))
    return out


def sum_row_blocks(x: Tensor, n: int) -> Tensor:
    """Sum the consecutive ``n``-row blocks of a 2-D tensor, first to last:
    (T*n, D) in, (n, D) out.  On a time-major matrix this sums each
    sequence over time, in the order a chain of ``add`` nodes would."""
    xd = x.data
    if xd.ndim != 2 or n < 1 or xd.shape[0] < n or xd.shape[0] % n:
        raise ShapeError(f"sum_row_blocks: need a 2-D tensor whose rows are a positive "
                         f"multiple of {n}, got {xd.shape}")
    blocks = xd.reshape(-1, n, xd.shape[1])
    # An explicit loop: numpy may sum a reduced axis pairwise, not in order.
    total = blocks[0].copy()
    for block in blocks[1:]:
        total += block
    out = _out(total, (x,))
    _record("sum_row_blocks", (x,), (out,), (len(blocks),))
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors of one rank end to end along ``axis``, as one tape node
    however many parts there are."""
    # numpy rejects each bad join (no parts, axis out of range, mixed ranks,
    # dims that differ off the axis) with a ValueError.
    try:
        data = np.concatenate([t.data for t in parts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}; got {[t.shape for t in parts]}") from None
    axis %= data.ndim
    out = _out(data, parts)
    _record("concat", tuple(parts), (out,), (axis, tuple(t.data.shape[axis] for t in parts)))
    return out


def _shifted(a: np.ndarray, k: int) -> np.ndarray:
    n = a.shape[0]
    if not -n < k < n:
        return np.zeros_like(a)
    out = np.empty_like(a)
    if k >= 0:
        out[:k] = 0.0
        out[k:] = a[:n - k]
    else:
        out[:n + k] = a[-k:]
        out[n + k:] = 0.0
    return out


def shift_rows(x: Tensor, k: int) -> Tensor:
    """Move every row of a 2-D tensor ``k`` places down (up for negative
    ``k``): ``out[i] = x[i - k]``, with zero rows where ``i - k`` falls
    outside.  A shift by ``|k| >= rows`` leaves nothing: all zeros.

    On a time-major (T*N, d) matrix a shift by N rows moves every sequence
    one step later without crossing into another sequence.
    """
    if x.ndim != 2:
        raise ShapeError(f"shift_rows: need a 2-D tensor, got {x.shape}")
    out = _out(_shifted(x.data, k), (x,))
    _record("shift_rows", (x,), (out,), (k,))
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    y = _softmax_stable(a.data)
    out = _out(y, (a,))
    _record("softmax", (a,), (out,), (y,))
    return out


def _recording() -> bool:
    return bool(_TAPE_STACK) and _TAPE_STACK[-1] is not None


def _project(X: np.ndarray, W: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Every gate's input projection ``X @ W_g + b_g`` as one (gates, rows,
    d) block: one batched product over the (gates, d_in, d) stack ``W``,
    which is bit for bit each gate's own ``X @ W_g`` (gates side by side in
    one (d_in, gates*d) matrix would not be), then the (gates, d) biases
    ``B``, added after the product as ``affine`` adds a bias."""
    P = np.matmul(X, W)
    P += B[:, None]
    return P


def _bw_project(X: Tensor, W: np.ndarray, dP: np.ndarray, Ws: Sequence[Tensor],
                bs: Sequence[Tensor]) -> list:
    """The gradients of ``X``, ``Ws`` and ``bs`` in ``_project`` from its
    (gates, rows, d) gradient ``dP``, each None when its tensors need none.
    ``X``'s sums the gates' terms last gate first, as the reverse sweep
    summed one ``affine`` node per gate; the weights' are one batched
    product, the biases' one sum over the rows."""
    dX = None
    if X.requires_grad:
        terms = np.matmul(dP, W.mT)
        dX = terms[-1]
        for term in terms[-2::-1]:
            dX += term
    dW = np.matmul(X.data.T, dP) if any(t.requires_grad for t in Ws) else [None] * len(Ws)
    db = dP.sum(axis=1) if any(t.requires_grad for t in bs) else [None] * len(bs)
    return [dX, *dW, *db]


def monet_pass(X: Tensor, Ws: Sequence[Tensor], bs: Sequence[Tensor], left: Tensor | None,
               right: Tensor | None, U_r_left: Tensor, U_z_left: Tensor,
               U_r_right: Tensor, U_z_right: Tensor, U_h: Tensor, n: int = 1,
               layers: int = 0, causal_only: bool = False) -> Tensor:
    """One MoNet expansion pass over (R, d_x) input rows, then ``layers``
    more, as one tape node, the input projections included.

    ``Ws`` and ``bs`` are the reset, mix and candidate gates' (d_x, d) input
    matrices and (d,) biases, whose projections ``pre_* = X @ W + b`` every
    pass reads; ``left`` and ``right`` are the earlier- and later-time
    neighbour states.  Each side has a reset gate ``sigmoid(pre_r + s @
    U_r)`` and a mix gate ``sigmoid(pre_z + s @ U_z)``; the candidate is
    ``relu(pre_h + [right * reset_right | left * reset_left] @ U_h)``; a
    per-coordinate softmax over the logits (1, mix_right, mix_left) blends
    it with the right and left states.  ``None`` is an absent neighbour:
    equal in value to a zero state, it skips that side's matmul, gating and
    blend term.  A further pass's neighbours are the last states shifted
    ``n`` rows down (left) and up (right, none if ``causal_only``), zero
    past either end."""
    return _monet_pass(X, Ws, bs, left, right, U_r_left, U_z_left, U_r_right, U_z_right, U_h,
                       n=n, layers=layers, causal_only=causal_only)[0]


_UNTAPED_ROWS = 512  # per untaped block: glibc gave bigger ones back to the system per call


def _monet_pass(X: Tensor, Ws: Sequence[Tensor], bs: Sequence[Tensor], *sides: Tensor | None,
                n: int = 1, layers: int = 0, causal_only: bool = False) -> tuple[Tensor, tuple]:
    """``monet_pass`` and its last pass's saved arrays.  Only while a tape
    records does the node keep ``n`` and each pass's neighbours, states and
    saved arrays; otherwise no pass's arrays outlive the next pass, and the
    passes run ``_UNTAPED_ROWS`` rows of whole sequences (at least one) at
    a time, each block a part of the one projection of all rows."""
    inputs = (X, *Ws, *bs, *sides)
    W = np.array([t.data for t in Ws])
    pre = _project(X.data, W, np.array([t.data for t in bs]))
    left, right, U_r_left, U_z_left, U_r_right, U_z_right, U_h = (
        None if t is None else t.data for t in sides)
    # Each side's (reset, mix) state matrices as one (2, d, d) stack, once
    # for every pass (``np.array`` copies a few arrays faster than np.stack).
    stacks = [None if U_r is None else np.array([U_r, U_z])
              for U_r, U_z in ((U_r_left, U_z_left), (U_r_right, U_z_right))]
    _, rows, d = pre.shape
    passes = [] if _recording() else None
    with np.errstate(under="ignore"):
        if passes is None and rows > _UNTAPED_ROWS and n > 1 and rows % n == 0:
            size, t_len = max(1, _UNTAPED_ROWS * n // rows), rows // n
            data = np.empty((t_len, n, d))
            for i in range(0, n, size):
                part = pre.reshape(3, t_len, n, d)[:, :, i:i + size].reshape(3, -1, d)
                ends = [None if s is None else s.reshape(t_len, n, d)[:, i:i + size].reshape(-1, d)
                        for s in (left, right)]
                data[:, i:i + size] = _expand(part, *ends, stacks, U_h, min(size, n - i), layers,
                                              causal_only, None)[0].reshape(t_len, -1, d)
            data, saved = data.reshape(rows, d), None
        else:
            data, saved = _expand(pre, left, right, stacks, U_h, n, layers, causal_only, passes)
    out = _out(data, [t for t in inputs if t is not None])
    _record("monet_pass", inputs, (out,), (n, passes, W))
    return out, saved


def _expand(pre, left, right, stacks, U_h, n, layers, causal_only, passes):
    """The passes in numpy over the (3, rows, d) projections: the states
    after the last pass and its saved arrays, appending each pass's
    neighbours, states and saved arrays to ``passes`` unless it is None."""
    for k in range(layers + 1):
        if k:
            # Drop the last pass's arrays before this one allocates.
            left = right = saved = None
            left, right = _shifted(data, n), None if causal_only else _shifted(data, -n)
        data, saved = _monet_kernel(*pre, left, right, *stacks, U_h)
        if passes is not None:
            passes.append((left, right, data, saved))
    return data, saved


def _monet_kernel(pre_r, pre_z, pre_h, left, right, stack_left, stack_right, U_h):
    """One pass in numpy: its states and what its rule reads, the gates
    (reset_left, mix_left, reset_right, mix_right), the gated states (None
    with no neighbour), the ReLU's bit mask, the candidate and the weights
    (candidate, right, left)."""
    rows, d = pre_h.shape
    gated, cand = None, pre_h
    if left is None and right is None:
        # Both mix gates are sigmoid(pre_z); a reset gate with no state to
        # gate is sigmoid(0).
        sig = np.empty((4, rows, d))
        sig[::2] = 0.5
        sig[1::2] = _sigmoid(pre_z)
    else:
        # One block, so one sigmoid covers all four gates, and one batched
        # matmul per present side.
        gates = np.empty((4, rows, d))
        for block, s, stack in ((gates[:2], left, stack_left), (gates[2:], right, stack_right)):
            if s is None:
                block[0] = 0.0
                block[1] = pre_z
            else:
                np.matmul(s, stack, out=block)
                block[0] += pre_r
                block[1] += pre_z
        sig = _sigmoid(gates)
        gated = np.zeros((rows, 2 * d))
        if right is not None:
            np.multiply(right, sig[2], out=gated[:, :d])
        if left is not None:
            np.multiply(left, sig[0], out=gated[:, d:])
        cand = gated @ U_h
        cand += pre_h
    cand, keep = _relu_select(cand)
    # No max shift: a sigmoid is at most 1, so the constant logit is the
    # max, and exp(1 - 1) is exactly its term.  sig[3::-2] is (mix_right,
    # mix_left).
    w = np.empty((3, rows, d))
    np.subtract(sig[3::-2], 1.0, out=w[1:])
    np.exp(w[1:], out=w[1:])
    total = w[1] + 1.0
    total += w[2]
    w[0] = 1.0
    w /= total
    data = w[0] * cand
    if right is not None:
        data += w[1] * right
    if left is not None:
        data += w[2] * left
    return data, (sig, gated, keep, cand, w)


def _gates(s: np.ndarray, pres: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Every gate's pre-activation ``pre + s @ U`` as one (gates, D, N, d)
    block, from one batched matmul, so one sigmoid call can cover several
    gates and directions."""
    block = np.matmul(s, mats)
    block += pres
    return block


# A recurrent cell is two numpy kernels over D directions at once.  Its step
# maps one step's gate input projections as a (gates, D, N, d) block, the
# state (a tuple of (D, N, d) arrays: hidden, and the LSTM's cell) and the
# gates' (gates, D, d, d) stack of state matrices to the next state and what
# its rule reads.  The rule, given the hidden state the step read and the
# transposed matrices, maps the next state's gradients (None where nothing
# reached) to the state's (each only if ``need`` asks) and writes the gates'
# pre-activation gradients to ``da``.

def _vanilla_step(pre, state, mats):
    """``tanh(pre + s @ U)``."""
    a = state[0] @ mats[0]
    np.add(pre[0], a, out=a)
    np.tanh(a, out=a)
    return (a,), (a,)


def _vanilla_rule(gs, s, mats_t, saved, need, da):
    (g,), (y,) = gs, saved
    d = np.multiply(y, y, out=da[0])
    np.subtract(1.0, d, out=d)
    np.multiply(g, d, out=d)
    return (d @ mats_t[0] if need[0] else None,)


def _gru_step(pre, state, mats):
    """The reset gate is ``r = sigmoid(pre_r + s @ U_r)``, the update gate
    ``z = sigmoid(pre_z + s @ U_z)``, the candidate ``h = tanh(pre_h + (r *
    s) @ U_h)``, and the next state ``z * s + (1 - z) * h``."""
    (s,) = state
    rz = _sigmoid(_gates(s, pre[:2], mats[:2]))
    rs = rz[0] * s
    h = rs @ mats[2]
    h += pre[2]
    np.tanh(h, out=h)
    out = rz[1] * s
    omz = 1.0 - rz[1]
    out += omz * h
    return (out,), (rz, rs, h, omz)


def _gru_rule(gs, s, mats_t, saved, need, da):
    (g,) = gs
    Ut_r, Ut_z, Ut_h = mats_t
    rz, rs, h, omz = saved
    dh = np.multiply(omz, g, out=da[2])
    dh *= 1.0 - h * h
    drs = dh @ Ut_h
    # The reset and update gates' pre-activation gradients as one block,
    # through one sigmoid slope y * (1 - y).
    np.multiply(drs, s, out=da[0])
    np.subtract(s, h, out=da[1])
    da[1] *= g
    slope = 1.0 - rz
    slope *= rz
    da[:2] *= slope
    ds = None
    if need[0]:
        ds = da[0] @ Ut_r
        ds += da[1] @ Ut_z
        ds += g * rz[1]
        ds += drs * rz[0]
    return (ds,)


def _lstm_step(pre, state, mats):
    """The gates are ``i, f, o = sigmoid(pre + s @ U)`` and the cell input
    ``g = tanh(pre_g + s @ U_g)``; the next state is ``(o * tanh(c_next),
    c_next)`` with ``c_next = f * c + i * g``."""
    s, c = state
    block = _gates(s, pre, mats)
    ifo = _sigmoid(block[:3])
    g = np.tanh(block[3], out=block[3])
    c_next = ifo[1] * c
    c_next += ifo[0] * g
    tc = np.tanh(c_next)
    return (ifo[2] * tc, c_next), (ifo, g, tc, c)


def _lstm_rule(gs, s, mats_t, saved, need, da):
    gh, gc = gs
    ifo, g, tc, c = saved
    i, f, o = ifo
    # da holds the i, f, o gates' and the cell input's gradients.  h = o *
    # tanh(c_next), c_next = f * c + i * g; an output nothing reached
    # contributes nothing.
    if gh is None:
        da[2] = 0.0
        dc = gc
    else:
        np.multiply(gh, tc, out=da[2])
        dc = gh * o
        dc *= 1.0 - tc * tc
        if gc is not None:
            dc += gc
    np.multiply(dc, g, out=da[0])
    np.multiply(dc, c, out=da[1])
    slope = 1.0 - ifo
    slope *= ifo
    da[:3] *= slope
    np.multiply(dc, i, out=da[3])
    da[3] *= 1.0 - g * g
    ds = None
    if need[0]:
        ds = da[0] @ mats_t[0]
        for dak, Ut in zip(da[1:], mats_t[1:]):
            ds += dak @ Ut
    return ds, (dc * f if need[1] else None)


# Per cell: its step, its rule, its numbers of gates and state arrays, and of
# gates whose state matrix multiplies the hidden state (the GRU candidate's
# multiplies the step's second saved array, r * s).
_CELLS = {"vanilla-rnn": (_vanilla_step, _vanilla_rule, 1, 1, 1),
          "gru": (_gru_step, _gru_rule, 3, 1, 2),
          "lstm": (_lstm_step, _lstm_rule, 4, 2, 4)}


def recurrent(cell: str, X: Tensor | Sequence[Tensor], Ws: Sequence[Tensor],
              bs: Sequence[Tensor], states: Sequence[Tensor], mats: Sequence[Tensor],
              reverse: bool | Sequence[bool] = False) -> Tensor | tuple:
    """A recurrent layer's whole scan over time, its input projections
    included, as one tape node.

    ``cell`` is ``"vanilla-rnn"``, ``"gru"`` or ``"lstm"``.  ``X`` is the
    layer input as a time-major (T*n, d_in) matrix (row t*n + i is sequence
    i at step t), ``Ws`` and ``bs`` its gates' (d_in, d) input matrices and
    (d,) biases, ``states`` the (n, d) initial state (the LSTM's is a hidden
    and a cell state) and ``mats`` the gates' (d, d) state matrices.  The
    steps run first to last, or last to first when ``reverse``.  Returns
    every step's hidden state as a time-major (T*n, d) matrix; the LSTM
    returns it with the cell state after the last step run.  Given one
    ``reverse`` flag per direction, ``Ws``, ``bs``, ``states``, ``mats`` and
    outputs are each direction's in turn, and loop step i runs every
    direction's step i (T-1-i if reversed) in the same numpy calls.  ``X``
    is then one matrix that every direction reads, or a list of one per
    direction.  A loss must then read every direction's outputs alike; the
    backward pass raises ``GradientError`` otherwise."""
    if cell not in _CELLS:
        raise ValueError(f"recurrent: unknown cell {cell!r}; choose from {tuple(_CELLS)}")
    step, _, gates, n_states, _ = _CELLS[cell]
    flags = tuple(reverse) if isinstance(reverse, (tuple, list)) else (reverse,)
    dirs = len(flags)
    Xs = [X] if isinstance(X, Tensor) else list(X)
    # Each product projects every gate of ``per`` directions.
    per = dirs if isinstance(X, Tensor) else 1
    XD, W, B, S, U = ([t.data for t in ts] for ts in (Xs, Ws, bs, states, mats))
    n, d = S[0].shape if S and S[0].ndim == 2 else (0, 0)
    t_len = len(XD[0]) // n if n and XD and XD[0].ndim == 2 else 0
    G = per * gates
    if ((len(XD) * per, len(W), len(B), len(S), len(U))
            != (dirs, dirs * gates, dirs * gates, dirs * n_states, dirs * gates) or not t_len
            or any(x.ndim != 2 or len(x) != t_len * n
                   or {w.shape for w in W[i * G:(i + 1) * G]} != {(x.shape[1], d)}
                   for i, x in enumerate(XD))
            or {b.shape for b in B} != {(d,)} or {a.shape for a in S} != {(n, d)}
            or {a.shape for a in U} != {(d, d)}):
        raise ShapeError(f"recurrent: {cell} needs a (T*n, d_in) input with T >= 1, and "
                         f"{gates} (d_in, d) input matrices, {gates} (d,) biases, {n_states} "
                         f"(n, d) states and {gates} (d, d) state matrices per direction "
                         f"({dirs}), got {[[a.shape for a in A] for A in (XD, W, B, S, U)]}")
    # Each loop step's projections as one contiguous (gates, D, n, d) block,
    # copied from each product's (gates, T*n, d) block, and the state
    # matrices as one contiguous (gates, D, d, d) stack: a strided one would
    # make matmul hand back strided gate blocks.
    P_steps = np.empty((t_len, gates, dirs, n, d))
    stacks = [np.array(W[i * G:(i + 1) * G]) for i in range(len(XD))]
    for i, x in enumerate(XD):
        P = _project(x, stacks[i], np.array(B[i * G:(i + 1) * G])).reshape(per, gates, t_len, n, d)
        for m, k in enumerate(range(i * per, (i + 1) * per)):
            P_steps[:, :, k] = P[m].swapaxes(0, 1)[::-1 if flags[k] else 1]
    U = np.array([U[k * gates + j] for j in range(gates) for k in range(dirs)]).reshape(
        gates, dirs, d, d)
    S = np.array(S).reshape(dirs, n_states, n, d)
    state = tuple(S[:, j] for j in range(n_states))
    # Per loop step: every direction's hidden state after it (after the
    # initial one) and, while a tape records, what its rule reads.
    hs, saved = [state[0]], ([] if _recording() else None)
    with np.errstate(under="ignore"):
        for pre in P_steps:
            state, kept = step(pre, state, U)
            hs.append(state[0])
            if saved is not None:
                saved.append(kept)
    H, inputs = np.array(hs), (*Xs, *Ws, *bs, *states, *mats)
    outs = tuple(_out(a, inputs) for k, rev in enumerate(flags) for a in
                 (H[1:][::-1 if rev else 1, k].reshape(t_len * n, d), *(s[k] for s in state[1:])))
    _record("recurrent", inputs, outs, (cell, flags, stacks, U, H, saved))
    return outs if len(outs) > 1 else outs[0]


# ---------------------------------------------------------------------------
# Backward rules
# ---------------------------------------------------------------------------
# Each rule maps (node, per-output gradients) to per-input gradients.  A None
# output gradient means nothing reached that output.  For an input that does
# not require grad a rule may return None instead; the rules whose gradient
# for it would cost a product or a reduction do.  A rule writes in place
# only into arrays it allocated itself, never into an upstream gradient or
# a saved array.

def _bw_add(node, gs):
    (g,) = gs
    return g, g


def _bw_sub(node, gs):
    (g,) = gs
    return g, (-g if node.inputs[1].requires_grad else None)


def _bw_mul(node, gs):
    (g,) = gs
    a, b = node.inputs
    return (g * b.data if a.requires_grad else None,
            g * a.data if b.requires_grad else None)


def _bw_scale(node, gs):
    (g,) = gs
    (c,) = node.saved
    return (g * c,)


def _bw_affine(node, gs):
    (g,) = gs
    inputs, grads = node.inputs, []
    for X, W in zip(inputs[::2], inputs[1::2]):
        grads += (g @ W.data.T if X.requires_grad else None,
                  X.data.T @ g if W.requires_grad else None)
    if len(inputs) % 2:
        grads.append(g.sum(axis=0) if inputs[-1].requires_grad else None)
    return grads


def _bw_relu(node, gs):
    (g,) = gs
    (keep,) = node.saved
    return (_relu_select(g, keep)[0],)


def _bw_abs(node, gs):
    (g,) = gs
    (sign,) = node.saved
    return (g * sign,)


def _bw_sum(node, gs):
    (g,) = gs
    (shape,) = node.saved
    return (np.full(shape, float(g)),)


def _bw_sum_row_blocks(node, gs):
    (g,) = gs
    (blocks,) = node.saved
    return (np.tile(g, (blocks, 1)),)


def _bw_concat(node, gs):
    (g,) = gs
    axis, sizes = node.saved
    # Offsets summed in Python: np.cumsum's set-up costs more than the split.
    return np.split(g, list(accumulate(sizes[:-1])), axis=axis)


def _bw_shift_rows(node, gs):
    (g,) = gs
    (k,) = node.saved
    return (_shifted(g, -k),)


def _bw_softmax(node, gs):
    (g,) = gs
    (y,) = node.saved
    inner = (g * y).sum(axis=-1, keepdims=True)
    return (y * (g - inner),)


def _bw_monet_pass(node, gs):
    (g,) = gs
    n, passes, W = node.saved
    X, Ws, bs = node.inputs[0], node.inputs[1:4], node.inputs[4:7]
    U_r_left, U_z_left, U_r_right, U_z_right, U_h = (
        None if t is None else t.data for t in node.inputs[9:])
    # The passes from last to first, each projection's and matrix's gradient
    # summed in that order, and a pass's states getting the left neighbours'
    # gradient shifted back plus the right's: a chain of one-pass nodes
    # joined by ``shift_rows`` sums the same terms in the same order.  The
    # projections' gradients go into one (3, rows, d) block.
    dP, seen, acc = np.empty((3, *g.shape)), [False] * 3, [None] * 5
    for p in range(len(passes) - 1, -1, -1):
        left, right, out, (sig, gated, keep, _, w) = passes[p]
        gw = g * w
        dpre_h, _ = _relu_select(gw[0], keep)
        dU_h = dgated = dpre_r = dpre_z = None
        if gated is not None:
            dU_h = gated.T @ dpre_h
            dgated = dpre_h @ U_h.T
        d = g.shape[1]
        states, mats = [], []
        # Per side: its reset gate's row k in sig, its row j in w, and its
        # half of the gated states.
        for s, U_r, U_z, k, j, half in ((left, U_r_left, U_z_left, 0, 2, slice(d, None)),
                                        (right, U_r_right, U_z_right, 2, 1, slice(None, d))):
            # The softmax rule w_j * (dw_j - sum_i w_i * dw_i), with dw_i =
            # g * s_i, so the sum is g * out; an absent state is 0.
            dmix = np.subtract(0.0 if s is None else s, out)
            dmix *= gw[j]
            dmix *= sig[k + 1]
            dmix *= 1.0 - sig[k + 1]
            dpre_z = dmix if dpre_z is None else dpre_z + dmix
            if s is None:
                states.append(None)
                mats += [None, None]
                continue
            dreset = dgated[:, half] * s
            dreset *= sig[k]
            dreset *= 1.0 - sig[k]
            dpre_r = dreset if dpre_r is None else dpre_r + dreset
            ds = dgated[:, half] * sig[k]
            ds += gw[j]
            ds += dreset @ U_r.T
            ds += dmix @ U_z.T
            states.append(ds)
            mats += [s.T @ dreset, s.T @ dmix]
        for i, a in enumerate((dpre_r, dpre_z, dpre_h)):
            if a is None:
                continue
            if seen[i]:
                dP[i] += a
            else:
                dP[i], seen[i] = a, True
        for i, a in enumerate([*mats, dU_h]):
            if a is not None:
                acc[i] = a if acc[i] is None else np.add(acc[i], a, out=acc[i])
        if p:
            g = _shifted(states[0], -n)
            if states[1] is not None:
                g += _shifted(states[1], n)
    if not seen[0]:
        # With no neighbour in any pass nothing reads the reset gate, so
        # its projection gets no gradient.
        dX, dW_z, dW_h, db_z, db_h = _bw_project(X, W[1:], dP[1:], Ws[1:], bs[1:])
        return [dX, None, dW_z, dW_h, None, db_z, db_h, *states, *acc]
    return [*_bw_project(X, W, dP, Ws, bs), *states, *acc]


def _bw_recurrent(node, gs):
    cell, flags, stacks, U, H, saved = node.saved
    _, rule, gates, n_states, s_gates = _CELLS[cell]
    dirs, t_len, inputs = len(flags), len(saved), node.inputs
    reached = [g is not None for g in gs]
    if reached != reached[:n_states] * dirs:
        raise GradientError(f"recurrent: the loss reads the outputs of this node's {dirs} "
                            f"directions unlike each other; record one node per direction")
    # The inputs: each product's X, every direction's Ws, bs, states, mats.
    x_end = len(stacks)
    b_end = x_end + 2 * dirs * gates
    initial = inputs[b_end:b_end + dirs * n_states]
    n, d = initial[0].shape
    # Per loop step, every direction's rows of the hidden states' gradient.
    G = None if gs[0] is None else np.stack(
        [g.reshape(t_len, n, d)[::-1 if rev else 1] for g, rev in zip(gs[::n_states], flags)], 1)
    carry = (None, *(None if gs[j] is None else np.stack(gs[j::n_states])
                     for j in range(1, n_states)))
    need, U_t = [True] * n_states, [u.mT for u in U]
    # Every loop step's pre-activation gradients as one contiguous block.
    da = np.empty((t_len, gates, dirs, n, d))
    # A step's hidden state gets its rows of the first output's gradient
    # plus the carry from the step after it, in that order, and the LSTM's
    # last cell state the second output's.
    for t in range(t_len - 1, -1, -1):
        gh = carry[0]
        if G is not None:
            gh = G[t] if gh is None else G[t] + gh
        if not t:
            need = [any(s.requires_grad for s in initial[j::n_states]) for j in range(n_states)]
        carry = rule((gh, *carry[1:]), H[t], U_t, saved[t], need, da[t])
    dU = [None] * gates * dirs
    if any(t.requires_grad for t in inputs[b_end + dirs * n_states:]):
        # Every step's state matrix gradients from batched products of the
        # hidden state it read, summed from the last step run to the first.
        per_step = np.empty((t_len, gates, dirs, d, d))
        np.matmul(H[:-1, None].mT, da[:, :s_gates], out=per_step[:, :s_gates])
        if s_gates < gates:
            np.matmul(np.array([kept[1] for kept in saved])[:, None].mT, da[:, s_gates:],
                      out=per_step[:, s_gates:])
        for t in range(t_len - 2, -1, -1):
            per_step[-1] += per_step[t]
        dU = list(per_step[-1].swapaxes(0, 1).reshape(dirs * gates, d, d))
    # The projections' gradients in time order, one (gates, T*n, d) block
    # per direction, copied from the loop-order block in one assignment.
    dP = np.empty((dirs, gates, t_len, n, d))
    for k, rev in enumerate(flags):
        dP[k] = da[::-1 if rev else 1, :, k].swapaxes(0, 1)
    dP = dP.reshape(x_end, -1, t_len * n, d)
    per = dP.shape[1]  # gates per product
    Ws, bs = inputs[x_end:x_end + dirs * gates], inputs[x_end + dirs * gates:b_end]
    dX, dW, db = [], [], []
    for i, (X, W) in enumerate(zip(inputs[:x_end], stacks)):
        dx, *dwb = _bw_project(X, W, dP[i], Ws[i * per:(i + 1) * per], bs[i * per:(i + 1) * per])
        dX.append(dx)
        dW += dwb[:per]
        db += dwb[per:]
    return dX + dW + db + [None if c is None else c[k] for k in range(dirs) for c in carry] + dU


BACKWARD_RULES: dict[str, Callable] = {
    "add": _bw_add,
    "sub": _bw_sub,
    "mul": _bw_mul,
    "scale": _bw_scale,
    "affine": _bw_affine,
    "relu": _bw_relu,
    "abs": _bw_abs,
    "sum": _bw_sum,
    "sum_row_blocks": _bw_sum_row_blocks,
    "concat": _bw_concat,
    "shift_rows": _bw_shift_rows,
    "softmax": _bw_softmax,
    "monet_pass": _bw_monet_pass,
    "recurrent": _bw_recurrent,
}


def _sweep(tape: Tape, seeds: dict[Tensor, np.ndarray]) -> dict[Tensor, np.ndarray]:
    """Replay the tape in reverse, returning the accumulated gradient of
    every requires-grad tensor the seeds reach (the seeds included).

    A gradient for an input that does not require grad is never stored,
    whatever its rule returns.  Nothing upstream of such a tensor requires
    grad either, so every stored gradient sums the same terms in the same
    order as a sweep that kept them all."""
    acc = dict(seeds)
    get = acc.get
    for node in reversed(tape.nodes):
        outputs = node.outputs
        if len(outputs) == 1:
            g = get(outputs[0])
            if g is None:
                continue
            gs = (g,)
        else:
            gs = tuple(get(t) for t in outputs)
            if all(g is None for g in gs):
                continue
        in_grads = BACKWARD_RULES[node.op](node, gs)
        for t, g in zip(node.inputs, in_grads):
            if g is None or not t.requires_grad:
                continue
            prev = get(t)
            acc[t] = g if prev is None else prev + g
    return acc


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires_grad tensor that ``loss`` reaches.

    Repeated calls accumulate into existing gradients; clear with
    ``zero_grad`` between steps.
    """
    if loss.size != 1:
        raise GradientError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads = _sweep(tape, {loss: np.ones(loss.shape)})
    for t, g in grads.items():
        if not t.requires_grad:
            continue
        if t._grad is None:
            t._grad = g
            t._grad_shared = True
        else:
            # A new array: the stored buffer may be another tensor's too.
            t._grad = t._grad + g
            t._grad_shared = False


def jacobian(output: Tensor, wrt: Tensor, tape: Tape) -> np.ndarray:
    """Full jacobian d(output)/d(wrt) of shape (output.size, wrt.size).

    Runs one reverse sweep per output coordinate; entries with no path from
    ``wrt`` to ``output`` come out exactly 0.0.  The sweep keeps gradients
    of requires-grad tensors only, so ``wrt`` must require grad.
    """
    if not wrt.requires_grad:
        raise GradientError(f"jacobian: wrt {wrt!r} does not require grad, so the sweep "
                            f"keeps no gradient for it")
    jac = np.zeros((output.size, wrt.size))
    for j in range(output.size):
        seed = np.zeros(output.size)
        seed[j] = 1.0
        g = _sweep(tape, {output: seed.reshape(output.shape)}).get(wrt)
        if g is not None:
            jac[j] = g.ravel()
    return jac


def finite_diff_grad(f: Callable[[Tensor], "Tensor | float"], x: Tensor, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function at ``x``.

    Evaluations run with recording paused, so this stays an independent
    oracle for the tape-based backward pass.
    """
    if h <= 0:
        raise ValueError(f"finite_diff_grad: step must be positive, got {h}")

    def _eval(arr: np.ndarray) -> float:
        with pause_recording():
            y = f(Tensor(arr))
        return y.item() if isinstance(y, Tensor) else float(y)

    base = x.data.ravel()
    grad = np.zeros_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + h
        up = _eval(bumped.reshape(x.shape))
        bumped[i] = base[i] - h
        down = _eval(bumped.reshape(x.shape))
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(x.shape)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max per-coordinate |a-b| / max(1, |a|, |b|), the gradient-check metric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
