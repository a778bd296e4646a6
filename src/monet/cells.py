"""Sequence cells: the MoNet unit and its comparison families.

Every cell is a pure function from parameter tensors and input tensors to
output tensors, recorded on the active tape.  Inputs are per-timestep
matrices with one row per sequence, so the same code path serves both a
single sequence (one row) and a training batch.

The MoNet unit consumes a feature vector plus the states of its two temporal
neighbors from the previous expansion pass and fuses a ReLU candidate with
those neighbors through a per-coordinate three-way softmax.  Stacking the
unit L times (one shared parameter set) grows the temporal context by one
step per side per pass, starting from a context-free base pass, so depth L
sees exactly L steps in each direction.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types

import numpy as np

from .binio import (U32_MAX, BlockReader, FormatError, pack_array, pack_str, pack_u32,
                    write_file)
from .tensor import (_CELLS, ShapeError, Tensor, _monet_pass, affine, concat, monet_pass,
                     recurrent, relu, shift_rows)

FAMILIES = ("vanilla-rnn", "gru", "lstm", "bi-gru", "bi-lstm", "conv1d", "monet")

# Expansion passes add no parameters, so no file size bounds a header's depth.
MAX_LAYERS = 1024

CHECKPOINT_MAGIC = b"MONW"
CHECKPOINT_VERSION = 1


@dataclasses.dataclass
class CellConfig:
    """Shape and wiring of one sequence model."""

    family: str
    d_x: int
    d_s: int
    layers: int = 1
    kernel: int = 3
    causal_only: bool = False
    out_dim: int | None = None

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.d_x < 1 or self.d_s < 1:
            raise ValueError(f"dims must be >= 1, got d_x={self.d_x}, d_s={self.d_s}")
        if not 1 <= self.layers <= MAX_LAYERS:
            raise ValueError(f"layers must be in [1, {MAX_LAYERS}], got {self.layers}")
        if self.kernel < 1 or (self.family == "conv1d" and self.kernel % 2 == 0):
            raise ValueError(f"kernel must be >= 1 (and odd for conv1d), got {self.kernel}")
        if self.causal_only and self.family.startswith("bi-"):
            raise ValueError(f"{self.family} cannot be causal_only")
        if self.out_dim is not None and self.out_dim < 1:
            raise ValueError(f"out_dim must be >= 1, got {self.out_dim}")
        # The checkpoint header stores each of these as a u32.
        for name in ("d_x", "d_s", "kernel", "out_dim"):
            if (getattr(self, name) or 0) > U32_MAX:
                raise ValueError(f"{name} must be <= {U32_MAX}, got {getattr(self, name)}")

    @property
    def output_dim(self) -> int:
        return self.d_s if self.out_dim is None else self.out_dim


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class VanillaRnnParams:
    W: Tensor
    U: Tensor
    b: Tensor


@dataclasses.dataclass
class GruParams:
    W_r: Tensor
    U_r: Tensor
    b_r: Tensor
    W_z: Tensor
    U_z: Tensor
    b_z: Tensor
    W_h: Tensor
    U_h: Tensor
    b_h: Tensor


@dataclasses.dataclass
class LstmParams:
    W_i: Tensor
    U_i: Tensor
    b_i: Tensor
    W_f: Tensor
    U_f: Tensor
    b_f: Tensor
    W_o: Tensor
    U_o: Tensor
    b_o: Tensor
    W_g: Tensor
    U_g: Tensor
    b_g: Tensor


@dataclasses.dataclass
class MoNetParams:
    """One shared parameter set for every expansion pass.

    The input projections for the reset and mix gates are shared between the
    left-neighbor and right-neighbor versions of each gate; only the
    state-to-gate matrices are direction-specific.  The candidate consumes
    both gated neighbors at once, so its state matrix has 2*d_s input rows.
    """

    W_r: Tensor
    U_r_left: Tensor
    U_r_right: Tensor
    b_r: Tensor
    W_z: Tensor
    U_z_left: Tensor
    U_z_right: Tensor
    b_z: Tensor
    W_h: Tensor
    U_h: Tensor
    b_h: Tensor


@dataclasses.dataclass
class ConvStage:
    taps: list[Tensor]
    bias: Tensor


@dataclasses.dataclass
class Conv1dParams:
    stages: list[ConvStage]


@dataclasses.dataclass
class BidirParams:
    fwd: list
    bwd: list
    proj_fwd: Tensor
    proj_bwd: Tensor
    b_out: Tensor


@dataclasses.dataclass
class LinearReadout:
    W: Tensor
    b: Tensor


@dataclasses.dataclass
class MoNetTrace:
    """All intermediates of one MoNet step.  Only ``out`` is on the tape;
    the other fields are constants.

    ``weight_cand + weight_right + weight_left == 1`` per coordinate, each
    weight in (0, 1); ``out`` is their convex combination of the candidate
    and the two neighbor states.
    """

    reset_left: Tensor
    reset_right: Tensor
    mix_left: Tensor
    mix_right: Tensor
    candidate: Tensor
    weight_cand: Tensor
    weight_right: Tensor
    weight_left: Tensor
    out: Tensor


def collect_tensors(obj, out: list[Tensor] | None = None) -> list[Tensor]:
    """All Tensor leaves of a parameter container, in stable field order."""
    if out is None:
        out = []
    if isinstance(obj, Tensor):
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            collect_tensors(item, out)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            collect_tensors(getattr(obj, f.name), out)
    elif obj is not None:
        raise TypeError(f"cannot collect tensors from {type(obj).__name__}")
    return out


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _weight(rng: np.random.Generator, shape, bound: float) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _bias(rng: np.random.Generator, d: int) -> Tensor:
    """A zero bias, or from a load's stand-in generator the file's array."""
    if isinstance(rng, np.random.Generator):
        return Tensor(np.zeros(d), requires_grad=True)
    return _weight(rng, (d,), 0.0)


_CELL_PARAMS = {"vanilla-rnn": VanillaRnnParams, "gru": GruParams, "lstm": LstmParams,
                "monet": MoNetParams}


def init_cell(family: str, d_in: int, d_s: int, rng):
    """Fresh parameters of one recurrent cell or of the MoNet unit, drawn in
    its fields' order (the checkpoint order): a (d_in, d_s) input matrix
    ``W*``, a (d_s, d_s) state matrix ``U*`` and a zero bias ``b*`` per
    gate.  MoNet's candidate matrix ``U_h`` reads both gated neighbours, so
    it has 2*d_s rows."""
    w = 1.0 / math.sqrt(d_s)
    shapes = {"W": (d_in, d_s), "U": (d_s, d_s),
              "U_h": ((2 if family == "monet" else 1) * d_s, d_s)}
    cls = _CELL_PARAMS[family]
    return cls(*(_bias(rng, d_s) if f.name[0] == "b"
                 else _weight(rng, shapes.get(f.name, shapes[f.name[0]]), w)
                 for f in dataclasses.fields(cls)))


def init_monet(d_x: int, d_s: int, rng) -> MoNetParams:
    return init_cell("monet", d_x, d_s, rng)


def init_conv1d(d_x: int, d_s: int, layers: int, kernel: int, rng) -> Conv1dParams:
    w = 1.0 / math.sqrt(d_s)
    stages = []
    d_in = d_x
    for _ in range(layers):
        taps = [_weight(rng, (d_in, d_s), w) for _ in range(kernel)]
        stages.append(ConvStage(taps=taps, bias=_bias(rng, d_s)))
        d_in = d_s
    return Conv1dParams(stages=stages)


def _init_stack(family: str, d_x: int, d_s: int, layers: int, rng) -> list:
    return [init_cell(family, d_x if i == 0 else d_s, d_s, rng) for i in range(layers)]


def init_bidir(family: str, d_x: int, d_s: int, layers: int, rng) -> BidirParams:
    base = family.removeprefix("bi-")
    w = 1.0 / math.sqrt(d_s)
    return BidirParams(
        fwd=_init_stack(base, d_x, d_s, layers, rng),
        bwd=_init_stack(base, d_x, d_s, layers, rng),
        proj_fwd=_weight(rng, (d_s, d_s), w),
        proj_bwd=_weight(rng, (d_s, d_s), w),
        b_out=_bias(rng, d_s),
    )


# ---------------------------------------------------------------------------
# Single-step cells
# ---------------------------------------------------------------------------

def vanilla_step(x: Tensor, s: Tensor, p: VanillaRnnParams) -> Tensor:
    return _step("vanilla-rnn", x, [s], p)


def gru_step(x: Tensor, s: Tensor, p: GruParams) -> Tensor:
    """One gated-recurrent step: reset and update gates, tanh candidate,
    convex blend of previous state and candidate."""
    return _step("gru", x, [s], p)


def lstm_step(x: Tensor, state: tuple[Tensor, Tensor], p: LstmParams) -> tuple[Tensor, Tensor]:
    """Standard LSTM step; state is the (hidden, cell) pair."""
    return _step("lstm", x, state, p)


def _step(family: str, x: Tensor, states: list[Tensor] | tuple[Tensor, Tensor], p):
    """``recurrent`` over the one step of (N, d_in) input ``x``."""
    if x.shape[:1] != states[0].shape[:1]:
        raise ShapeError(f"{family} step: input and state rows differ, got {x.shape} "
                         f"and {states[0].shape}")
    return recurrent(family, x, _fields(p, "W"), _fields(p, "b"), states, _fields(p, "U"))


def _fields(p, prefix: str) -> list[Tensor]:
    """A cell's tensors whose field names start with ``prefix``, in field
    order: its gates' input matrices ("W"), state matrices ("U") or biases
    ("b")."""
    return [getattr(p, name) for name in _field_names(type(p), prefix)]


@functools.cache
def _field_names(cls, prefix: str) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls) if f.name.startswith(prefix))


def monet_unit(x: Tensor, s_left: Tensor, s_right: Tensor, p: MoNetParams) -> MoNetTrace:
    """One MoNet step on (rows, d_x) input with (rows, d_s) neighbor states.

    ``s_left`` is the earlier-time neighbor, ``s_right`` the later-time one;
    pass zero states for absent neighbors.  The step is one ``monet_pass``.
    """
    if x.ndim != 2 or s_left.ndim != 2 or s_right.ndim != 2:
        raise ShapeError(f"monet_unit: need 2-D inputs, got {x.shape}, {s_left.shape}, {s_right.shape}")
    if s_left.shape != s_right.shape or x.shape[0] != s_left.shape[0]:
        raise ShapeError(f"monet_unit: row counts and state dims must agree, "
                         f"got {x.shape}, {s_left.shape}, {s_right.shape}")
    out, (sig, _, _, cand, w) = _monet_pass(x, _fields(p, "W"), _fields(p, "b"), s_left,
                                            s_right, p.U_r_left, p.U_z_left, p.U_r_right,
                                            p.U_z_right, p.U_h)
    return MoNetTrace(*(Tensor(a) for a in (sig[0], sig[2], sig[1], sig[3], cand, *w)), out)


# ---------------------------------------------------------------------------
# Sequence runners
# ---------------------------------------------------------------------------
# Every runner works on a time-major (T*N, d) matrix: row t*N + i holds
# sequence i at step t.  The expansion and convolution runners read only the
# previous pass's (or stage's) outputs, so they run each pass over every
# position at once, and a shift by N rows is a shift by one time step that
# never crosses sequences.  ``_scan_stacks`` runs each recurrent layer, its
# input projections included, as one ``recurrent`` node.  A model's input
# is checked once, in ``Hallucinator._rows``.

def _time_major(xs: list[Tensor]) -> tuple[Tensor, int]:
    """Per-timestep (N, d) inputs as one (T*N, d) matrix, plus N."""
    if not xs or any(x.shape != xs[0].shape for x in xs):
        raise ShapeError(f"need at least one step, all of one shape, got {[x.shape for x in xs]}")
    return concat(xs), xs[0].shape[0]


def _monet_rows(X: Tensor, n: int, p: MoNetParams, layers: int,
                causal_only: bool) -> Tensor:
    """Expand the shared unit over a time-major (T*n, d_x) matrix: one
    context-free base pass, then ``layers`` neighbour passes, so position t
    at the end depends on inputs t-layers..t+layers exactly (t-layers..t
    when causal_only).  The neighbours of every position in a pass are the
    previous states shifted by one step, zero past either end.  All passes
    are one ``monet_pass`` node."""
    return monet_pass(X, _fields(p, "W"), _fields(p, "b"), None, None, p.U_r_left, p.U_z_left,
                      p.U_r_right, p.U_z_right, p.U_h, n=n, layers=layers,
                      causal_only=causal_only)


def _scan_stacks(X: Tensor, n: int, stacks: list[list], family: str,
                 flags: tuple[bool, ...]) -> list[Tensor]:
    """Stack k of causal cells over time-major ``X``, last step first if
    ``flags[k]``, from zero states: per depth level one ``recurrent`` node,
    which projects the level's input for every stack at once.  Returns the
    top layers' states."""
    n_states = _CELLS[family][3]
    for layer in zip(*stacks):
        Ws, bs, Us = ([t for p in layer for t in _fields(p, key)] for key in "WbU")
        zero = Tensor(np.zeros((n, len(Us[0].data))))
        outs = recurrent(family, X, Ws, bs, [zero] * (n_states * len(flags)), Us, flags)
        X = list(outs[::n_states]) if isinstance(outs, tuple) else [outs]
    return X


def _conv1d_rows(X: Tensor, n: int, p: Conv1dParams, causal_only: bool) -> Tensor:
    """Stacked temporal convolutions over a time-major (T*n, d) matrix: tap
    j of a stage reads the input shifted by (pad - j) steps, so positions
    outside the sequence read zeros.  A stage is its taps' ``shift_rows``
    nodes, then one ``affine`` node."""
    for idx, stage in enumerate(p.stages):
        k = len(stage.taps)
        pad = k - 1 if causal_only else (k - 1) // 2
        X = affine([(shift_rows(X, (pad - j) * n), tap) for j, tap in enumerate(stage.taps)],
                   stage.bias)
        if idx + 1 < len(p.stages):
            X = relu(X)
    return X


def monet_forward(X: Tensor, p: MoNetParams, layers: int, causal_only: bool = False) -> Tensor:
    """Single-sequence wrapper: (T, d_x) in, (T, d_s) out."""
    return _monet_rows(X, 1, p, layers, causal_only)


# ---------------------------------------------------------------------------
# Model wrapper
# ---------------------------------------------------------------------------

class Hallucinator:
    """A configured sequence-to-sequence model: appearance features in,
    hallucinated motion features out.

    Wraps the family-specific parameters plus an optional linear readout
    (used when the cell width differs from the target feature dim, e.g. for
    parameter-matched baselines).
    """

    def __init__(self, config: CellConfig, params, readout: LinearReadout | None = None):
        config.validate()
        if readout is None and config.out_dim is not None and config.out_dim != config.d_s:
            raise ValueError("config.out_dim differs from d_s but no readout given")
        self.config = config
        self.params = params
        self.readout = readout

    @classmethod
    def build(cls, config: CellConfig, rng: np.random.Generator) -> "Hallucinator":
        """Fresh parameters for ``config``, drawn in checkpoint order."""
        config.validate()  # before the dispatch, whose last branch is monet
        c = config
        if c.family in _CELLS:
            params = _init_stack(c.family, c.d_x, c.d_s, c.layers, rng)
        elif c.family in ("bi-gru", "bi-lstm"):
            params = init_bidir(c.family, c.d_x, c.d_s, c.layers, rng)
        elif c.family == "conv1d":
            params = init_conv1d(c.d_x, c.d_s, c.layers, c.kernel, rng)
        else:
            params = init_monet(c.d_x, c.d_s, rng)
        readout = None
        if c.out_dim is not None and c.out_dim != c.d_s:
            w = 1.0 / math.sqrt(c.d_s)
            readout = LinearReadout(W=_weight(rng, (c.d_s, c.out_dim), w), b=_bias(rng, c.out_dim))
        return cls(c, params, readout)

    def _rows(self, X: Tensor, n: int) -> Tensor:
        """A time-major (T*n, d_x) matrix in, (T*n, output_dim) out: the
        one entry of every family, and the one check of its input.  A
        bidirectional model sums its two stacks' projected top states."""
        c, p = self.config, self.params
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] != c.d_x:
            raise ShapeError(f"model input: need (rows, d_x={c.d_x}) with rows >= 1, "
                             f"got {X.shape}")
        if c.family == "monet":
            out = _monet_rows(X, n, p, c.layers, c.causal_only)
        elif c.family == "conv1d":
            out = _conv1d_rows(X, n, p, c.causal_only)
        elif c.family in _CELLS:
            out = _scan_stacks(X, n, [p], c.family, (False,))[0]
        else:
            fwd, bwd = _scan_stacks(X, n, [p.fwd, p.bwd], c.family.removeprefix("bi-"),
                                    (False, True))
            out = affine(((fwd, p.proj_fwd), (bwd, p.proj_bwd)), p.b_out)
        if self.readout is not None:
            out = affine(((out, self.readout.W),), self.readout.b)
        return out

    def forward_steps(self, xs: list[Tensor]) -> Tensor:
        """Per-timestep (N, d_x) inputs in, one time-major (T*N, output_dim)
        matrix out: row t*N + i holds sequence i at step t."""
        return self._rows(*_time_major(xs))

    def forward(self, X: Tensor) -> Tensor:
        """(T, d_x) sequence in, (T, output_dim) sequence out.  One sequence
        is already the time-major matrix of a batch of one."""
        return self._rows(X, 1)

    def tensors(self) -> list[Tensor]:
        out = collect_tensors(self.params)
        if self.readout is not None:
            collect_tensors(self.readout, out)
        return out

    # -- checkpoint round trip ---------------------------------------------

    def save(self, path: str) -> bytes:
        """Write the checkpoint in one call; returns its bytes."""
        c = self.config
        pieces = [CHECKPOINT_MAGIC, pack_u32(CHECKPOINT_VERSION), pack_str(c.family),
                  pack_u32(c.d_x, c.d_s, c.layers, c.kernel, 1 if c.causal_only else 0,
                           0 if c.out_dim is None else c.out_dim)]
        for t in self.tensors():
            pieces += pack_array(t.data, "<f8")
        return write_file(path, pieces)

    @classmethod
    def load(cls, path: str, sha256: str | None = None) -> "Hallucinator":
        """Read a checkpoint; given ``sha256``, its bytes must have that
        hex digest (``binio.DigestError``) before any field is parsed."""
        with open(path, "rb", buffering=0) as f:
            r = BlockReader(f, sha256)
            r.magic(CHECKPOINT_MAGIC)
            r.version(CHECKPOINT_VERSION)
            family = r.string("family tag")
            d_x, d_s, layers, kernel, causal, out_dim = (
                r.u32(name) for name in ("d_x", "d_s", "layers", "kernel", "causal flag", "out_dim"))
            config = CellConfig(family=family, d_x=d_x, d_s=d_s, layers=layers,
                                kernel=kernel, causal_only=bool(causal),
                                out_dim=None if out_dim == 0 else out_dim)
            try:
                config.validate()
            except ValueError as e:
                raise FormatError(f"checkpoint header: {e}") from None
            r.require(8 * count_params(config), "the weight shapes the header declares")

            def uniform(low: float, high: float, size: tuple[int, ...]) -> np.ndarray:
                arr = r.array("<f8", "weight array")
                if arr.shape != size:
                    raise FormatError(f"weight shape mismatch: file has {arr.shape}, "
                                      f"config needs {size}")
                if not np.isfinite(arr).all():
                    raise FormatError("non-finite weight array")
                return arr

            # The builders ask for each weight and bias in the order save wrote.
            model = cls.build(config, types.SimpleNamespace(uniform=uniform))
            if r.left():
                raise FormatError("trailing bytes after final weight array")
        return model


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------

def count_params(config: CellConfig) -> int:
    """Exact learnable-scalar count.  A step uses every weight in one
    multiply-add and every bias in one add, so this is the per-step
    multiply-add total (the build path is independent; tests reconcile the
    two)."""
    return flops_per_step(config).total_madds


@dataclasses.dataclass
class FlopCount:
    """Exact multiply-add accounting for one unit of work.

    ``madds_input``/``madds_state`` count matrix-multiply multiply-adds
    against input and state/tap matrices; ``adds_bias`` counts bias adds;
    ``activations`` counts scalar nonlinearity evaluations (softmax counted
    as one exp per stacked entry); ``elementwise`` counts the remaining
    scalar multiplies/adds (gate sums, gated-state products, fusion blend).
    """

    madds_input: int
    madds_state: int
    adds_bias: int
    activations: int
    elementwise: int

    @property
    def total_madds(self) -> int:
        return self.madds_input + self.madds_state + self.adds_bias

    def scaled(self, k: int) -> "FlopCount":
        return FlopCount(k * self.madds_input, k * self.madds_state,
                         k * self.adds_bias, k * self.activations,
                         k * self.elementwise)

    def plus(self, other: "FlopCount") -> "FlopCount":
        return FlopCount(self.madds_input + other.madds_input,
                         self.madds_state + other.madds_state,
                         self.adds_bias + other.adds_bias,
                         self.activations + other.activations,
                         self.elementwise + other.elementwise)


def _flops_directional(family: str, d_in: int, d_s: int) -> FlopCount:
    gates = _CELLS[family][2]
    acts = {"vanilla-rnn": d_s, "gru": 3 * d_s, "lstm": 5 * d_s}[family]
    elem = {"vanilla-rnn": d_s, "gru": 7 * d_s, "lstm": 8 * d_s}[family]
    return FlopCount(madds_input=gates * d_in * d_s, madds_state=gates * d_s * d_s,
                     adds_bias=gates * d_s, activations=acts, elementwise=elem)


def _flops_readout(c: CellConfig) -> FlopCount:
    """The linear readout's per-step cost, counted as the bi-RNN output
    projection is; none without a readout."""
    if c.output_dim == c.d_s:
        return FlopCount(0, 0, 0, 0, 0)
    return FlopCount(0, c.d_s * c.out_dim, c.out_dim, 0, 0)


def flops_per_step(config: CellConfig) -> FlopCount:
    """Cost of advancing the whole configured model by one time step, its
    linear readout included.

    For the expansion-based unit this is the cost of one unit application
    plus the once-per-step input projections; ``flops_per_sequence`` is the
    authority on how projections amortize across passes.
    """
    config.validate()
    return _flops_cells(config).plus(_flops_readout(config))


def _flops_stack(family: str, c: CellConfig) -> FlopCount:
    """A stack of ``c.layers`` cells: the first reads d_x, the rest d_s."""
    return _flops_directional(family, c.d_x, c.d_s).plus(
        _flops_directional(family, c.d_s, c.d_s).scaled(c.layers - 1))


def _monet_terms(c: CellConfig) -> tuple[FlopCount, FlopCount, FlopCount]:
    """MoNet's per-step cost terms: the shared input projections for the
    three gates; the context-free base pass; one expansion unit (four
    directional state matrices plus the double-width candidate matrix, four
    sigmoid gates, the ReLU candidate, a three-way softmax per coordinate)."""
    proj = FlopCount(3 * c.d_x * c.d_s, 0, 3 * c.d_s, 0, 0)
    base_pass = FlopCount(0, 0, 0, 5 * c.d_s, c.d_s)
    unit = FlopCount(0, 6 * c.d_s * c.d_s, 0, 8 * c.d_s, 11 * c.d_s)
    return proj, base_pass, unit


def _flops_cells(c: CellConfig) -> FlopCount:
    if c.family in _CELLS:
        return _flops_stack(c.family, c)
    if c.family in ("bi-gru", "bi-lstm"):
        merge = FlopCount(madds_input=0, madds_state=2 * c.d_s * c.d_s,
                          adds_bias=c.d_s, activations=0, elementwise=c.d_s)
        return _flops_stack(c.family.removeprefix("bi-"), c).scaled(2).plus(merge)
    if c.family == "conv1d":
        first = FlopCount(c.kernel * c.d_x * c.d_s, 0, c.d_s, 0, 0)
        rest = FlopCount(0, c.kernel * c.d_s * c.d_s, c.d_s, c.d_s, 0)
        return first.plus(rest.scaled(c.layers - 1))
    proj, _, unit = _monet_terms(c)
    return proj.plus(unit)


def flops_per_sequence(config: CellConfig, seq_len: int) -> FlopCount:
    """Exact cost over a length-``seq_len`` sequence.  The expansion model
    computes input projections once per step and reuses them in every pass,
    so only the state-side work scales with depth."""
    config.validate()
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    if config.family != "monet":
        return flops_per_step(config).scaled(seq_len)
    proj, base_pass, unit = _monet_terms(config)
    per_step = proj.plus(base_pass).plus(unit.scaled(config.layers)).plus(_flops_readout(config))
    return per_step.scaled(seq_len)


@dataclasses.dataclass
class MatchResult:
    config: CellConfig
    count: int
    target: int
    matched: bool

    @property
    def gap(self) -> float:
        return abs(self.count - self.target) / self.target


def match_params(reference: CellConfig, family: str, layers: int = 1,
                 kernel: int = 3, causal_only: bool = False,
                 tolerance: float = 0.05, max_width: int = 4096) -> MatchResult:
    """Find a width for ``family`` whose parameter count is within
    ``tolerance`` of the reference model's, keeping the output dim equal.

    A linear readout is attached (and counted) whenever the matched width
    differs from the reference output dim.  If no width lands inside the
    tolerance the closest one is returned with ``matched`` False.
    """
    reference.validate()
    target = count_params(reference)
    out_dim = reference.output_dim
    best: MatchResult | None = None
    # Counts increase strictly with width, so the optimum is the first width
    # whose count reaches the target or the one just before it.
    for d_s in range(1, max_width + 1):
        cand = CellConfig(family=family, d_x=reference.d_x, d_s=d_s, layers=layers,
                          kernel=kernel, causal_only=causal_only,
                          out_dim=None if d_s == out_dim else out_dim)
        n = count_params(cand)
        if best is None or abs(n - target) < abs(best.count - target):
            best = MatchResult(config=cand, count=n, target=target,
                               matched=abs(n - target) <= tolerance * target)
        if n >= target:
            break
    assert best is not None
    return best
