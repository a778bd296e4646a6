"""Finite-difference verification of the tape's gradients, per cell family.

For each random instance we build a model, run a squared-error loss against
a fixed random target, and compare every parameter and input gradient from
the reverse sweep against central differences.  The two routes share only
the forward computation, so agreement is evidence the backward rules are
right, not that the same code was run twice.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .cells import CellConfig, Hallucinator
from .tensor import Tape, Tensor, finite_diff_grad, mul, relative_error, sub, tsum


# Each instance's model widths, sequence length, conv1d kernel, and the
# central-difference step; the largest relative error a gradient may show;
# and how many times one instance is redrawn when its draw straddles a kink.
D_X, D_S, T_LEN, KERNEL, H = 5, 4, 6, 3, 1e-6
TOLERANCE = 1e-5
MAX_REDRAWS = 3


@dataclasses.dataclass
class GradCheckResult:
    family: str
    layers: int
    instances: int
    max_rel_err: float
    seconds: float
    redraws: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= TOLERANCE


def _fold(worst: float, err: float) -> float:
    """The larger error, where NaN is larger than anything: ``max`` would
    drop a NaN that came second and so pass a rule that returns NaN."""
    return err if err > worst or math.isnan(err) else worst


def _loss_value(model: Hallucinator, xs: list[Tensor], targets: np.ndarray) -> float:
    # Summed per step, then over the steps in order.
    diff = model.forward_steps(xs).data.reshape(targets.shape) - targets
    diff *= diff
    return sum(diff.sum(axis=(1, 2)).tolist())


def check_instance(model: Hallucinator, rng: np.random.Generator,
                   t_len: int) -> tuple[float, bool]:
    """Max relative error across all parameter and input gradients for one
    random input/target draw, and whether the draw straddles a kink.

    A leaf that fails at step ``H`` is differenced again at ``H / 100``.
    Where the two estimates disagree by more than the tolerance, a ReLU
    kink lies within ``H`` of a pre-activation, so central differences at
    ``H`` average two slopes; the check stops there and reports the kink.
    Where they agree, the gradient itself is wrong and the error stands."""
    c = model.config
    xs = [Tensor(rng.normal(size=(1, c.d_x)), requires_grad=True) for _ in range(t_len)]
    targets = np.stack([rng.normal(size=(1, c.output_dim)) for _ in range(t_len)])
    with Tape() as tape:
        diff = sub(model.forward_steps(xs), Tensor(targets.reshape(t_len, c.output_dim)))
        loss = tsum(mul(diff, diff))
    tape.backward(loss)
    worst = 0.0
    for leaf in model.tensors() + xs:
        def f(candidate: Tensor, _leaf=leaf) -> float:
            original = _leaf.data
            _leaf.data = candidate.data
            try:
                return _loss_value(model, xs, targets)
            finally:
                _leaf.data = original
        numeric = finite_diff_grad(f, leaf, h=H)
        computed = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        err = relative_error(computed, numeric)
        if not err <= TOLERANCE and relative_error(
                numeric, finite_diff_grad(f, leaf, h=H / 100)) > TOLERANCE:
            return err, True
        worst = _fold(worst, err)
    return worst, False


def check_family(family: str, layers: int, instances: int = 10,
                 seed: int = 20240) -> GradCheckResult:
    """``instances`` draws checked, each redrawn from the same generator
    while it straddles a kink, at most ``MAX_REDRAWS`` times; a draw still
    straddling one after that counts with its error at ``H``."""
    config = CellConfig(family=family, d_x=D_X, d_s=D_S, layers=layers, kernel=KERNEL)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst, redraws = 0.0, 0
    for _ in range(instances):
        for attempt in range(MAX_REDRAWS + 1):
            model = Hallucinator.build(config, rng)
            err, kinked = check_instance(model, rng, T_LEN)
            if not kinked or attempt == MAX_REDRAWS:
                break
            redraws += 1
        worst = _fold(worst, err)
    return GradCheckResult(family=family, layers=layers, instances=instances,
                           max_rel_err=worst, seconds=time.perf_counter() - start,
                           redraws=redraws)
