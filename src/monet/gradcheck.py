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
# central-difference step.
D_X, D_S, T_LEN, KERNEL, H = 5, 4, 6, 3, 1e-6


@dataclasses.dataclass
class GradCheckResult:
    family: str
    layers: int
    instances: int
    max_rel_err: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= 1e-5


def _fold(worst: float, err: float) -> float:
    """The larger error, where NaN is larger than anything: ``max`` would
    drop a NaN that came second and so pass a rule that returns NaN."""
    return err if err > worst or math.isnan(err) else worst


def _loss_value(model: Hallucinator, xs: list[Tensor], targets: np.ndarray) -> float:
    # Summed per step, then over the steps in order.
    diff = model.forward_steps(xs).data.reshape(targets.shape) - targets
    diff *= diff
    return sum(diff.sum(axis=(1, 2)).tolist())


def check_instance(model: Hallucinator, rng: np.random.Generator, t_len: int) -> float:
    """Max relative error across all parameter and input gradients for one
    random input/target draw."""
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
        worst = _fold(worst, relative_error(computed, numeric))
    return worst


def check_family(family: str, layers: int, instances: int = 10,
                 seed: int = 20240) -> GradCheckResult:
    config = CellConfig(family=family, d_x=D_X, d_s=D_S, layers=layers, kernel=KERNEL)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(instances):
        model = Hallucinator.build(config, rng)
        worst = _fold(worst, check_instance(model, rng, T_LEN))
    return GradCheckResult(family=family, layers=layers, instances=instances,
                           max_rel_err=worst, seconds=time.perf_counter() - start)
