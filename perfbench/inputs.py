"""Seeded workload inputs.

Every value a run feeds the toolkit (task specs with their generator seeds,
model-init seeds, batch-order seeds, the per-request shard plan) derives from
the workload name and the ``--seed`` argument through ``make_plan``.  The
toolkit itself never sees the command-line seed, so one seed always yields
byte-identical inputs and another seed yields different ones.

This module imports only numpy: it runs before the toolkit is imported.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("train-expansion", "train-recurrent", "gradcheck-suite", "infer-two-stream")

# The acceptance task every ROADMAP epoch time is quoted at.
ACCEPTANCE_TASK = {"n_classes": 8, "seq_len": 20, "d_x": 16, "d_s": 16,
                   "n_train": 2000, "n_val": 400, "noise_sigma": 0.05}

# The acceptance gradient-check list (tests/test_acceptance.py).
GRADCHECK_SUITE = (("vanilla-rnn", 1), ("gru", 1), ("lstm", 1), ("bi-gru", 1),
                   ("bi-lstm", 1), ("conv1d", 1), ("monet", 1), ("monet", 3),
                   ("monet", 5))

# One inference cycle is 32 requests, each a (sequences, length) pair: 1 to
# 64 sequences of length 8 to 40.  The pairs are fixed and the seed draws
# their order and every feature value, so each seed measures the same mix of
# work and a run that stops on a cycle boundary stays comparable across
# seeds (a seeded pairing would move the latency tail from seed to seed).
SHARD_SHAPES = tuple((int(round(1 + i * 63 / 31)), (8, 12, 16, 20, 24, 28, 32, 40)[i % 8])
                     for i in range(32))

# Sequences the inference workload fits its two stream classifiers on.
CLASSIFIER_FIT_SEQS = 512


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def make_plan(workload: str, seed: int) -> dict:
    """All inputs of one run, as plain JSON-ready values."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload.startswith("train-"):
        return {"task": dict(ACCEPTANCE_TASK, seed=_draw(rng)),
                "model_seed": _draw(rng), "order_seed": _draw(rng)}
    if workload == "gradcheck-suite":
        return {"suite": [list(entry) for entry in GRADCHECK_SUITE],
                "suite_seed": _draw(rng)}
    task = dict(ACCEPTANCE_TASK, n_train=CLASSIFIER_FIT_SEQS, n_val=0, seed=_draw(rng))
    order = rng.permutation(len(SHARD_SHAPES))
    return {"task": task, "model_seed": _draw(rng),
            "shards": [{"n": SHARD_SHAPES[j][0], "seq_len": SHARD_SHAPES[j][1]} for j in order]}
