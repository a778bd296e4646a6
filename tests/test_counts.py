"""Exact work counts at the benchmark's shapes.

These are counted, not timed, so they hold on any machine.  A change that
moves one of them changes how much work a training step, a gradient-check
pass or an inference request does; it updates the number here and says why.
"""

import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

from monet import gradcheck, tensor
from monet.cells import FAMILIES, CellConfig, Hallucinator, match_params
from monet.classify import fit_linear_classifier, pooled_matrix
from monet.cli import main
from monet.data import SyntheticTaskSpec, generate_synthetic
from monet.tensor import BACKWARD_RULES, Tape
from monet.training import LossConfig, TrainConfig, train

# The acceptance task's shapes; one batch of N = 32 sequences of T = 20 steps.
TASK = dict(n_classes=8, seq_len=20, d_x=16, d_s=16, n_train=32, n_val=4,
            noise_sigma=0.05, seed=0)
MONET_L3 = CellConfig(family="monet", d_x=16, d_s=16, layers=3)


def _count_calls(monkeypatch, owner, attr):
    calls = []
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def _nodes_of_one_training_step(monkeypatch, config, alpha):
    tr, va = generate_synthetic(SyntheticTaskSpec(**TASK))
    clf = None
    if alpha > 0:
        clf = fit_linear_classifier(pooled_matrix([r.flow_target for r in tr]),
                                    np.array([r.label for r in tr]), TASK["n_classes"])
    backward = _count_calls(monkeypatch, Tape, "backward")
    train(Hallucinator.build(config, np.random.default_rng(0)), tr, va,
          TrainConfig(max_epochs=1, batch_size=32), LossConfig(alpha=alpha, classifier=clf))
    return [len(tape.nodes) for tape, _ in backward]


@pytest.mark.parametrize("matched_gru,alpha,nodes", [(False, 10.0, 15), (True, 0.0, 7)])
def test_tape_nodes_of_one_training_step(monkeypatch, matched_gru, alpha, nodes):
    """monet L3 with the teacher term, and the parameter-matched GRU
    without it.  The input projections are inside the ``monet_pass`` and
    ``recurrent`` nodes; the GRU's readout is one ``affine`` node."""
    config = match_params(MONET_L3, "gru").config if matched_gru else MONET_L3
    assert _nodes_of_one_training_step(monkeypatch, config, alpha) == [nodes]


@pytest.mark.parametrize("family,layers,nodes", [("bi-gru", 1, 7), ("bi-gru", 2, 8),
                                                 ("bi-lstm", 1, 7), ("bi-lstm", 2, 8)])
def test_tape_nodes_of_one_bidirectional_training_step(monkeypatch, family, layers, nodes):
    """bi-gru and bi-lstm without the teacher term: per layer one
    two-direction ``recurrent`` node, which projects the layer's input for
    every gate of both directions, then one ``affine`` node that sums the
    two output projections and adds the bias."""
    config = CellConfig(family=family, d_x=16, d_s=16, layers=layers)
    assert _nodes_of_one_training_step(monkeypatch, config, 0.0) == [nodes]


def test_tape_nodes_of_one_causal_monet_training_step(monkeypatch):
    """All expansion passes are one node whether or not a pass reads the
    later neighbour, so causal monet L3 records as many nodes as monet L3."""
    config = dataclasses.replace(MONET_L3, causal_only=True)
    assert _nodes_of_one_training_step(monkeypatch, config, 10.0) == [15]


def test_every_backward_rule_has_a_caller(monkeypatch):
    """One training step of every family, with two layers (so conv1d
    reaches its ReLU) and the teacher term, records every op that has a
    backward rule: no op is kept for tests alone."""
    tr, va = generate_synthetic(SyntheticTaskSpec(**TASK))
    clf = fit_linear_classifier(pooled_matrix([r.flow_target for r in tr]),
                                np.array([r.label for r in tr]), TASK["n_classes"])
    backward = _count_calls(monkeypatch, Tape, "backward")
    for family in FAMILIES:
        model = Hallucinator.build(CellConfig(family=family, d_x=16, d_s=16, layers=2),
                                   np.random.default_rng(0))
        train(model, tr, va, TrainConfig(max_epochs=1, batch_size=32),
              LossConfig(alpha=10.0, classifier=clf))
    assert len(backward) == len(FAMILIES)
    assert {node.op for tape, _ in backward for node in tape.nodes} == set(BACKWARD_RULES)


def test_readme_names_every_backward_rule():
    """The README's ``monet.tensor`` row gives the number of ops and names
    each one that has a backward rule."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [row] = [line for line in readme.splitlines() if line.startswith("| `monet.tensor` |")]
    assert re.search(r"\bthe (\d+) ops\b", row).group(1) == str(len(BACKWARD_RULES))
    assert [op for op in BACKWARD_RULES if not re.search(rf"\b{op}\b", row)] == []


def test_forward_calls_of_one_gradient_check_suite_pass(monkeypatch):
    """One recorded forward per instance plus two per perturbed parameter
    or input scalar, over the acceptance list with one instance each."""
    suite = [("vanilla-rnn", 1), ("gru", 1), ("lstm", 1), ("bi-gru", 1), ("bi-lstm", 1),
             ("conv1d", 1), ("monet", 1), ("monet", 3), ("monet", 5)]
    forwards = _count_calls(monkeypatch, Hallucinator, "forward_steps")
    for family, layers in suite:
        assert gradcheck.check_family(family, layers, instances=1).passed
    assert len(forwards) == 3589


def _forward_rows_of_one_inference_request(tmp_path, monkeypatch, capsys, task):
    """The rows of every forward call, and of every monet pass, that
    ``hallucinate`` then ``eval --teacher --appearance --csv`` make on
    ``task``'s validation file with a monet L3 model."""
    run = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task": task, "cell": {"family": "monet", "d_x": 16,
                                                          "d_s": 16, "layers": 3},
                                  "out_dir": str(run)}))
    assert main(["train", "--config", str(config), "--epochs", "0"]) == 0
    forwards = _count_calls(monkeypatch, Hallucinator, "forward_steps")
    passes = _count_calls(monkeypatch, tensor, "_monet_kernel")
    assert main(["hallucinate", "--checkpoint", str(run / "checkpoint.monw"),
                 "--data", str(run / "val.mofe"), "--out", str(tmp_path / "h.mofe")]) == 0
    assert main(["eval", "--checkpoint", str(run / "checkpoint.monw"),
                 "--data", str(run / "val.mofe"), "--teacher", str(run / "teacher.json"),
                 "--appearance", str(run / "appearance.json"),
                 "--csv", str(tmp_path / "fused.csv")]) == 0
    capsys.readouterr()
    return ([len(xs) * xs[0].shape[0] for _, xs in forwards],
            [len(args[2]) for args in passes])


def test_forward_calls_of_one_inference_request(tmp_path, monkeypatch, capsys):
    """``hallucinate`` then ``eval --teacher --appearance --csv`` run the
    model once each on the 4 records of T = 20, each call 4 passes of all
    80 rows."""
    forwards, passes = _forward_rows_of_one_inference_request(tmp_path, monkeypatch, capsys, TASK)
    assert forwards == [80, 80]
    assert passes == [80] * 8


def test_forward_calls_of_one_largest_benchmark_shard(tmp_path, monkeypatch, capsys):
    """The benchmark's largest shard, 64 sequences of T = 40, is still one
    forward call per command, as the 4 records above are: a request makes
    the same number of model calls whatever its file's shape.  Inside a
    call the untaped monet pass runs 512 // 40 = 12 sequences at a time, so
    each of the 4 passes runs 6 blocks and none exceeds 512 rows, where
    one block of all 64 would allocate (4, 2560, 16) gate arrays."""
    task = dict(TASK, seq_len=40, n_val=64)
    forwards, passes = _forward_rows_of_one_inference_request(tmp_path, monkeypatch, capsys, task)
    assert forwards == [2560, 2560]
    assert passes == ([480] * 20 + [160] * 4) * 2
    assert max(passes) <= 512
