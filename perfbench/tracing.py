"""Span tracing for the traced run, from outside the package.

``Tracer.install`` swaps public toolkit names for timing wrappers in the
namespace each caller looks them up in (``monet.cli.read_dataset``,
``monet.training.hallucination_loss``, ``Tape.backward``, ...), and
``uninstall`` puts the originals back.  Spans stay in memory until
``write`` dumps them.  Untraced runs never install anything.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import json
import os
import time


@dataclasses.dataclass
class Span:
    name: str
    parent: int
    op: int
    step: int
    start: float = 0.0
    end: float = 0.0
    info: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self.step = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._madds: dict[tuple, int] = {}

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.  ``note``
        runs after the call, outside the span, and may fill ``span.info``."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else -1, tracer.op, tracer.step)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = tracer.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if note is not None:
                note(tracer, span, args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._undo.append((owner, attr, raw))

    def install(self) -> "Tracer":
        """Wrap every layer boundary the workloads cross."""
        cells, cli, classify, data, gradcheck, tensor, training = (
            importlib.import_module(f"monet.{name}") for name in
            ("cells", "cli", "classify", "data", "gradcheck", "tensor", "training"))

        def forward_note(tr, span, args, _result):
            model, xs = args[0], args[1]
            key = dataclasses.astuple(model.config) + (len(xs),)
            if key not in tr._madds:
                tr._madds[key] = cells.flops_per_sequence(model.config, len(xs)).total_madds
            span.info = {"madds": tr._madds[key] * xs[0].shape[0]}

        def nodes_note(_tr, span, args, _result):
            span.info = {"nodes": len(args[0].nodes)}

        def clip_note(_tr, span, args, result):
            span.info = {"fired": result[1] > args[1]}

        def step_note(tr, _span, _args, _result):
            tr.step += 1

        def bytes_note(_tr, span, args, _result):
            span.info = {"bytes": os.path.getsize(args[0])}

        def instance_note(_tr, span, args, _result):
            c = args[0].config
            span.info = {"entry": f"{c.family}-L{c.layers}"}

        for owner, attr, name, note in (
                (training, "train", "training.train", None),
                (training, "hallucination_loss", "training.loss", None),
                (training, "class_probabilities_steps", "training.class_probs", None),
                (training, "clip_global_norm", "training.clip", clip_note),
                (training, "evaluate", "training.evaluate", None),
                (training.Adam, "step", "training.optimizer", step_note),
                (tensor.Tape, "backward", "tensor.backward", nodes_note),
                (cells.Hallucinator, "forward_steps", "cells.forward", forward_note),
                (cells.Hallucinator, "load", "cells.checkpoint_load", None),
                (data, "generate_synthetic", "data.generate", None),
                (data, "write_dataset", "data.write", bytes_note),
                (classify, "fit_linear_classifier", "classify.fit", None),
                (cli, "cmd_hallucinate", "cli.hallucinate", None),
                (cli, "cmd_eval", "cli.eval", None),
                (cli, "read_dataset", "data.read", bytes_note),
                (cli, "write_dataset", "data.write", bytes_note),
                (cli, "evaluate", "training.evaluate", None),
                (cli, "classify", "classify.classify", None),
                (cli, "ensemble", "classify.ensemble", None),
                (cli, "predictions_csv", "classify.csv", None),
                (gradcheck, "check_instance", "gradcheck.instance", instance_note),
                (gradcheck, "finite_diff_grad", "tensor.finite_diff", None)):
            self.wrap(owner, attr, name, note)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: str) -> None:
        own = self.self_seconds()
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"i": i, "name": s.name, "parent": s.parent, "op": s.op,
                                    "step": s.step, "start": s.start, "end": s.end,
                                    "self": own[i], "info": s.info}) + "\n")


def setup_metrics(tracer: Tracer, repeats: int) -> dict[str, float]:
    """Per-layer costs of one set-up, from spans recorded while setting up."""
    total = collections.Counter()
    for s in tracer.spans:
        total[s.name] += s.seconds
    return {"data.generate_s": total["data.generate"] / repeats,
            "classify.fit_ms": 1e3 * total["classify.fit"] / repeats}


def run_metrics(tracer: Tracer, units: int, window_s: float,
                entries: list[str]) -> dict[str, float]:
    """Per-layer split of a traced window of ``units`` workload units (a
    training step, a suite pass or a request).  ``*_ms`` values are per
    unit; shares are of the window; a layer the window never reached reads
    0.  ``entries`` names the gradient-check suite entries."""
    by_name: dict[str, list[int]] = collections.defaultdict(list)
    for i, s in enumerate(tracer.spans):
        by_name[s.name].append(i)
    own = tracer.self_seconds()
    spans = tracer.spans

    def total(*names: str) -> float:
        return sum(spans[i].seconds for n in names for i in by_name[n])

    def per_unit_ms(*names: str) -> float:
        return 1e3 * total(*names) / units

    def info_sum(name: str, key: str) -> float:
        return sum(spans[i].info[key] for i in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    backward = by_name["tensor.backward"]
    clips = by_name["training.clip"]
    metrics = {
        "tensor.backward_ms": per_unit_ms("tensor.backward"),
        "tensor.backward_share": total("tensor.backward") / window_s,
        "tensor.nodes_per_step": ratio(info_sum("tensor.backward", "nodes"), len(backward)),
        "tensor.finite_diff_s": total("tensor.finite_diff") / units,
        "cells.forward_ms": per_unit_ms("cells.forward"),
        "cells.forward_share": total("cells.forward") / window_s,
        "cells.gmadds_per_s": ratio(info_sum("cells.forward", "madds") / 1e9, total("cells.forward")),
        "cells.forward_calls_per_request": len(by_name["cells.forward"]) / units,
        "cells.checkpoint_load_ms": per_unit_ms("cells.checkpoint_load"),
        "training.loss_ms": per_unit_ms("training.loss", "training.class_probs"),
        "training.optimizer_ms": per_unit_ms("training.optimizer"),
        "training.clip_ms": per_unit_ms("training.clip"),
        "training.clip_fired_ratio": ratio(sum(spans[i].info["fired"] for i in clips), len(clips)),
        "training.step_self_ms": 1e3 * sum(own[i] for i in by_name["training.train"]) / units,
        "training.evaluate_ms": per_unit_ms("training.evaluate"),
        "data.read_ms": per_unit_ms("data.read"),
        "data.write_ms": per_unit_ms("data.write"),
        "data.read_mb_per_s": ratio(info_sum("data.read", "bytes") / 1e6, total("data.read")),
        "data.write_mb_per_s": ratio(info_sum("data.write", "bytes") / 1e6, total("data.write")),
        "classify.classify_ms": per_unit_ms("classify.classify"),
        "classify.ensemble_ms": per_unit_ms("classify.ensemble"),
        "classify.csv_ms": per_unit_ms("classify.csv"),
        "cli.hallucinate_ms": per_unit_ms("cli.hallucinate"),
        "cli.eval_ms": per_unit_ms("cli.eval"),
    }
    instance_s: dict[str, list[float]] = collections.defaultdict(list)
    evals = 0
    for i in by_name["gradcheck.instance"]:
        instance_s[spans[i].info["entry"]].append(spans[i].seconds)
    for i in by_name["cells.forward"]:
        parent = spans[i].parent
        while parent >= 0 and spans[parent].name != "gradcheck.instance":
            parent = spans[parent].parent
        evals += parent >= 0
    metrics["gradcheck.forward_evals"] = evals / units
    for entry in entries:
        times = instance_s[entry]
        metrics[f"gradcheck.instance_ms.{entry}"] = 1e3 * sum(times) / len(times) if times else 0.0
    return metrics
