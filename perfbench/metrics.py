"""Every metric the benchmark reports, with its unit and better direction.

End-to-end metrics carry the bound by which a change may worsen them.  Each
per-layer metric names the end-to-end metric (and workloads) it should move;
the gradient-check entries follow ``inputs.GRADCHECK_SUITE``.
BENCHMARK.json mirrors these tables.

The end-to-end names are generic because every workload reports all of
them.  An operation is a training epoch (train-*), a gradient-check suite
pass (gradcheck-suite) or a request (infer-two-stream); ``seq_per_s`` counts
training sequences, sequences evaluated by the suite, or sequences served.
"""

from inputs import GRADCHECK_SUITE

TRAIN = "train-expansion, train-recurrent"
INFER = "infer-two-stream"
GRADCHECK = "gradcheck-suite"

END_TO_END = {
    "seq_per_s": ("seq/s", "higher", 0.2),
    "op_ms_p50": ("ms", "lower", 0.2),
    "op_ms_tail": ("ms", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}

PER_LAYER = {
    "tensor.backward_ms": ("ms", "lower", f"seq_per_s on {TRAIN}"),
    "tensor.backward_share": ("ratio", "lower", f"seq_per_s on {TRAIN}"),
    "tensor.nodes_per_step": ("count", "lower", f"seq_per_s on {TRAIN}"),
    "tensor.finite_diff_s": ("s", "lower", f"op_ms_p50 on {GRADCHECK}"),
    "cells.forward_ms": ("ms", "lower", f"seq_per_s on {TRAIN}; op_ms_p50 on {INFER}"),
    "cells.forward_share": ("ratio", "lower", f"seq_per_s on {TRAIN}; op_ms_p50 on {INFER}"),
    "cells.madds_per_seq": ("madd", "lower", "seq_per_s on all workloads"),
    "cells.gmadds_per_s": ("Gmadd/s", "higher", "seq_per_s on all workloads"),
    "cells.forward_calls_per_request": ("count", "lower", f"seq_per_s on {INFER}"),
    "cells.checkpoint_load_ms": ("ms", "lower", f"op_ms_p50 on {INFER}"),
    "training.loss_ms": ("ms", "lower", "seq_per_s on train-expansion, far more than on train-recurrent"),
    "training.optimizer_ms": ("ms", "lower", f"seq_per_s on {TRAIN}"),
    "training.clip_ms": ("ms", "lower", f"seq_per_s on {TRAIN}"),
    "training.clip_fired_ratio": ("ratio", "lower", f"seq_per_s on {TRAIN}"),
    "training.step_self_ms": ("ms", "lower", f"seq_per_s on {TRAIN}"),
    "training.evaluate_ms": ("ms", "lower", f"seq_per_s on {TRAIN}; op_ms_p50 on {INFER}"),
    "training.val_mse": ("mse", "lower", f"quality guard on {TRAIN}"),
    "data.read_ms": ("ms", "lower", f"op_ms_p50 on {INFER}"),
    "data.write_ms": ("ms", "lower", f"op_ms_p50 on {INFER}"),
    "data.read_mb_per_s": ("MB/s", "higher", f"op_ms_p50 on {INFER}"),
    "data.write_mb_per_s": ("MB/s", "higher", f"op_ms_p50 on {INFER}"),
    "data.generate_s": ("s", "lower", "setup_s on all but gradcheck-suite"),
    "classify.classify_ms": ("ms", "lower", f"op_ms_p50 on {INFER}"),
    "classify.ensemble_ms": ("ms", "lower", f"op_ms_p50 on {INFER}"),
    "classify.csv_ms": ("ms", "lower", f"op_ms_p50 on {INFER}"),
    "classify.fit_ms": ("ms", "lower", f"setup_s on train-expansion, {INFER}"),
    "gradcheck.forward_evals": ("count", "lower", f"op_ms_p50 on {GRADCHECK}"),
    **{f"gradcheck.instance_ms.{family}-L{layers}": ("ms", "lower", f"op_ms_p50 on {GRADCHECK}")
       for family, layers in GRADCHECK_SUITE},
    "cli.hallucinate_ms": ("ms", "lower", f"op_ms_p50 on {INFER}"),
    "cli.eval_ms": ("ms", "lower", f"op_ms_p50 on {INFER}"),
    "trace_overhead_ratio": ("ratio", "lower", "none: the traced run's cost over the untraced one"),
}

# Counts that depend only on the source tree, never on timing or the seed.
EXACT_COUNTS = ("tensor.nodes_per_step", "cells.madds_per_seq", "gradcheck.forward_evals",
                "cells.forward_calls_per_request")


def unit_of(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]
