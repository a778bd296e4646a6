"""The benchmark's inputs depend on the seed and nothing else: one seed gives
byte-identical inputs, another seed gives different ones."""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


def written_inputs(workload: str, seed: int, directory) -> dict[str, str]:
    """sha256 of every file the workload's set-up writes."""
    directory.mkdir()
    wl = workloads.make_workload(workload, inputs.make_plan(workload, seed), str(directory))
    wl.setup()
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def plan_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(inputs.make_plan(workload, seed), sort_keys=True).encode()


def test_plans_repeat_per_seed_and_differ_across_seeds():
    for workload in inputs.WORKLOADS:
        assert plan_bytes(workload, 7) == plan_bytes(workload, 7)
        assert plan_bytes(workload, 7) != plan_bytes(workload, 8)


def test_written_inputs_repeat_per_seed_and_differ_across_seeds(tmp_path):
    for workload in ("train-expansion", "infer-two-stream"):
        first = written_inputs(workload, 7, tmp_path / f"{workload}-a")
        again = written_inputs(workload, 7, tmp_path / f"{workload}-b")
        other = written_inputs(workload, 8, tmp_path / f"{workload}-c")
        assert first == again
        assert first.keys() == other.keys()
        assert all(first[name] != other[name] for name in first)


def test_benchmark_json_mirrors_the_metric_tables():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == {name: spec[:2] for name, spec in metrics.PER_LAYER.items()}
