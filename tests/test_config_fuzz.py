"""Fuzzing of the ``monet train`` config surface.

A small valid experiment config gets up to two of its fields replaced by
drawn JSON values: small numbers in and out of range, NaN and the
infinities, values of the wrong JSON type, null, or an unknown key.
``monet train --epochs 0`` on it must end with an exit code, never an
exception; a non-finite number anywhere is invalid input (2), and that
exit must come before anything is written.
"""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from monet.cells import FAMILIES, CellConfig
from monet.cli import main
from monet.data import SyntheticTaskSpec
from monet.training import TrainConfig

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

BASE = {
    "task": {"n_classes": 2, "seq_len": 4, "d_x": 3, "d_s": 2, "n_train": 4, "n_val": 2,
             "noise_sigma": 0.05, "seed": 0},
    "cell": {"family": "gru", "d_x": 3, "d_s": 2},
    "train": {"lr": 1e-3, "batch_size": 2, "seed": 0},
    "loss": {"alpha": 1.0},
}

# Values near each annotated field type.  Integers stay at most 8 (counts,
# lengths, dims and layers alike), so a valid draw runs in milliseconds.
INT = st.one_of(st.integers(0, 8), st.integers(-2, -1))
NEAR_TYPE = {
    "int": INT,
    "int | None": st.one_of(st.none(), INT),
    "float": st.one_of(st.floats(-0.5, 8.0), st.sampled_from([math.nan, math.inf, -math.inf])),
    "bool": st.booleans(),
    "str": st.sampled_from([*FAMILIES, "sgd", "adam", "rmsprop"]),
}
WRONG = st.sampled_from([None, True, "8", [1], {}, math.nan])

# (section, key) -> strategy for every config field; None is the top level.
FIELDS = {(section, f.name): st.one_of(NEAR_TYPE[f.type], WRONG)
          for section, cls in (("task", SyntheticTaskSpec), ("cell", CellConfig),
                               ("train", TrainConfig))
          for f in dataclasses.fields(cls)}
FIELDS[("loss", "alpha")] = st.one_of(NEAR_TYPE["float"], WRONG)
FIELDS[(None, "seed")] = st.one_of(INT, WRONG)
# A drawn string would be a real path, so out_dir only gets wrong types.
FIELDS[(None, "out_dir")] = st.sampled_from([None, True, 8, [1], {}])
FIELDS[("task", "n_clases")] = FIELDS[("loss", "beta")] = st.just(1)

OVERRIDES = st.lists(st.sampled_from(sorted(FIELDS, key=str)), max_size=2, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: FIELDS[key] for key in keys}))


@FUZZ
@given(overrides=OVERRIDES)
def test_train_on_a_fuzzed_config_exits_with_a_code_and_rejects_before_writing(overrides):
    with tempfile.TemporaryDirectory() as root:
        out_dir = Path(root) / "run"
        config = {section: dict(fields) for section, fields in BASE.items()}
        config["out_dir"] = str(out_dir)
        for (section, key), value in overrides.items():
            (config if section is None else config[section])[key] = value
        path = Path(root) / "config.json"
        path.write_text(json.dumps(config))
        code = main(["train", "--config", str(path), "--epochs", "0"])
        assert code in (0, 1, 2)
        if any(isinstance(v, float) and not math.isfinite(v) for v in overrides.values()):
            assert code == 2
        if code == 2:
            assert not out_dir.exists()
