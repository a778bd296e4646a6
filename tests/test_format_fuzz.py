"""Corruption fuzzing of both binary formats.

A valid ``.mofe`` dataset and a valid ``.monw`` checkpoint get a few bytes
overwritten and may be cut short.  Reading the damaged file must either
return or raise a ``FormatError`` subclass, and ``monet eval`` on it must
end with an exit code, never an exception: 2 exactly when the reader
rejects the file, otherwise 0 (or 1, the documented runtime failure, when
the damaged bytes still form a valid file that does not fit its partner).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monet.binio import FormatError
from monet.cells import CellConfig, Hallucinator
from monet.cli import main
from monet.data import SyntheticTaskSpec, generate_synthetic, read_dataset, write_dataset

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=80)

# Positions and cuts are taken modulo the file size.  Half the edits land in
# the first 64 bytes, which hold both headers and the first record's id, so
# the fields that steer parsing get damaged as often as the payloads.
POSITIONS = st.one_of(st.integers(0, 63), st.integers(0, 1 << 16))
EDITS = st.lists(st.tuples(POSITIONS, st.integers(0, 255)), max_size=4)
CUTS = st.one_of(st.none(), st.integers(0, 1 << 16))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = SyntheticTaskSpec(n_classes=3, seq_len=5, d_x=4, d_s=3, n_train=1,
                             n_val=3, noise_sigma=0.05, seed=0)
    write_dataset(str(root / "valid.mofe"), generate_synthetic(spec)[1], n_classes=3)
    model = Hallucinator.build(CellConfig(family="monet", d_x=4, d_s=3, layers=2),
                               np.random.default_rng(0))
    model.save(str(root / "valid.monw"))
    return root


def _damage(valid, name, edits, cut):
    raw = bytearray((valid / f"valid.{name}").read_bytes())
    for pos, value in edits:
        raw[pos % len(raw)] = value
    if cut is not None:
        raw = raw[:cut % len(raw)]
    path = valid / f"damaged.{name}"
    path.write_bytes(bytes(raw))
    return str(path)


def _reads(reader, path) -> bool:
    try:
        reader(path)
    except FormatError:
        return False
    return True


@FUZZ
@given(edits=EDITS, cut=CUTS)
def test_damaged_dataset_reads_or_fails_with_format_error(valid, edits, cut):
    path = _damage(valid, "mofe", edits, cut)
    readable = _reads(read_dataset, path)
    code = main(["eval", "--checkpoint", str(valid / "valid.monw"), "--data", path])
    assert code in ((0, 1) if readable else (2,))


@FUZZ
@given(edits=EDITS, cut=CUTS)
def test_damaged_checkpoint_loads_or_fails_with_format_error(valid, edits, cut):
    path = _damage(valid, "monw", edits, cut)
    readable = _reads(Hallucinator.load, path)
    code = main(["eval", "--checkpoint", path, "--data", str(valid / "valid.mofe")])
    assert code in ((0, 1) if readable else (2,))
