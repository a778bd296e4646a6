"""Corruption fuzzing of both binary formats.

A valid ``.mofe`` dataset and a valid ``.monw`` checkpoint get a few bytes
overwritten and may be cut short.  Reading the damaged file must either
return or raise a ``FormatError`` subclass, and ``monet eval`` on it must
end with an exit code, never an exception: 2 exactly when the reader
rejects the file, otherwise 0 (or 1, the documented runtime failure, when
the damaged bytes still form a valid file that does not fit its partner).
Given a sidecar holding the intact file's sha256, ``monet eval`` must exit
2 whenever the edits or the cut changed a byte, and 0 when they did not.
"""

import contextlib
import hashlib
import io
import json

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


def _damage(valid, name, edits, cut, stem="damaged"):
    raw = bytearray((valid / f"valid.{name}").read_bytes())
    for pos, value in edits:
        raw[pos % len(raw)] = value
    if cut is not None:
        raw = raw[:cut % len(raw)]
    path = valid / f"{stem}.{name}"
    path.write_bytes(bytes(raw))
    return str(path)


def _checked_eval(valid, name, edits, cut):
    """``monet eval`` on a damaged copy named ``checked``, whose sidecar
    holds the intact file's sha256, and the other input intact: the exit
    code, the stderr, and whether the damage changed the bytes."""
    intact = (valid / f"valid.{name}").read_bytes()
    path = _damage(valid, name, edits, cut, stem="checked")
    sidecar = valid / ("checked.manifest.json" if name == "mofe" else "checked.monw.sha256.json")
    sidecar.write_text(json.dumps({"sha256": hashlib.sha256(intact).hexdigest()}))
    paths = {"mofe": str(valid / "valid.mofe"), "monw": str(valid / "valid.monw"), name: path}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["eval", "--checkpoint", paths["monw"], "--data", paths["mofe"]])
    return code, err.getvalue(), (valid / f"checked.{name}").read_bytes() != intact


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


@FUZZ
@given(edits=EDITS, cut=CUTS)
def test_damaged_dataset_with_a_sidecar_is_rejected_unread(valid, edits, cut):
    code, err, changed = _checked_eval(valid, "mofe", edits, cut)
    if changed:
        assert code == 2 and err.startswith("error: dataset file ")
        assert err.endswith(f"does not match the sha256 in {valid / 'checked.manifest.json'}\n")
    else:
        assert code == 0, err


@FUZZ
@given(edits=EDITS, cut=CUTS)
def test_damaged_checkpoint_with_a_sidecar_is_rejected_unread(valid, edits, cut):
    code, err, changed = _checked_eval(valid, "monw", edits, cut)
    if changed:
        assert code == 2 and err.startswith("error: checkpoint file ")
        assert err.endswith(f"does not match the sha256 in {valid / 'checked.monw.sha256.json'}\n")
    else:
        assert code == 0, err
