"""Synthetic two-stream sequence data, binary dataset files, and splits.

The synthetic task is the desk-scale stand-in for extracted video features.
Each class owns a stable linear dynamical system that emits the appearance
sequence; three class-indexed mixing maps (a shared base plus a light
per-class offset) turn the local window (x_{t-1}, x_t, x_{t+1}) into the
motion target for step t.  The dependence on x_{t+1} is the point of the
construction: a purely causal model cannot express that term, while the
transition noise keeps x_{t+1} only partly predictable from the past.

Targets pass through a sigmoid squash, keeping every coordinate in (0, 1).
The hallucination unit's outputs are provably nonnegative (ReLU candidate,
convex fusion, zero boundaries), so a signed squash would park half of every
target outside the model's reachable range and the comparison would measure
range mismatch instead of context use.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings
from struct import pack, unpack_from

import numpy as np

from .binio import U32_MAX, BlockReader, FormatError, pack_u32, write_file
from .tensor import _sigmoid_stable

DATASET_MAGIC = b"MOFE"
DATASET_VERSION = 1


@dataclasses.dataclass
class FeatureRecord:
    """One labeled sequence pair: appearance features and motion targets."""

    id: str
    label: int
    appearance: np.ndarray  # (T, d_x) float64
    flow_target: np.ndarray  # (T, d_s) float64

    def check_layout(self) -> None:
        """The checks that need no pass over the values."""
        a, s = self.appearance, self.flow_target
        if a.ndim != 2 or s.ndim != 2 or a.shape[0] != s.shape[0]:
            raise ValueError(f"record {self.id}: sequences must be 2-D with equal length, "
                             f"got {a.shape} and {s.shape}")
        if self.label < 0:
            raise ValueError(f"record {self.id}: negative label")

    def validate(self) -> None:
        self.check_layout()
        if not (np.isfinite(self.appearance).all() and np.isfinite(self.flow_target).all()):
            raise ValueError(f"record {self.id}: non-finite values")


@dataclasses.dataclass
class SyntheticTaskSpec:
    n_classes: int
    seq_len: int
    d_x: int
    d_s: int
    n_train: int
    n_val: int
    noise_sigma: float
    seed: int
    context_radius: int = 1

    def validate(self) -> None:
        if min(self.n_classes, self.seq_len, self.d_x, self.d_s) < 1:
            raise ValueError("n_classes, seq_len, d_x, d_s must all be >= 1")
        if self.n_train < 0 or self.n_val < 0:
            raise ValueError("record counts must be >= 0")
        # The dataset header stores each of these as a u32.
        for name in ("n_classes", "seq_len", "d_x", "d_s", "n_train", "n_val"):
            if getattr(self, name) > U32_MAX:
                raise ValueError(f"{name} must be <= {U32_MAX}, got {getattr(self, name)}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.context_radius != 1:
            raise ValueError("only context_radius=1 is supported")


@dataclasses.dataclass
class TaskStructure:
    """Frozen per-class generator state, exposed so tests can recompute
    targets independently of the vectorized generation path."""

    transition: np.ndarray  # (C, d_x, d_x) row-vector convention: x_next = x @ M + drift
    drift: np.ndarray       # (C, d_x)
    map_prev: np.ndarray    # (C, d_x, d_s) applied to x_{t-1}
    map_cur: np.ndarray     # (C, d_x, d_s)
    map_next: np.ndarray    # (C, d_x, d_s) applied to x_{t+1}


# Fixed generator scales.  The transition spectral radius keeps dynamics
# stable; the drive noise keeps the next step only partly predictable, which
# is what separates causal from context-using models on this task.  The
# transition is a blend of identity and a random mixing matrix: persistence
# makes each drive innovation echo through several later frames, so wider
# temporal windows see redundant views of it and can average out per-frame
# encoding error.  The mixing maps are mostly shared across classes (small
# per-class offsets): if each class had fully separate maps, a long-history
# causal model could out-predict a local-context one by inferring the class,
# which is not the comparison this task exists to make.  The next-frame map
# carries the largest gain so the inexpressible-for-causal-models term
# dominates.
SPECTRAL_RADIUS = 0.97
TRANSITION_PERSISTENCE = 0.85
DRIVE_SIGMA = 0.35
DRIFT_SIGMA = 0.1
INIT_SIGMA = 1.6
MAP_GAIN_PREV = 0.25
MAP_GAIN_CUR = 0.25
MAP_GAIN_NEXT = 0.7
CLASS_MAP_SPREAD = 0.2


def task_structure(spec: SyntheticTaskSpec, rng: np.random.Generator | None = None) -> TaskStructure:
    """Draw the per-class matrices.  With the default rng this reproduces
    exactly the structure used inside ``generate_synthetic``."""
    spec.validate()
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    c, d_x, d_s = spec.n_classes, spec.d_x, spec.d_s
    transition = np.empty((c, d_x, d_x))
    for i in range(c):
        raw = rng.normal(0.0, 1.0, (d_x, d_x)) / np.sqrt(d_x)
        mixed = TRANSITION_PERSISTENCE * np.eye(d_x) \
            + (1.0 - TRANSITION_PERSISTENCE) * raw
        radius = float(np.max(np.abs(np.linalg.eigvals(mixed))))
        transition[i] = mixed * (SPECTRAL_RADIUS / radius) if radius > 1e-9 else mixed
    drift = rng.normal(0.0, DRIFT_SIGMA, (c, d_x))

    def class_maps(gain: float) -> np.ndarray:
        scale = gain / np.sqrt(d_x)
        base = rng.normal(0.0, scale, (d_x, d_s))
        offsets = rng.normal(0.0, CLASS_MAP_SPREAD * scale, (c, d_x, d_s))
        return base[None, :, :] + offsets

    map_prev = class_maps(MAP_GAIN_PREV)
    map_cur = class_maps(MAP_GAIN_CUR)
    map_next = class_maps(MAP_GAIN_NEXT)
    return TaskStructure(transition, drift, map_prev, map_cur, map_next)


def clean_targets(appearance: np.ndarray, label: int, structure: TaskStructure) -> np.ndarray:
    """Noise-free motion targets for one appearance sequence, with zero
    padding standing in for the missing frames at both ends."""
    t_len = appearance.shape[0]
    padded = np.vstack([np.zeros((1, appearance.shape[1])), appearance,
                        np.zeros((1, appearance.shape[1]))])
    pre = (padded[0:t_len] @ structure.map_prev[label]
           + padded[1:t_len + 1] @ structure.map_cur[label]
           + padded[2:t_len + 2] @ structure.map_next[label])
    return _sigmoid_stable(pre)


def generate_synthetic(spec: SyntheticTaskSpec) -> tuple[list[FeatureRecord], list[FeatureRecord]]:
    """Build (train, val) record lists, labels assigned round-robin.

    Everything is drawn from one generator seeded by ``spec.seed``:
    structure first, then records in order, so identical specs give
    bit-identical datasets.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    structure = task_structure(spec, rng)
    records = []
    for i in range(spec.n_train + spec.n_val):
        label = i % spec.n_classes
        transition, drift = structure.transition[label], structure.drift[label]
        x = np.empty((spec.seq_len, spec.d_x))
        state = rng.normal(0.0, INIT_SIGMA, spec.d_x)
        # One drive row per step, the last feeding no frame, drawn at once:
        # the generator fills it in the order of one draw per step.
        drive = rng.normal(0.0, DRIVE_SIGMA, (spec.seq_len, spec.d_x))
        for t in range(spec.seq_len):
            x[t] = state
            state = state @ transition + drift + drive[t]
        flow = clean_targets(x, label, structure) \
            + rng.normal(0.0, spec.noise_sigma, (spec.seq_len, spec.d_s))
        records.append(FeatureRecord(id=f"seq-{i:05d}", label=label,
                                     appearance=x, flow_target=flow))
    return records[:spec.n_train], records[spec.n_train:]


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

class Dataset(list):
    """The records of one dataset file in file order, with the class count
    its header declares (which the labels need not all reach)."""

    def __init__(self, records, n_classes: int):
        super().__init__(records)
        self.n_classes = n_classes


def write_dataset(path: str, records: list[FeatureRecord], n_classes: int | None = None) -> bytes:
    """Write records to one file: fixed header (counts), then per record the
    id, label, and both sequences as little-endian f32 row-major payloads.
    Every record is checked before the file is opened, including that its
    values fit f32, so a write never leaves a file that reads back as
    non-finite.  The file is written in one call; returns its bytes."""
    if n_classes is None:
        n_classes = 1 + max((r.label for r in records), default=-1)
    shapes = None
    for r in records:
        r.check_layout()
        if r.label >= n_classes:
            raise ValueError(f"record {r.id}: label {r.label} outside [0, {n_classes})")
        shapes = shapes or (r.appearance.shape, r.flow_target.shape)
        if (r.appearance.shape, r.flow_target.shape) != shapes:
            raise ValueError(f"record {r.id}: shape differs from first record")
    (t_len, d_x), (_, d_s) = shapes or ((0, 0), (0, 0))
    n = len(records)
    header = DATASET_MAGIC + pack_u32(DATASET_VERSION, n, n_classes, t_len, d_x, d_s)
    with np.errstate(over="ignore", invalid="ignore"):
        appearance = np.array([r.appearance for r in records], dtype="<f4").reshape(n, t_len, d_x)
        flow = np.array([r.flow_target for r in records], dtype="<f4").reshape(n, t_len, d_s)
    fits = np.isfinite(appearance).all(axis=(1, 2)) & np.isfinite(flow).all(axis=(1, 2))
    if not fits.all():
        bad = records[int(np.argmin(fits))]
        bad.validate()
        raise ValueError(f"record {bad.id}: values outside the f32 range the file stores")
    pieces = [header]
    for r, a, s in zip(records, appearance, flow):
        rid = r.id.encode("utf-8")
        pieces += (pack(f"<I{len(rid)}sI", len(rid), rid, r.label), a, s)
    return write_file(path, pieces)


_HEADER_FIELDS = ("n_records", "n_classes", "seq_len", "d_x", "d_s")


def read_dataset(path: str, sha256: str | None = None) -> Dataset:
    """Read a dataset file back; values come out as the f32 the file stores,
    widened to f64.  Non-finite payloads are rejected.  Given ``sha256``,
    the bytes read must have that hex digest (``binio.DigestError``) before
    any field is parsed."""
    # Entered once per file: a signalling NaN warns as it widens to f64,
    # and the finiteness check rejects it.
    with open(path, "rb", buffering=0) as f, np.errstate(invalid="ignore"):
        r = BlockReader(f, sha256)
        r.magic(DATASET_MAGIC)
        r.version(DATASET_VERSION)
        n, n_classes, t_len, d_x, d_s = (r.u32(k) for k in _HEADER_FIELDS)
        na, ns = t_len * d_x, t_len * d_s
        records = []
        for i in range(n):
            rid = r.string("record {} id", i)
            label = r.u32("record {} label", i)
            if label >= n_classes:
                raise FormatError(f"record {rid}: label {label} outside [0, {n_classes})")
            if 4 * (na + ns) > r.left():
                # Cut short: fail on the first of the two sequences it lacks.
                r.take(4 * na, "record {} appearance", rid)
                r.take(4 * ns, "record {} target", rid)
            p = r.take(4 * (na + ns), "record {} payload", rid)
            values = np.frombuffer(r.buf, "<f4", na + ns, p).astype(np.float64)
            if not np.isfinite(values).all():
                raise FormatError(f"record {rid}: non-finite payload")
            records.append(FeatureRecord(rid, label, values[:na].reshape(t_len, d_x),
                                         values[na:].reshape(t_len, d_s)))
        if r.left():
            raise FormatError("trailing bytes after final record")
    return Dataset(records, n_classes)


def dataset_manifest(raw: bytes, spec: SyntheticTaskSpec | None = None) -> dict:
    """JSON-ready description of a dataset file from the bytes
    ``write_dataset`` returned for it: header counts plus their sha256,
    hashed in memory, and the generating spec when known."""
    manifest = {"format": "MOFE", "version": DATASET_VERSION,
                "header": dict(zip(_HEADER_FIELDS, unpack_from("<5I", raw, 8))),
                "sha256": hashlib.sha256(raw).hexdigest()}
    if spec is not None:
        manifest["spec"] = dataclasses.asdict(spec)
    return manifest


def write_manifest(manifest_path: str, manifest: dict) -> None:
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split(records: list[FeatureRecord], val_fraction: float,
          seed: int) -> tuple[list[FeatureRecord], list[FeatureRecord]]:
    """Deterministic stratified split; per-class validation counts stay
    within one example of the class size times the fraction."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    by_label: dict[int, list[int]] = {}
    for idx, r in enumerate(records):
        by_label.setdefault(r.label, []).append(idx)
    for label, idxs in sorted(by_label.items()):
        if len(idxs) < 2:
            warnings.warn(f"label {label} has {len(idxs)} example(s); "
                          f"stratification is best-effort", stacklevel=2)
    total_val = round(len(records) * val_fraction)
    # Largest-remainder apportionment of the validation quota across labels.
    quotas = {}
    remainders = []
    for label, idxs in sorted(by_label.items()):
        exact = len(idxs) * val_fraction
        quotas[label] = int(exact)
        remainders.append((-(exact - int(exact)), label))
    leftover = total_val - sum(quotas.values())
    for _, label in sorted(remainders)[:max(leftover, 0)]:
        quotas[label] += 1
    rng = np.random.default_rng(seed)
    val_idx: set[int] = set()
    for label, idxs in sorted(by_label.items()):
        order = rng.permutation(len(idxs))
        take = min(quotas[label], len(idxs))
        val_idx.update(idxs[j] for j in order[:take])
    train = [r for i, r in enumerate(records) if i not in val_idx]
    val = [r for i, r in enumerate(records) if i in val_idx]
    return train, val
