"""Independent references for the inference outputs.

The toolkit hallucinates one timestep at a time on its autodiff tape and
reads ``.mofe`` files through its own format layer.  The checks here share
neither: the expansion unit is written as whole-sequence numpy passes (each
pass reads only the previous pass's states), and dataset files are decoded
straight from the byte layout.
"""

from __future__ import annotations

import struct

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _fuse_weights(*logits: np.ndarray) -> list[np.ndarray]:
    v = np.stack(logits)
    e = np.exp(v - v.max(axis=0))
    w = e / e.sum(axis=0)
    return list(w)


def monet_forward(p: dict[str, np.ndarray], app: np.ndarray, layers: int) -> np.ndarray:
    """(N, T, d_x) appearance in, (N, T, d_s) hallucinated motion out, for
    the bidirectional expansion unit with weights ``p`` (MoNetParams field
    names)."""
    pre_r = app @ p["W_r"] + p["b_r"]
    pre_z = app @ p["W_z"] + p["b_z"]
    pre_h = app @ p["W_h"] + p["b_h"]
    one = np.ones_like(pre_z)
    z = _sigmoid(pre_z)
    s = _fuse_weights(one, z, z)[0] * np.maximum(pre_h, 0.0)
    zero = np.zeros_like(s[:, :1])
    for _ in range(layers):
        left = np.concatenate([zero, s[:, :-1]], axis=1)
        right = np.concatenate([s[:, 1:], zero], axis=1)
        reset_l = _sigmoid(pre_r + left @ p["U_r_left"])
        reset_r = _sigmoid(pre_r + right @ p["U_r_right"])
        mix_l = _sigmoid(pre_z + left @ p["U_z_left"])
        mix_r = _sigmoid(pre_z + right @ p["U_z_right"])
        gated = np.concatenate([right * reset_r, left * reset_l], axis=2)
        cand = np.maximum(pre_h + gated @ p["U_h"], 0.0)
        w_c, w_r, w_l = _fuse_weights(one, mix_r, mix_l)
        s = w_c * cand + w_r * right + w_l * left
    return s


def softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def pooled_probs(seqs: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean-pool (N, T, D) over time, then a linear map and softmax."""
    return softmax_rows(seqs.mean(axis=1) @ W.T + b)


def f32(x: np.ndarray) -> np.ndarray:
    """Round to the f32 precision dataset files store."""
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def decode_mofe(raw: bytes) -> tuple[list[str], list[int], np.ndarray, np.ndarray]:
    """Decode a version-1 ``.mofe`` file: (ids, labels, appearance, motion)."""
    if raw[:4] != b"MOFE":
        raise ValueError(f"bad magic {raw[:4]!r}")
    version, n, _classes, t_len, d_x, d_s = struct.unpack_from("<6I", raw, 4)
    if version != 1:
        raise ValueError(f"unexpected version {version}")
    pos = 28
    ids, labels = [], []
    app = np.empty((n, t_len, d_x))
    flow = np.empty((n, t_len, d_s))
    for i in range(n):
        (id_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        ids.append(raw[pos:pos + id_len].decode("utf-8"))
        pos += id_len
        (label,) = struct.unpack_from("<I", raw, pos)
        labels.append(label)
        pos += 4
        for dst, d in ((app, d_x), (flow, d_s)):
            count = t_len * d
            dst[i] = np.frombuffer(raw, dtype="<f4", count=count, offset=pos).reshape(t_len, d)
            pos += 4 * count
    if pos != len(raw):
        raise ValueError(f"{len(raw) - pos} trailing bytes")
    return ids, labels, app, flow
