"""File formats: CTNS complex tensors, mask JSON, and atomic writes.

CTNS layout (all little-endian):

    bytes 0..3   magic b"CTNS"
    bytes 4..7   version  (u32, currently 1)
    bytes 8..11  H        (u32)
    bytes 12..15 W        (u32)
    byte  16     dtype    (u8: 0 = float32 pairs, 1 = float64 pairs)
    payload      H*W interleaved (re, im) pairs, row-major
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .fourier import SamplingMask

MAGIC = b"CTNS"
VERSION = 1
_HEADER = struct.Struct("<4sIIIB")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_ctns(path: str | Path, data: np.ndarray, dtype: str = "float64") -> None:
    """Store a 2D complex (or real) array as a CTNS file."""
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise InvalidInputError(f"CTNS stores 2D arrays, got shape {arr.shape}")
    arr = arr.astype(np.complex128)
    h, w = arr.shape
    code, fdtype = (0, "<f4") if dtype == "float32" else (1, "<f8")
    pairs = np.empty((h, w, 2), dtype=fdtype)
    pairs[..., 0] = arr.real
    pairs[..., 1] = arr.imag
    payload = _HEADER.pack(MAGIC, VERSION, h, w, code) + pairs.tobytes(order="C")
    atomic_write_bytes(path, payload)


def load_ctns(path: str | Path) -> np.ndarray:
    """Load a CTNS file as an H×W complex128 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise InvalidInputError(f"{path}: truncated CTNS header")
    magic, version, h, w, code = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise InvalidInputError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise InvalidInputError(f"{path}: unsupported CTNS version {version}")
    if code not in (0, 1):
        raise InvalidInputError(f"{path}: unknown dtype code {code}")
    fdtype = "<f4" if code == 0 else "<f8"
    pairs = np.frombuffer(raw, dtype=fdtype, offset=_HEADER.size)
    if pairs.size != h * w * 2:
        raise InvalidInputError(f"{path}: payload size mismatch")
    pairs = pairs.reshape(h, w, 2).astype(np.float64)
    if not np.all(np.isfinite(pairs)):
        raise InvalidInputError(f"{path}: payload holds NaN or Inf values")
    return pairs[..., 0] + 1j * pairs[..., 1]


def save_mask(path: str | Path, mask: SamplingMask) -> None:
    write_json(
        path,
        {
            "num_lines": mask.num_lines,
            "flags": [int(f) for f in mask.flags],
            "center_count": mask.center_count,
        },
    )


def load_mask(path: str | Path) -> SamplingMask:
    obj = read_json(path)
    return SamplingMask(
        num_lines=int(obj["num_lines"]),
        flags=np.asarray(obj["flags"], dtype=bool),
        center_count=int(obj["center_count"]),
    )
