"""File formats: JSON, float64 payloads, CSV, npz, CTNS complex tensors and
mask JSON, each read, checked and written here, and atomic writes.

A reader fails closed: a file it cannot use raises InvalidInputError whose
message starts with the file's path.

CTNS layout (all little-endian):

    bytes 0..3   magic b"CTNS"
    bytes 4..7   version  (u32, currently 1)
    bytes 8..11  H        (u32)
    bytes 12..15 W        (u32)
    byte  16     dtype    (u8: 0 = float32 pairs, 1 = float64 pairs;
                           `save_ctns` writes 1, `load_ctns` reads both)
    payload      H*W interleaved (re, im) pairs, row-major
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import tempfile
import zipfile
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


def read_json(path: str | Path) -> dict:
    """The top-level JSON object of a file.  A file that is not UTF-8, not
    JSON or whose document is not an object raises InvalidInputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    return obj


def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def encode_f64(arr: np.ndarray) -> bytes:
    """Row-major little-endian float64 bytes of an array."""
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def decode_floats(raw, shape: tuple, where: str, dtype: str = "<f8") -> np.ndarray:
    """`raw` read as row-major little-endian `dtype` ("<f8" or "<f4") values,
    as a float64 array of `shape`.  A byte length that `shape` does not give
    or a NaN or Inf value raises InvalidInputError; its message starts with
    `where`, which names the file and the field."""
    need = np.dtype(dtype).itemsize * math.prod(shape)
    if len(raw) != need:
        raise InvalidInputError(
            f"{where} holds {len(raw)} bytes; shape {list(shape)} needs {need}"
        )
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{where} holds NaN or Inf values")
    return arr


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form
    return str(value)


def write_csv(path: str | Path, columns, rows) -> None:
    """A header of `columns`, then one line per row of cells in column order:
    a float in its shortest round-trip form, None as an empty cell, anything
    else by `str`.  Lines end in "\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    atomic_write_text(path, buf.getvalue())


def write_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


def read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Every array of an npz archive by name.  A file that is not an npz
    archive, or that holds pickled objects, raises InvalidInputError."""
    try:
        with np.load(path) as archive:  # an .npy file loads as an array: TypeError
            return {name: archive[name] for name in archive.files}
    except (ValueError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        raise InvalidInputError(f"{path}: not an npz archive: {exc}") from None


def save_ctns(path: str | Path, data: np.ndarray) -> None:
    """Store a 2D complex (or real) array as a CTNS file of float64 pairs."""
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise InvalidInputError(f"CTNS stores 2D arrays, got shape {arr.shape}")
    arr = arr.astype(np.complex128)
    h, w = arr.shape
    pairs = np.empty((h, w, 2), dtype="<f8")
    pairs[..., 0] = arr.real
    pairs[..., 1] = arr.imag
    payload = _HEADER.pack(MAGIC, VERSION, h, w, 1) + pairs.tobytes(order="C")
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
    pairs = decode_floats(memoryview(raw)[_HEADER.size:], (h, w, 2),
                          f"{path}: payload", "<f4" if code == 0 else "<f8")
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
    """A mask as `save_mask` writes it: integer `num_lines`, `flags` a list
    of `num_lines` 0/1 integers and `center_count` an integer in
    [0, num_lines]."""
    obj = read_json(path)
    for key in ("num_lines", "center_count"):
        if not is_int(obj.get(key)):
            raise InvalidInputError(f"{path}: {key} must be an integer")
    n, flags = obj["num_lines"], obj.get("flags")
    if not (isinstance(flags, list) and len(flags) == n
            and all(is_int(f) and f in (0, 1) for f in flags)):
        raise InvalidInputError(f"{path}: flags must be a list of {n} 0/1 values")
    if not 0 <= obj["center_count"] <= n:
        raise InvalidInputError(f"{path}: center_count must be in [0, {n}]")
    return SamplingMask(num_lines=n, flags=np.asarray(flags, dtype=bool),
                        center_count=obj["center_count"])
