import json
import struct

import numpy as np
import pytest

from tokmri.errors import InvalidInputError
from tokmri.fourier import make_center_mask
from tokmri.storage import load_ctns, load_mask, save_ctns, save_mask, write_csv


def test_ctns_round_trip_float64(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
    path = tmp_path / "x.ctns"
    save_ctns(path, arr)
    assert np.array_equal(load_ctns(path), arr)


def save_ctns_float32(path, arr):
    """A CTNS file of float32 pairs (dtype code 0), which `load_ctns` reads
    and `save_ctns` does not write."""
    pairs = np.stack((arr.real, arr.imag), axis=-1).astype("<f4")
    path.write_bytes(struct.pack("<4sIIIB", b"CTNS", 1, *arr.shape, 0)
                     + pairs.tobytes())


def test_ctns_float32_lossy_but_close(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    path = tmp_path / "x32.ctns"
    save_ctns_float32(path, arr)
    assert np.allclose(load_ctns(path), arr, atol=1e-6)


def test_ctns_header_layout(tmp_path):
    path = tmp_path / "h.ctns"
    save_ctns(path, np.zeros((3, 5), dtype=complex))
    raw = path.read_bytes()
    assert raw[:4] == b"CTNS"
    assert int.from_bytes(raw[4:8], "little") == 1   # version
    assert int.from_bytes(raw[8:12], "little") == 3  # H
    assert int.from_bytes(raw[12:16], "little") == 5  # W
    assert raw[16] == 1  # float64 pairs
    assert len(raw) == 17 + 3 * 5 * 2 * 8


def test_ctns_real_image_stored_with_zero_imag(tmp_path):
    path = tmp_path / "r.ctns"
    save_ctns(path, np.arange(12.0).reshape(3, 4))
    back = load_ctns(path)
    assert np.array_equal(back.imag, np.zeros((3, 4)))


def test_ctns_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ctns"
    path.write_bytes(b"NOPE" + bytes(13))
    with pytest.raises(InvalidInputError):
        load_ctns(path)


def test_ctns_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.ctns"
    save_ctns(path, np.ones((4, 4), dtype=complex))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InvalidInputError):
        load_ctns(path)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_ctns_rejects_partial_value(tmp_path, dtype):
    path = tmp_path / "part.ctns"
    save = save_ctns_float32 if dtype == "float32" else save_ctns
    save(path, np.ones((4, 4), dtype=complex))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(InvalidInputError, match="part.ctns: payload holds"):
        load_ctns(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ctns_rejects_non_finite_payload(tmp_path, bad):
    arr = np.ones((3, 4), dtype=complex)
    arr[1, 2] = complex(1.0, bad)
    path = tmp_path / "nan.ctns"
    save_ctns(path, arr)
    with pytest.raises(InvalidInputError, match="nan.ctns"):
        load_ctns(path)


def test_mask_json_round_trip(tmp_path):
    mask = make_center_mask(32, 0.1).with_lines([0, 5, 31])
    path = tmp_path / "mask.json"
    save_mask(path, mask)
    back = load_mask(path)
    assert back.num_lines == mask.num_lines
    assert back.center_count == mask.center_count
    assert np.array_equal(back.flags, mask.flags)
    # flags serialized as 0/1 integers
    text = path.read_text()
    assert '"flags"' in text and "true" not in text


@pytest.mark.parametrize("doc, named", [
    ({"flags": [1, 0], "center_count": 1}, "num_lines"),
    ({"num_lines": "2", "flags": [1, 0], "center_count": 1}, "num_lines"),
    ({"num_lines": 2.0, "flags": [1, 0], "center_count": 1}, "num_lines"),
    ({"num_lines": 2, "flags": [1, 0]}, "center_count"),
    ({"num_lines": 2, "flags": [1, 0], "center_count": True}, "center_count"),
    ({"num_lines": 2, "flags": [1, 0], "center_count": 3}, "center_count"),
    ({"num_lines": 2, "flags": [1, 0], "center_count": -1}, "center_count"),
    ({"num_lines": 2, "center_count": 1}, "flags"),
    ({"num_lines": 2, "flags": "10", "center_count": 1}, "flags"),
    ({"num_lines": 2, "flags": [1, 0, 1], "center_count": 1}, "flags"),
    ({"num_lines": 2, "flags": [1, 2], "center_count": 1}, "flags"),
    ({"num_lines": 2, "flags": [True, False], "center_count": 1}, "flags"),
    ({"num_lines": 2, "flags": [1, None], "center_count": 1}, "flags"),
])
def test_mask_json_fails_closed(tmp_path, doc, named):
    path = tmp_path / "mask.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match=f"mask.json: {named} must"):
        load_mask(path)


def test_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"],
              [[1, 0.1, None], ["x", np.float64(1 / 3), 2.0], (True, 1e-300, "")])
    assert path.read_text() == ("a,b,c\n1,0.1,\nx,0.3333333333333333,2.0\n"
                                "True,1e-300,\n")
