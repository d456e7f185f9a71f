"""Output checks, computed apart from the program.

Files are parsed with readers of their own (CTNS, tokenizer JSON, mask
JSON, CSV), and every reference quantity (centre block, budget, NMSE, PSNR,
SSIM, nearest codebook entry) is recomputed from its definition.  No check
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

CTNS_HEADER = struct.Struct("<4sIIIB")
PSNR_CAP = 100.0
SSIM_WINDOW, SSIM_K1, SSIM_K2 = 7, 0.01, 0.03


class Checks:
    """Collects failed expectations; `failures` empty means every check held."""

    def __init__(self):
        self.failures: list[str] = []
        self.made = 0

    def expect(self, ok, message: str) -> bool:
        self.made += 1
        if not ok:
            self.failures.append(message)
        return bool(ok)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def center_flags(num_lines: int, rho_c: float) -> np.ndarray:
    """Centre block of round(N·ρc) lines; an even block reaches one line lower."""
    count = min(round_half_away(num_lines * rho_c), num_lines)
    flags = np.zeros(num_lines, dtype=bool)
    start = (num_lines - count + 1) // 2
    flags[start:start + count] = True
    return flags


def budget(num_lines: int, R: int, rho_c: float) -> int:
    return round_half_away(num_lines * (1.0 - rho_c) / R)


def nmse(ref: np.ndarray, est: np.ndarray) -> float:
    return float(np.sum((ref - est) ** 2) / np.sum(ref ** 2))


def psnr(ref: np.ndarray, est: np.ndarray) -> float:
    mse = float(np.mean((ref - est) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(float(ref.max()) ** 2 / mse))


def ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """Mean SSIM over every fully interior 7×7 window, via integral images."""
    w = SSIM_WINDOW
    dr = float(ref.max() - ref.min()) or 1.0
    c1, c2 = (SSIM_K1 * dr) ** 2, (SSIM_K2 * dr) ** 2

    def box_mean(a):
        s = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
        s[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
        return (s[w:, w:] - s[:-w, w:] - s[w:, :-w] + s[:-w, :-w]) / (w * w)

    mx, my = box_mean(ref), box_mean(est)
    vx = box_mean(ref * ref) - mx * mx
    vy = box_mean(est * est) - my * my
    cxy = box_mean(ref * est) - mx * my
    s = ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return float(s.mean())


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_ctns(chk: Checks, path: Path) -> np.ndarray | None:
    """A float64 CTNS file must be 17 + 16·H·W bytes long and finite."""
    raw = Path(path).read_bytes()
    if not chk.expect(len(raw) >= CTNS_HEADER.size, f"{path}: short header"):
        return None
    magic, _, h, w, code = CTNS_HEADER.unpack_from(raw)
    ok = chk.expect(magic == b"CTNS" and code == 1, f"{path}: not float64 CTNS")
    ok = ok and chk.expect(len(raw) == CTNS_HEADER.size + 16 * h * w,
                           f"{path}: {len(raw)} bytes for {h}x{w}")
    if not ok:
        return None
    pairs = np.frombuffer(raw, dtype="<f8", offset=CTNS_HEADER.size).reshape(h, w, 2)
    if not chk.expect(np.all(np.isfinite(pairs)), f"{path}: non-finite payload"):
        return None
    return pairs[..., 0] + 1j * pairs[..., 1]


def read_split(chk: Checks, data_dir: Path, split: str) -> list[tuple[str, np.ndarray]]:
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    out = []
    for entry in manifest["splits"][split]:
        img = read_ctns(chk, data_dir / entry["file"])
        if img is not None:
            out.append((entry["id"], img))
    return out


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def check_training(chk: Checks, out_dir: Path, n_train: int, epochs: int,
                   batch: int, K: int, sample_images: int = 4) -> None:
    from tokmri.tokenizer import Tokenizer

    art, data = out_dir / "artifacts", out_dir / "data"
    train = read_split(chk, data, "train")
    read_split(chk, data, "test")
    chk.expect(len(train) == n_train, f"{len(train)} training images, want {n_train}")

    doc = json.loads((art / "tokenizer.json").read_text(encoding="utf-8"))
    D, p = int(doc["D"]), int(doc["p"])

    def f64(key, shape):
        return np.frombuffer(base64.b64decode(doc[key]), dtype="<f8").reshape(shape)

    enc_w, enc_b = f64("enc_w", (D, p * p)), f64("enc_b", (D,))
    dec_w, entries = f64("dec_w", (p * p, D)), f64("entries", (int(doc["K"]), D))
    chk.expect(entries.shape[0] == K, f"codebook has {entries.shape[0]} entries, want {K}")
    chk.expect(np.max(np.abs(enc_w @ enc_w.T - np.eye(D))) < 1e-9,
               "encoder rows are not orthonormal")
    chk.expect(np.array_equal(dec_w, enc_w.T), "decoder is not the encoder's transpose")
    chk.expect(len({row.tobytes() for row in entries}) == entries.shape[0],
               "codebook entries are not pairwise distinct")

    # the program's code for each sampled training latent is its nearest entry
    tok = Tokenizer.load(art / "tokenizer.json")
    for image_id, img in train[:sample_images]:
        for channel in (img.real, img.imag):
            z = (channel - channel.mean()) / math.sqrt(channel.var() + 1e-12)
            gh, gw = z.shape[0] // p, z.shape[1] // p
            patches = z.reshape(gh, p, gw, p).transpose(0, 2, 1, 3).reshape(-1, p * p)
            lat = tok.encode(z)
            latents = np.asarray(lat.vectors)
            chk.expect(np.allclose(latents, patches @ enc_w.T + enc_b,
                                   rtol=0, atol=1e-9),
                       f"{image_id}: encoder output differs from patches @ enc_w.T + enc_b")
            codes, _ = tok.quantize(lat)
            d2 = ((latents[:, None, :] - entries[None, :, :]) ** 2).sum(axis=2)
            best = d2.min(axis=1)
            picked = d2[np.arange(len(codes)), np.asarray(codes)]
            chk.expect(np.all(picked <= best + 1e-12 * np.maximum(best, 1.0)),
                       f"{image_id}: a code is not the nearest codebook entry")

    rows = read_csv((art / "loss_trace.csv").read_text(encoding="utf-8"))
    want = epochs * math.ceil(n_train / batch)
    chk.expect(len(rows) == want, f"loss trace has {len(rows)} rows, want {want}")
    if rows:
        first, last = float(rows[0]["token_ce"]), float(rows[-1]["token_ce"])
        chk.expect(abs(first - math.log(K)) < 1e-9,
                   f"first token CE {first} is not ln K = {math.log(K)}")
        chk.expect(last < math.log(K), f"final token CE {last} is not below ln K")


# ---------------------------------------------------------------------------
# cmd_run
# ---------------------------------------------------------------------------

def check_run_call(chk: Checks, res: Path, truth: dict, policy: str, text: str,
                   accels: list[int], seed: int, rho_c: float,
                   ssim_sample: int = 2) -> None:
    """The outputs of one cmd_run call for one policy; `text` is its metrics.csv."""
    rows = read_csv(text)
    images = [r for r in rows if r["image_id"] != "summary"]
    chk.expect(len(images) == len(truth) * len(accels),
               f"{policy}: {len(images)} rows for {len(truth)} images")
    for r in images:
        R, image_id = int(r["R"]), r["image_id"]
        tag = f"{policy}_R{R}_seed{seed}"
        ref = np.abs(truth[image_id])
        recon = read_ctns(chk, res / "recon" / tag / f"{image_id}.ctns")
        if recon is not None:
            est = np.abs(recon)
            chk.expect(_close(nmse(ref, est), float(r["nmse"]), 1e-9),
                       f"{tag}/{image_id}: NMSE does not recompute")
            chk.expect(abs(psnr(ref, est) - float(r["psnr"])) < 1e-9,
                       f"{tag}/{image_id}: PSNR does not recompute")
            if int(image_id.rsplit("_", 1)[1]) < ssim_sample:
                chk.expect(_close(ssim(ref, est), float(r["ssim"]), 1e-6),
                           f"{tag}/{image_id}: SSIM does not recompute")
        _check_logged_trajectory(chk, res / "trajectories" / tag, image_id,
                                 ref.shape[0], R, rho_c)
    for R in accels:
        group = [r for r in images if int(r["R"]) == R]
        summary = [r for r in rows if r["image_id"] == "summary" and int(r["R"]) == R]
        if chk.expect(len(summary) == 1 and group, f"{policy} R{R}: no summary row"):
            for key in ("psnr", "ssim", "nmse"):
                mean = float(np.mean([float(r[key]) for r in group]))
                chk.expect(_close(mean, float(summary[0][key]), 1e-12),
                           f"{policy} R{R}: summary {key} is not the row mean")


def check_oracle(chk: Checks, oracle_text: str, n_images: int,
                 policy_text: dict[str, str]) -> None:
    """The oracle's mean NMSE is below every policy's."""
    def mean_nmse(text):
        return float(np.mean([float(r["nmse"]) for r in read_csv(text)
                              if r["image_id"] != "summary"]))

    oracle = [r for r in read_csv(oracle_text) if r["image_id"] != "summary"]
    chk.expect(len(oracle) == n_images, f"oracle has {len(oracle)} rows")
    for policy, text in policy_text.items():
        chk.expect(mean_nmse(oracle_text) < mean_nmse(text),
                   f"oracle mean NMSE is not below {policy}'s")


def _check_logged_trajectory(chk, tdir: Path, image_id: str, num_lines: int,
                             R: int, rho_c: float) -> None:
    mask = json.loads((tdir / f"{image_id}_mask.json").read_text(encoding="utf-8"))
    final = np.asarray(mask["flags"], dtype=bool)
    acquired = center_flags(num_lines, rho_c)
    n_center = int(acquired.sum())
    for line in (tdir / f"{image_id}.jsonl").read_text(encoding="utf-8").splitlines():
        step = json.loads(line)
        for j in step["lines"]:
            chk.expect(not acquired[j], f"{tdir.name}/{image_id}: line {j} taken twice")
            acquired[j] = True
        chk.expect(step["mask_nnz"] == int(acquired.sum()),
                   f"{tdir.name}/{image_id}: mask_nnz disagrees at step {step['step']}")
    chk.expect(np.array_equal(final, acquired),
               f"{tdir.name}/{image_id}: final mask is not centre plus logged lines")
    chk.expect(int(final.sum()) == n_center + budget(num_lines, R, rho_c),
               f"{tdir.name}/{image_id}: {int(final.sum())} lines, want centre + budget")


# ---------------------------------------------------------------------------
# per-scan line decisions
# ---------------------------------------------------------------------------

def check_scan(chk: Checks, label: str, image: np.ndarray, traj, R: int,
               rho_c: float) -> None:
    """One line per step, each the best-scoring free line, up to the budget."""
    num_lines = image.shape[0]
    acquired = center_flags(num_lines, rho_c)
    n_center = int(acquired.sum())
    want = budget(num_lines, R, rho_c)
    chk.expect(len(traj.steps) == want, f"{label}: {len(traj.steps)} steps, want {want}")
    for rec in traj.steps:
        if not chk.expect(len(rec.lines) == 1, f"{label}: step {rec.step} took {rec.lines}"):
            return
        j = int(rec.lines[0])
        chk.expect(not acquired[j], f"{label}: step {rec.step} line {j} was not free")
        free = np.flatnonzero(~acquired)
        scores = np.asarray(rec.scores, dtype=np.float64)
        best = int(free[np.argmax(scores[free])])
        chk.expect(j == best, f"{label}: step {rec.step} took {j}, best free is {best}")
        acquired[j] = True
        chk.expect(np.array_equal(np.asarray(rec.mask.flags), acquired),
                   f"{label}: step {rec.step} mask snapshot is wrong")
    chk.expect(np.array_equal(np.asarray(traj.final_mask.flags), acquired)
               and int(acquired.sum()) == n_center + want,
               f"{label}: final mask is not centre plus budget")
    ref = np.abs(image)
    chk.expect(_close(nmse(ref, np.abs(traj.reconstruction)), float(traj.final_nmse), 1e-9),
               f"{label}: final NMSE does not recompute")
