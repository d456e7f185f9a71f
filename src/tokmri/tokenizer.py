"""Patch tokenizer: affine encoder/decoder plus a k-means codebook.

One tokenizer serves both the real and imaginary channels.  A complex image
becomes a (..., 2, H, W) real stack in `split_channels`, and normalization,
encoding, quantization and decoding take any leading axes, so both channels
go through each in one call.  The encoder and decoder are single affine
maps per patch, fit by least squares (PCA), which keeps the quantizer's
gradient path analyzable.

Channels are normalized to zero mean, unit std per image before encoding;
the stats are returned so reconstruction can invert them.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDataError,
    GeometryError,
    InvalidInputError,
    ShapeMismatchError,
)
from .storage import decode_floats, encode_f64, is_int, read_json, write_json

CHANNEL_NORM_EPS = 1e-12
# Rows per block of the nearest-entry search: one block's distance matrix is
# 2 MB at K=256, and a per-image call (64 or 256 rows) is a single block.
NEAREST_BLOCK_ROWS = 1024
# k-means++ seeding recomputes from differences every expanded distance at
# most this fraction of max|x|^2 + |c|^2, far above the expansion's rounding
# error (about D machine epsilons of it).
SEED_EXACT_RTOL = 1e-9
KMEANS_TOL = 1e-6  # relative distortion change that ends Lloyd's iterations


@dataclass(frozen=True)
class Codebook:
    """K discrete latent vectors of dimension D."""

    entries: np.ndarray  # (K, D)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2:
            raise InvalidInputError("codebook entries must be a K×D matrix")
        if not np.all(np.isfinite(entries)):
            raise InvalidInputError("codebook entries must be finite")
        if np.unique(entries, axis=0).shape[0] != entries.shape[0]:
            raise InvalidInputError("codebook entries must be pairwise distinct")
        object.__setattr__(self, "entries", entries)

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    @property
    def D(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class LatentGrid:
    """L×D latent vectors laid out on a (grid_h, grid_w) patch grid, for
    each index of any leading axes."""

    vectors: np.ndarray  # (..., L, D)
    grid_h: int
    grid_w: int

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim < 2 or vectors.shape[-2] != self.grid_h * self.grid_w:
            raise ShapeMismatchError(
                f"latent vectors {vectors.shape} do not match grid "
                f"{self.grid_h}×{self.grid_w}"
            )
        object.__setattr__(self, "vectors", vectors)

    @property
    def L(self) -> int:
        return self.vectors.shape[-2]

    @property
    def D(self) -> int:
        return self.vectors.shape[-1]


def split_channels(img: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of complex (..., H, W) images as one
    (..., 2, H, W) float64 stack."""
    img = np.asarray(img, dtype=np.complex128)
    return np.stack((img.real, img.imag), axis=-3)


@dataclass(frozen=True)
class ChannelStats:
    """Per-image normalization record: x_norm = (x - mean) / std.

    `mean` and `std` hold one value per (H, W) channel, in arrays of the
    channels' leading shape.
    """

    mean: np.ndarray
    std: np.ndarray

    def broadcast(self) -> tuple[np.ndarray, np.ndarray]:
        """`mean` and `std` shaped to broadcast over (..., H, W) channels."""
        return (np.asarray(self.mean, dtype=np.float64)[..., None, None],
                np.asarray(self.std, dtype=np.float64)[..., None, None])


def channel_stats(channels: np.ndarray) -> ChannelStats:
    """Population mean/std of each real channel over its last two axes, std
    floored away from zero."""
    x = np.asarray(channels, dtype=np.float64)
    mu = np.mean(x, axis=(-2, -1))
    std = np.sqrt(np.var(x, axis=(-2, -1)) + CHANNEL_NORM_EPS)
    return ChannelStats(mean=mu, std=std)


def normalize_channel(channels: np.ndarray, stats: ChannelStats) -> np.ndarray:
    mean, std = stats.broadcast()
    return (np.asarray(channels, dtype=np.float64) - mean) / std


def denormalize_channel(channels: np.ndarray, stats: ChannelStats) -> np.ndarray:
    mean, std = stats.broadcast()
    return np.asarray(channels, dtype=np.float64) * std + mean


def patchify(channels: np.ndarray, p: int) -> np.ndarray:
    """Row-major non-overlapping p×p patches of each (H, W) channel,
    flattened to length p²: (..., H, W) -> (..., L, p²)."""
    x = np.asarray(channels, dtype=np.float64)
    if x.ndim < 2:
        raise GeometryError(f"expected 2D channels, got shape {x.shape}")
    *lead, h, w = x.shape
    if h % p or w % p:
        raise GeometryError(f"patch size {p} does not divide image {h}×{w}")
    gh, gw = h // p, w // p
    return (x.reshape(*lead, gh, p, gw, p).swapaxes(-3, -2)
            .reshape(*lead, gh * gw, p * p))


def unpatchify(patches: np.ndarray, grid_h: int, grid_w: int, p: int) -> np.ndarray:
    """Inverse of :func:`patchify`."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.shape[-2:] != (grid_h * grid_w, p * p):
        raise GeometryError(
            f"patches {patches.shape} do not match grid {grid_h}×{grid_w}, p={p}"
        )
    lead = patches.shape[:-2]
    return (patches.reshape(*lead, grid_h, grid_w, p, p).swapaxes(-3, -2)
            .reshape(*lead, grid_h * p, grid_w * p))


def nearest_entry_indices(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Index of the L2-nearest entry per (..., D) vector, in an array of the
    vectors' leading shape; ties go to the lowest index.

    Uses the |v|^2 - 2 v.e + |e|^2 expansion (one matmul) rather than
    materializing all pairwise differences, over blocks of
    `NEAREST_BLOCK_ROWS` rows so that memory stays bounded for any row count.
    The last block ends at the last row and overlaps the one before, so no
    block has a single row: NumPy sends a one-row product down a
    matrix-vector BLAS path whose last bits differ from the full product's.
    """
    rows = vectors.reshape(-1, vectors.shape[-1])
    n = rows.shape[0]
    e2 = np.sum(entries * entries, axis=1)[None, :]
    out = np.empty(n, dtype=np.intp)
    for lo in range(0, n, NEAREST_BLOCK_ROWS):
        lo = max(0, min(lo, n - NEAREST_BLOCK_ROWS))
        v = rows[lo:lo + NEAREST_BLOCK_ROWS]
        d2 = np.sum(v * v, axis=1)[:, None] - 2.0 * v @ entries.T + e2
        out[lo:lo + v.shape[0]] = np.argmin(d2, axis=1)  # first (lowest) index
    return out.reshape(vectors.shape[:-1])


def quantize(lat: LatentGrid, cb: Codebook) -> tuple[np.ndarray, LatentGrid]:
    """Snap each latent to its L2-nearest codebook entry.

    Ties break to the lowest index.  Returns (indices, snapped grid); the
    indices have the latents' leading shape and L.
    """
    if lat.D != cb.D:
        raise ShapeMismatchError(
            f"latent dimension {lat.D} != codebook dimension {cb.D}"
        )
    indices = nearest_entry_indices(lat.vectors, cb.entries)
    return indices, LatentGrid(cb.entries[indices], lat.grid_h, lat.grid_w)


class Tokenizer:
    """Affine patch encoder + codebook + affine decoder."""

    def __init__(self, p, enc_w, enc_b, dec_w, dec_b, codebook: Codebook):
        self.p = int(p)
        self.enc_w = np.asarray(enc_w, dtype=np.float64)
        self.enc_b = np.asarray(enc_b, dtype=np.float64)
        self.dec_w = np.asarray(dec_w, dtype=np.float64)
        self.dec_b = np.asarray(dec_b, dtype=np.float64)
        self.codebook = codebook

    @property
    def D(self) -> int:
        return self.enc_w.shape[0]

    def encode(self, channels: np.ndarray) -> LatentGrid:
        """Affine projection of each patch of (..., H, W) channels to D
        latent dims."""
        x = np.asarray(channels, dtype=np.float64)
        gh, gw = x.shape[-2] // self.p, x.shape[-1] // self.p
        patches = patchify(x, self.p)
        return LatentGrid(patches @ self.enc_w.T + self.enc_b, gh, gw)

    def decode(self, lat: LatentGrid) -> np.ndarray:
        """Affine map back to patches, then reassembly to an image channel."""
        patches = lat.vectors @ self.dec_w.T + self.dec_b
        return unpatchify(patches, lat.grid_h, lat.grid_w, self.p)

    def quantize(self, lat: LatentGrid) -> tuple[np.ndarray, LatentGrid]:
        return quantize(lat, self.codebook)

    def save(self, path: str | Path) -> None:
        arrays = {"entries": self.codebook.entries, "enc_w": self.enc_w,
                  "enc_b": self.enc_b, "dec_w": self.dec_w, "dec_b": self.dec_b}
        write_json(path, {
            "K": self.codebook.K, "D": self.D, "p": self.p,
            **{name: base64.b64encode(encode_f64(arr)).decode("ascii")
               for name, arr in arrays.items()},
        })

    @classmethod
    def load(cls, path: str | Path) -> "Tokenizer":
        """Read a file written by `save`.

        A file that is not a JSON object, or a missing, malformed or
        non-finite field, raises InvalidInputError naming the file and the
        field.
        """
        obj = read_json(path)
        for key in ("K", "D", "p"):
            value = obj.get(key)
            if not is_int(value) or value < 1:
                raise InvalidInputError(
                    f"{path}: field {key!r} must be an integer >= 1, got {value!r}"
                )
        K, D, p = obj["K"], obj["D"], obj["p"]
        shapes = {"enc_w": (D, p * p), "enc_b": (D,), "dec_w": (p * p, D),
                  "dec_b": (p * p,), "entries": (K, D)}
        arrays = {}
        for name, shape in shapes.items():
            where, text = f"{path}: field {name!r}", obj.get(name)
            if not isinstance(text, str):
                raise InvalidInputError(f"{where} is missing or not a string")
            try:
                raw = base64.b64decode(text, validate=True)
            except ValueError:  # binascii.Error, or a non-ASCII character
                raise InvalidInputError(f"{where} is not base64") from None
            arrays[name] = decode_floats(raw, shape, where)
        try:
            codebook = Codebook(arrays.pop("entries"))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: field 'entries': {exc}") from None
        return cls(p=p, codebook=codebook, **arrays)


def kmeans(
    data: np.ndarray,
    K: int,
    iters: int = 50,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's k-means with k-means++ seeding.

    After each update, empty clusters are reseeded in index order, each to
    the point farthest from its assigned centroid, which is relabelled.
    Stops after `iters` rounds or when the relative distortion change drops
    below `KMEANS_TOL`.  Returns (centroids, assignments, trace of the
    objective after each update).
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if K > n:
        raise ConfigError(f"cannot fit K={K} centroids to {n} points")
    rng = np.random.default_rng(seed)

    # k-means++ seeding by the expansion |x|^2 - 2 x.c + |c|^2 with |x|^2
    # computed once.  A row whose expanded distance lies within the
    # expansion's rounding error of zero (every negative one does) is
    # recomputed from its differences, so a row equal to a chosen centroid
    # reads exactly 0 and the draws see the sums of the direct formula.
    centroids = np.empty((K, data.shape[1]), dtype=np.float64)
    x2 = np.einsum("ij,ij->i", data, data)
    x2_max = float(x2.max())

    def sq_dist(centroid):
        c2 = float(centroid @ centroid)
        dist = x2 - 2.0 * (data @ centroid) + c2
        near = np.flatnonzero(dist <= SEED_EXACT_RTOL * (x2_max + c2))
        dist[near] = np.sum(np.square(data[near] - centroid), axis=1)
        return dist

    centroids[0] = data[rng.integers(n)]
    closest = sq_dist(centroids[0])
    for k in range(1, K):
        total = closest.sum()
        if total <= 0:
            # remaining points coincide with chosen centroids; pick any
            centroids[k] = data[rng.integers(n)]
            continue
        probs = closest / total
        centroids[k] = data[rng.choice(n, p=probs)]
        np.minimum(closest, sq_dist(centroids[k]), out=closest)

    trace: list[float] = []
    prev = np.inf
    assign = np.zeros(n, dtype=int)
    for _ in range(iters):
        assign = nearest_entry_indices(data, centroids)
        # distortion from the differences: the distance expansion can go
        # slightly negative from cancellation
        obj = float(np.sum((data - centroids[assign]) ** 2))
        trace.append(obj)
        # bincount adds each cluster's rows in row order, as
        # data[assign == k].mean(axis=0) does, so the means keep their bits
        counts = np.bincount(assign, minlength=K)
        sums = np.empty_like(centroids)
        for j in range(data.shape[1]):
            sums[:, j] = np.bincount(assign, weights=data[:, j], minlength=K)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        for k in np.flatnonzero(~filled):
            far = int(np.argmax(np.sum((data - centroids[assign]) ** 2, axis=1)))
            centroids[k] = data[far]
            assign[far] = k
        if prev - obj <= KMEANS_TOL * max(prev, 1.0):
            break
        prev = obj
    return centroids, assign, trace


def train_tokenizer(
    dataset,
    K: int,
    D: int,
    p: int,
    iters: int = 50,
    seed: int = 0,
) -> tuple[Tokenizer, dict]:
    """Fit the affine encoder/decoder and the codebook.

    `dataset` is an iterable of real (..., H, W) channels (already
    normalized by the caller when that is desired), read once.  The
    encoder/decoder solve the rank-D least-squares patch autoencoding
    problem (PCA); the codebook is k-means over the encoded training
    latents.
    """
    blocks = [patchify(c, p).reshape(-1, p * p) for c in dataset]
    if not blocks:
        raise ConfigError("training dataset is empty")
    patches = np.concatenate(blocks)
    del blocks
    if K > patches.shape[0]:
        raise ConfigError(f"K={K} exceeds the {patches.shape[0]} training patches")
    if D > p * p:
        raise ConfigError(f"latent dimension {D} exceeds patch dimension {p * p}")

    mean = patches.mean(axis=0)
    centered = patches - mean
    if float(np.max(np.abs(centered))) < 1e-12:
        raise DegenerateDataError("all training patches are identical")

    # Best rank-D affine autoencoder: principal components of the patches,
    # the right singular vectors of `centered` taken from its R factor
    # (Chan's R-SVD). This is dgesdd's own path for M >= 11·p²/6 rows, minus
    # forming the M×p² left factor U.
    _, _, vt = np.linalg.svd(np.linalg.qr(centered, mode="r"),
                             full_matrices=False)
    comps = vt[:D]  # (D, p*p)
    enc_w = comps
    enc_b = -comps @ mean
    dec_w = comps.T
    dec_b = mean

    latents = centered @ comps.T
    del centered
    centroids, _, trace = kmeans(latents, K, iters=iters, seed=seed)
    centroids = _dedupe_centroids(centroids, latents, rng=np.random.default_rng(seed))
    # kmeans' own assignment predates its last update and the dedupe
    assign = nearest_entry_indices(latents, centroids)

    tok = Tokenizer(
        p=p, enc_w=enc_w, enc_b=enc_b, dec_w=dec_w, dec_b=dec_b,
        codebook=Codebook(centroids),
    )
    recon = latents @ dec_w.T
    recon += dec_b
    recon -= patches
    np.square(recon, out=recon)
    report = {
        "n_patches": int(patches.shape[0]),
        "recon_mse": float(np.mean(recon)),
        "quant_distortion": float(
            np.mean(np.sum((latents - centroids[assign]) ** 2, axis=1))
        ),
        "kmeans_trace": trace,
    }
    return tok, report


def _dedupe_centroids(centroids, latents, rng):
    """Guarantee pairwise-distinct codebook entries.

    Duplicate centroids can only appear on degenerate data; nudge them
    toward distinct data points, falling back to tiny jitter.
    """
    for _ in range(8):
        _, first = np.unique(centroids, axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(centroids.shape[0]), first)
        if dup.size == 0:
            return centroids
        for k in dup:
            centroids[k] = latents[rng.integers(latents.shape[0])]
    _, first = np.unique(centroids, axis=0, return_index=True)
    dup = np.setdiff1d(np.arange(centroids.shape[0]), first)
    for k in dup:
        centroids[k] = centroids[k] + rng.normal(scale=1e-9, size=centroids.shape[1])
    return centroids
