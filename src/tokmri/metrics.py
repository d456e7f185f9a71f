"""Pixel-wise quality metrics on magnitude images: NMSE, PSNR, SSIM."""

from __future__ import annotations

import numpy as np

from .errors import GeometryError, ShapeMismatchError, UndefinedMetricError

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _as_pair(ref, est):
    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if ref.shape != est.shape:
        raise ShapeMismatchError(f"shapes differ: {ref.shape} vs {est.shape}")
    return ref, est


def nmse(ref: np.ndarray, est: np.ndarray) -> float:
    """Normalized mean squared error ||ref - est||^2 / ||ref||^2."""
    ref, est = _as_pair(ref, est)
    denom = float(np.sum(ref * ref))
    if denom == 0.0:
        raise UndefinedMetricError("NMSE undefined for an all-zero reference")
    return float(np.sum((ref - est) ** 2)) / denom


def psnr(ref: np.ndarray, est: np.ndarray, cap: float = PSNR_CAP_DB) -> float:
    """Peak signal-to-noise ratio in dB, peak taken from the reference.

    A perfect match returns `cap` instead of infinity.
    """
    ref, est = _as_pair(ref, est)
    mse = float(np.mean((ref - est) ** 2))
    if mse == 0.0:
        return cap
    peak = float(ref.max())
    if peak == 0.0:
        raise UndefinedMetricError("PSNR undefined for an all-zero reference")
    return min(cap, 10.0 * np.log10(peak * peak / mse))


def window_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Mean of every fully interior `window`×`window` block of a 2-D array.

    Separable: `window` shifted row adds, then `window` shifted column adds,
    O(HW·2w) instead of O(HW·w²). Summing rows first, then columns, each in
    index order, gives the same bits as
    `sliding_window_view(x, (window, window)).mean(axis=(-2, -1))`: with a
    7×7 window, on every shape from 7 to 71 px per side wider than 7 px. An
    image exactly `window` wide (one output column) may differ in the last
    bit. Summing columns first or by cumulative sums changes the bits.
    """
    n = x.shape[0] - window + 1
    m = x.shape[1] - window + 1
    rows = x[:, :m].copy()
    for b in range(1, window):
        rows += x[:, b:b + m]
    acc = rows[:n].copy()
    for a in range(1, window):
        acc += rows[a:a + n]
    acc /= window * window
    return acc


def ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """Mean local SSIM with a uniform window and population statistics.

    The dynamic range is max(ref) - min(ref); local means/variances come
    from every fully interior window ("valid" placement).
    """
    ref, est = _as_pair(ref, est)
    if min(ref.shape) < SSIM_WINDOW:
        raise GeometryError(f"image {ref.shape} smaller than the "
                            f"{SSIM_WINDOW}×{SSIM_WINDOW} SSIM window")
    dr = float(ref.max() - ref.min())
    if dr == 0.0:
        dr = 1.0
    c1 = (SSIM_K1 * dr) ** 2
    c2 = (SSIM_K2 * dr) ** 2

    mu_x = window_mean(ref, SSIM_WINDOW)
    mu_y = window_mean(est, SSIM_WINDOW)
    xx = window_mean(ref * ref, SSIM_WINDOW) - mu_x * mu_x
    yy = window_mean(est * est, SSIM_WINDOW) - mu_y * mu_y
    xy = window_mean(ref * est, SSIM_WINDOW) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * xy + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (xx + yy + c2)
    return float(np.mean(num / den))


def evaluate(ref_mag: np.ndarray, est_mag: np.ndarray,
             psnr_cap: float = PSNR_CAP_DB) -> dict[str, float]:
    """All three metrics for one magnitude-image pair."""
    return {
        "psnr": psnr(ref_mag, est_mag, cap=psnr_cap),
        "ssim": ssim(ref_mag, est_mag),
        "nmse": nmse(ref_mag, est_mag),
    }
