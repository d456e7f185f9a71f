"""Synthetic ground truth: randomized ellipse phantoms, plus deterministic
dataset splits.

All generation is a pure function of (spec, seed).  Phantoms are complex:
the magnitude comes from summed ellipses and the optional phase is a smooth
low-order polynomial field, so the real/imaginary token streams both carry
structure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _pixel_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    # pixel centers on [-1, 1]
    coords = -1.0 + (2.0 * np.arange(size) + 1.0) / size
    return np.meshgrid(coords, coords, indexing="xy")


def ellipse_membership(x, y, x0, y0, a, b, theta_deg):
    """True inside (or on) the rotated ellipse."""
    th = math.radians(theta_deg)
    xr = (x - x0) * math.cos(th) + (y - y0) * math.sin(th)
    yr = -(x - x0) * math.sin(th) + (y - y0) * math.cos(th)
    return (xr / a) ** 2 + (yr / b) ** 2 <= 1.0


def render_ellipses(size: int, ellipses) -> np.ndarray:
    """Additive analytic rendering at pixel centers."""
    x, y = _pixel_grid(size)
    img = np.zeros((size, size), dtype=np.float64)
    for (x0, y0, a, b, theta, value) in ellipses:
        img += np.where(ellipse_membership(x, y, x0, y0, a, b, theta), value, 0.0)
    return img


@dataclass(frozen=True)
class PhantomSpec:
    size: int = 64
    n_ellipses: int = 8
    intensity_lo: float = 0.2
    intensity_hi: float = 1.0
    phase_mode: str = "smooth-random"  # or "zero"
    seed: int = 0

    def __post_init__(self):
        # one complex128 k-space of a larger image would exceed 4 GiB
        if not 16 <= self.size <= 2**14:
            raise ConfigError(f"size must be in [16, 16384], got {self.size}")
        if self.phase_mode not in ("zero", "smooth-random"):
            raise ConfigError(f"unknown phase mode {self.phase_mode!r}")
        lo, hi = self.intensity_lo, self.intensity_hi
        # no ellipse, or none of positive intensity, leaves an all-zero
        # phantom; NaN fails every comparison
        if self.n_ellipses < 1:
            raise ConfigError(f"n_ellipses must be >= 1, got {self.n_ellipses}")
        if not 0 <= lo < math.inf:
            raise ConfigError(f"intensity_lo must be finite and >= 0, got {lo}")
        if not (lo <= hi < math.inf and hi > 0):
            raise ConfigError(f"intensity_hi must be finite, > 0 and >= "
                              f"intensity_lo {lo}, got {hi}")
        # overlapping ellipses add up; the margin of 2 absorbs rounding, and
        # the int-float comparison is exact for any n_ellipses
        if not self.n_ellipses <= sys.float_info.max / 2 / hi:
            raise ConfigError(f"n_ellipses {self.n_ellipses} times "
                              f"intensity_hi {hi} exceeds half the float max")


def _smooth_phase(size: int, rng: np.random.Generator) -> np.ndarray:
    """Low-order 2D polynomial phase, rescaled so |phase| <= pi."""
    x, y = _pixel_grid(size)
    basis = [np.ones_like(x), x, y, x * x, x * y, y * y]
    coeffs = rng.normal(size=len(basis))
    phase = sum(c * b for c, b in zip(coeffs, basis))
    peak = float(np.max(np.abs(phase)))
    if peak == 0.0:
        return np.zeros_like(phase)
    amp = rng.uniform(0.3, 0.95) * math.pi
    return phase * (amp / peak)


def random_ellipse_phantom(spec: PhantomSpec) -> np.ndarray:
    """Random summed ellipses, clipped and normalized to [0, 1] magnitude."""
    rng = np.random.default_rng(spec.seed)
    ellipses = []
    for _ in range(spec.n_ellipses):
        x0, y0 = rng.uniform(-0.6, 0.6, size=2)
        a, b = rng.uniform(0.08, 0.45, size=2)
        theta = rng.uniform(0.0, 180.0)
        value = rng.uniform(spec.intensity_lo, spec.intensity_hi)
        ellipses.append((x0, y0, a, b, theta, value))
    mag = render_ellipses(spec.size, ellipses)
    mag = np.clip(mag, 0.0, None)
    peak = float(mag.max())
    if peak > 0.0:
        mag = mag / peak
    if spec.phase_mode == "smooth-random":
        phase = _smooth_phase(spec.size, rng)
        return mag * np.exp(1j * phase)
    return mag.astype(np.complex128)


def make_splits(n_train: int, n_val: int, n_test: int,
                seed: int = 0) -> tuple[list[int], list[int], list[int]]:
    """Deterministic, pairwise-disjoint phantom seeds for the three splits."""
    for name, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        if n < 0:
            raise ConfigError(f"{name} count must be >= 0")
    total = n_train + n_val + n_test
    rng = np.random.default_rng(seed)
    seeds: list[int] = []
    seen: set[int] = set()
    while len(seeds) < total:
        draw = int(rng.integers(0, 2**31))
        if draw not in seen:
            seen.add(draw)
            seeds.append(draw)
    return (
        seeds[:n_train],
        seeds[n_train : n_train + n_val],
        seeds[n_train + n_val :],
    )
