"""Complex images, centered unitary FFTs, line masks, and the acquisition model.

Conventions used throughout the package:

* k-space is stored DC-centered: the zero-frequency coefficient lives at
  index ``(H//2, W//2)``.  The shift in and out of numpy's corner-DC layout
  happens inside :func:`forward_fft` / :func:`inverse_fft`.
* Both transforms are unitary (``norm="ortho"``), so energy is preserved and
  score maps keep a consistent scale across resolutions.
* A "line" is one full index along the first (row) axis of the centered
  grid, i.e. one phase-encoding readout.  Images whose phase-encoding axis
  is the second axis should be transposed on ingest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError, ShapeMismatchError


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero.

    Used for both the center-line count and the sampling budget so the two
    never disagree on rounding semantics.
    """
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{what} contains NaN or Inf")


def forward_fft(img: np.ndarray) -> np.ndarray:
    """Centered unitary 2D FFT of a (complex) image.

    DC ends up at ``(H//2, W//2)``; Parseval holds exactly up to float error.
    """
    img = np.asarray(img)
    _check_finite(img, "image")
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(img), norm="ortho"))


def inverse_fft(ksp: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`forward_fft`."""
    ksp = np.asarray(ksp)
    _check_finite(ksp, "k-space")
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(ksp), norm="ortho"))


@dataclass(frozen=True)
class SamplingMask:
    """Binary per-line Cartesian mask.

    ``flags[j]`` is True when phase-encoding line ``j`` (row ``j`` of the
    centered k-space grid) has been acquired.  Masks are immutable; updates
    return a new mask so trajectory snapshots stay valid.
    """

    num_lines: int
    flags: np.ndarray
    center_count: int = 0

    def __post_init__(self):
        flags = np.asarray(self.flags, dtype=bool)
        if flags.shape != (self.num_lines,):
            raise ShapeMismatchError(
                f"flags shape {flags.shape} != ({self.num_lines},)"
            )
        object.__setattr__(self, "flags", flags)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.flags))

    def line_indices(self) -> np.ndarray:
        return np.flatnonzero(self.flags)

    def free_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.flags)

    def with_lines(self, lines) -> "SamplingMask":
        """New mask with the given lines additionally flagged."""
        flags = self.flags.copy()
        flags[np.asarray(lines, dtype=int)] = True
        return SamplingMask(self.num_lines, flags, self.center_count)

    def apply(self, ksp: np.ndarray) -> np.ndarray:
        """Zero out unsampled lines.  Idempotent projection."""
        if ksp.shape[0] != self.num_lines:
            raise ShapeMismatchError(
                f"k-space has {ksp.shape[0]} lines, mask expects {self.num_lines}"
            )
        out = np.zeros_like(ksp)
        out[self.flags] = ksp[self.flags]
        return out


@dataclass(frozen=True)
class NoiseSpec:
    """Complex Gaussian measurement noise, std `sigma` per real component."""

    sigma: float = 0.0

    def __post_init__(self):
        # noisy values are squared and summed (channel variance, NMSE), so
        # sigma stays far below sqrt(float max); NaN fails the comparison
        if not 0 <= self.sigma <= 1e100:
            raise ConfigError(f"noise sigma must be finite and in [0, 1e100], "
                              f"got {self.sigma}")

    def draw(self, shape, rng: np.random.Generator) -> np.ndarray:
        """Noise field for a full grid, drawn from `rng`; all-zero when
        sigma == 0, which consumes nothing from `rng`."""
        if self.sigma == 0.0:
            return np.zeros(shape, dtype=np.complex128)
        return self.sigma * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )


def make_center_mask(num_lines: int, rho_c: float) -> SamplingMask:
    """Mask with round(num_lines * rho_c) contiguous lines around DC.

    DC is line ``num_lines // 2``.  For even counts the block extends one
    line further below DC than above, matching the usual fastMRI padding.
    """
    if num_lines < 1:
        raise ConfigError(f"num_lines must be >= 1, got {num_lines}")
    if not 0.0 <= rho_c <= 1.0:
        raise ConfigError(f"center fraction must lie in [0, 1], got {rho_c}")
    count = round_half_away(num_lines * rho_c)
    count = min(count, num_lines)
    flags = np.zeros(num_lines, dtype=bool)
    start = (num_lines - count + 1) // 2
    flags[start : start + count] = True
    return SamplingMask(num_lines, flags, center_count=count)


def sampling_budget(num_lines: int, R: float, rho_c: float) -> int:
    """Non-central line budget round(num_lines * (1 - rho_c) / R), R > 0."""
    if not R > 0:  # NaN fails the comparison
        raise ConfigError(f"acceleration must be > 0, got {R}")
    return round_half_away(num_lines * (1.0 - rho_c) / R)


def acquire(
    img: np.ndarray,
    mask: SamplingMask,
    noise_field: np.ndarray | None = None,
) -> np.ndarray:
    """Simulate one acquisition: mask ∘ (FFT(img) + noise_field).

    `noise_field` is a full-grid draw (e.g. `NoiseSpec.draw`), so that a
    caller can reuse one physical noise realization across repeated
    measurements of the same lines; None measures without noise.  Unsampled
    entries are exactly zero.
    """
    img = np.asarray(img, dtype=np.complex128)
    if img.shape[0] != mask.num_lines:
        raise ShapeMismatchError(
            f"image has {img.shape[0]} phase-encoding lines, "
            f"mask expects {mask.num_lines}"
        )
    ksp = forward_fft(img)
    if noise_field is not None:
        ksp += noise_field
    return mask.apply(ksp)


def zero_fill(ksp: np.ndarray) -> np.ndarray:
    """Zero-filled reconstruction: inverse FFT of the (masked) k-space."""
    return inverse_fft(ksp)
