"""Sequential active acquisition and the line-selection policies.

One trajectory alternates measurement and decision: acquire the current
mask, reconstruct through the tokenizer + transformer, score every
phase-encoding line, add the best unacquired ones, repeat.  Three policies
are provided:

* ``random``  - uniform among unacquired lines (the non-adaptive baseline);
* ``les``     - project the upsampled token-entropy map into k-space and
  score each line by its mean magnitude;
* ``geo``     - score each line by the summed magnitude of the gradient of
  the total token entropy w.r.t. the measured k-space;

one selector ranks the unacquired lines by either score vector.

``oracle_reconstruct`` is no policy: it encodes and decodes the fully
sampled ground truth, bounding what the discrete latent pipeline can
achieve, and acquires nothing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    BudgetExhaustedError,
    ConfigError,
    GeometryError,
    ShapeMismatchError,
)
from .fourier import (
    NoiseSpec,
    SamplingMask,
    forward_fft,
    make_center_mask,
    sampling_budget,
    zero_fill,
)
from .gradients import backward_to_kspace, line_gradient_scores, pipeline_forward
from .metrics import nmse
from .model import LatentTransformer, predicted_tokens, reconstruct, tokenize_image
from .tokenizer import Tokenizer

POLICIES = ("random", "les", "geo")


@dataclass(frozen=True)
class AcquisitionConfig:
    R: int = 8
    rho_c: float = 0.04
    T: int = 4
    lines_per_step: int | None = None  # None: ceil(budget / T)
    policy: str = "les"
    noise: NoiseSpec = NoiseSpec()
    noise_seed: int = 0   # noise is drawn with seed noise_seed ^ seed
    seed: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.R < 1:
            raise ConfigError(f"acceleration must be >= 1, got {self.R}")
        if self.T < 0:
            raise ConfigError(f"step count must be >= 0, got {self.T}")
        if self.lines_per_step is not None and self.lines_per_step < 1:
            raise ConfigError("lines_per_step must be positive")
        for key in ("noise_seed", "seed"):
            # both meet as uint64 in run_acquisition's noise generator
            value = getattr(self, key)
            if (not isinstance(value, (int, np.integer))
                    or not 0 <= value < 2**64):
                raise ConfigError(
                    f"{key} must be an integer in [0, 2**64), got {value!r}")

    def plan(self, num_lines: int) -> tuple[SamplingMask, int, int]:
        """The centre mask, the lines to acquire beyond it and the lines per
        step on `num_lines`-line images."""
        center = make_center_mask(num_lines, self.rho_c)
        budget = min(sampling_budget(num_lines, self.R, self.rho_c),
                     num_lines - center.nnz)
        per_step = (self.lines_per_step
                    or max(1, math.ceil(budget / max(self.T, 1))))
        if self.T > 0 and per_step * self.T < budget:
            raise ConfigError(
                f"{self.T} steps of {per_step} lines cannot reach budget {budget}"
            )
        return center, budget, per_step


@dataclass
class StepRecord:
    step: int
    lines: list[int]
    mask: SamplingMask              # snapshot after this step's update
    scores: np.ndarray | None       # per-line score vector (None for random)
    nmse_before: float              # recon quality from the pre-step mask
    time_ms: float = 0.0


@dataclass
class AcquisitionTrajectory:
    steps: list[StepRecord]
    final_mask: SamplingMask
    final_nmse: float
    reconstruction: np.ndarray


def patch_entropy(logits: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    """Per-position entropy (nats) of the softmax of each stream's (L, K)
    logits in the (2, L, K) stack, summed over both streams, on the grid."""
    _, (_, _, h) = ad.entropy_sum_from_logits(logits)
    h = h[0] + h[1]
    if h.size != grid_h * grid_w:
        raise ShapeMismatchError(
            f"{h.size} positions do not fill a {grid_h}×{grid_w} grid"
        )
    return h.reshape(grid_h, grid_w)


def _axis_lerp(values: np.ndarray, n_out: int, axis: int) -> np.ndarray:
    n_in = values.shape[axis]
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(src).astype(int)
    t = src - lo
    lo_c = np.clip(lo, 0, n_in - 1)
    hi_c = np.clip(lo + 1, 0, n_in - 1)
    a = np.take(values, lo_c, axis=axis)
    b = np.take(values, hi_c, axis=axis)
    shape = [1] * values.ndim
    shape[axis] = n_out
    t = t.reshape(shape)
    return a * (1.0 - t) + b * t


def upsample_bilinear(h: np.ndarray, H: int, W: int) -> np.ndarray:
    """Bilinear interpolation with half-pixel centers (align-corners false).

    Constant maps stay constant; edges clamp.
    """
    h = np.asarray(h, dtype=np.float64)
    gh, gw = h.shape
    if H % gh or W % gw:
        raise GeometryError(f"grid {gh}×{gw} does not divide image {H}×{W}")
    return _axis_lerp(_axis_lerp(h, H, axis=0), W, axis=1)


def entropy_map(logits: np.ndarray, grid_h: int, grid_w: int,
                H: int, W: int) -> np.ndarray:
    """|FFT| of the patch entropy map upsampled to the (H, W) image."""
    h = patch_entropy(logits, grid_h, grid_w)
    return np.abs(forward_fft(upsample_bilinear(h, H, W)))


def _free_lines(acquired: SamplingMask, n: int) -> np.ndarray:
    """The unacquired line indices, of which there must be at least `n`."""
    free = acquired.free_indices()
    if free.size < n:
        raise BudgetExhaustedError(
            f"requested {n} lines but only {free.size} remain")
    return free


def _top_free_lines(scores: np.ndarray, acquired: SamplingMask,
                    n: int) -> list[int]:
    """Highest-scoring unacquired lines; equal scores go to lower indices."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (acquired.num_lines,):
        raise ShapeMismatchError(
            f"score vector {scores.shape} vs {acquired.num_lines} lines"
        )
    _free_lines(acquired, n)
    masked = np.where(acquired.flags, -np.inf, scores)
    order = np.argsort(-masked, kind="stable")
    return [int(j) for j in order[:n]]


def les_select(line_scores: np.ndarray, acquired: SamplingMask,
               n: int) -> list[int]:
    """Top-n unacquired lines by mean k-space magnitude of the entropy map."""
    return _top_free_lines(line_scores, acquired, n)


def geo_select(line_scores: np.ndarray, acquired: SamplingMask,
               n: int) -> list[int]:
    """Top-n unacquired lines by summed gradient magnitude."""
    return _top_free_lines(line_scores, acquired, n)


def random_select(acquired: SamplingMask, n: int,
                  rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement among unacquired lines."""
    free = _free_lines(acquired, n)
    return [int(j) for j in rng.choice(free, size=n, replace=False)]


def oracle_reconstruct(ground_truth: np.ndarray,
                       tokenizer: Tokenizer) -> np.ndarray:
    """Encode-quantize-decode the fully sampled ground truth.

    Independent of any mask or policy; the discrete pipeline cannot do
    better than this on average.
    """
    tokens = tokenize_image(tokenizer, ground_truth)
    return reconstruct(tokenizer, tokens.q, tokens.stats)


def _reconstruct_from_logits(tokenizer, logits, stats, grid):
    """Decode the most likely tokens of the (2, L, K) `logits`."""
    q = predicted_tokens(logits, tokenizer.codebook, *grid)
    return reconstruct(tokenizer, q, stats)


def run_acquisition(
    ground_truth: np.ndarray,
    cfg: AcquisitionConfig,
    model: LatentTransformer,
    tokenizer: Tokenizer,
) -> AcquisitionTrajectory:
    """Run one full active-acquisition episode on one image.

    The initial mask is the center block.  Measurement noise is drawn once
    per trajectory, so re-measuring a line across steps returns the same
    physical values.  Per-step records include the score vector, the mask
    snapshot after the update, and the reconstruction quality the policy
    saw when it made its choice.
    """
    img = np.asarray(ground_truth, dtype=np.complex128)
    H, W = img.shape
    grid = (H // tokenizer.p, W // tokenizer.p)
    ref_mag = np.abs(img)

    def predict(ksp):
        """The logits and channel statistics of the zero-filled `ksp`."""
        zf = tokenize_image(tokenizer, zero_fill(ksp))
        return model.predict(zf.q), zf.stats

    mask, remaining, per_step = cfg.plan(H)
    steps = []
    rng = np.random.default_rng(cfg.seed)
    noise_rng = np.random.default_rng(
        int(np.uint64(cfg.noise_seed) ^ np.uint64(cfg.seed)))
    # every measurement masks this one noisy k-space, as `acquire` would
    full_ksp = forward_fft(img) + cfg.noise.draw(img.shape, noise_rng)

    for t in range(1, cfg.T + 1):
        if remaining <= 0:
            break
        n_t = min(per_step, remaining)
        t0 = time.perf_counter()
        ksp = mask.apply(full_ksp)

        if cfg.policy == "geo":
            state = pipeline_forward(ksp, tokenizer, model)
            logits, stats = state.logits, state.stats
            scores = line_gradient_scores(backward_to_kspace(state))
            lines = geo_select(scores, mask, n_t)
        else:
            logits, stats = predict(ksp)
            if cfg.policy == "les":
                scores = entropy_map(logits, *grid, H, W).mean(axis=1)
                lines = les_select(scores, mask, n_t)
            else:
                scores = None
                lines = random_select(mask, n_t, rng)
        elapsed_ms = (time.perf_counter() - t0) * 1e3

        recon_t = _reconstruct_from_logits(tokenizer, logits, stats, grid)
        mask = mask.with_lines(lines)
        remaining -= len(lines)
        steps.append(StepRecord(
            step=t,
            lines=lines,
            mask=mask,
            scores=scores,
            nmse_before=nmse(ref_mag, np.abs(recon_t)),
            time_ms=elapsed_ms,
        ))

    recon = _reconstruct_from_logits(tokenizer, *predict(mask.apply(full_ksp)),
                                     grid)
    return AcquisitionTrajectory(steps=steps, final_mask=mask,
                                 final_nmse=nmse(ref_mag, np.abs(recon)),
                                 reconstruction=recon)
