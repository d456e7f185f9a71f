"""Entropy objective and its gradient with respect to the measured k-space.

This is the scoring core of the gradient-driven selection policy: record the
composed forward pass

    k-space -> zero-fill -> split into a (2, H, W) re/im stack ->
    normalize -> encode -> STE-quantize -> fuse -> transformer ->
    total token entropy

on a tape, then sweep it backwards.  One node carries both channels from the
split to the fuse.  The quantizer contributes an identity Jacobian
(straight-through); the inverse-FFT node's adjoint is the forward FFT under
the unitary centered convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import InvalidInputError
from .model import STREAMS, LatentTransformer, build_forward
from .tokenizer import ChannelStats, Tokenizer, channel_stats


@dataclass
class PipelineState:
    """One recorded forward pass, ready for a reverse sweep."""

    tape: Tape
    y_id: int
    lat_id: int  # the (2, L, D) latents of both channels
    q_id: int    # and their snapped values
    loss_id: int
    logits: np.ndarray  # (2, L, K), in `STREAMS` order
    stats: ChannelStats
    loss: float

    def frozen_offsets(self) -> np.ndarray:
        """Snap offsets (snapped - latent) at this state's forward values."""
        return self.tape.val(self.q_id) - self.tape.val(self.lat_id)


def pipeline_forward(
    ksp: np.ndarray,
    tokenizer: Tokenizer,
    model: LatentTransformer,
    frozen_offsets: np.ndarray | None = None,
) -> PipelineState:
    """Record the full measurement-to-entropy forward pass.

    With `frozen_offsets` the quantizer is replaced by the differentiable
    surrogate latent + offset (offsets taken from a reference pass), which
    is the function the straight-through gradient differentiates; the
    finite-difference oracle perturbs exactly this path.
    """
    ksp = np.asarray(ksp, dtype=np.complex128)
    tape = Tape()
    y_id = tape.source(ksp, "y")
    x_id = ad.t_ifft2c(tape, y_id)
    ch_id = ad.t_split(tape, x_id)

    enc_wt = tape.source(tokenizer.enc_w.T, "enc_w_t")
    enc_b = tape.source(tokenizer.enc_b, "enc_b")
    z_id = ad.t_channel_norm(tape, ch_id)
    patches_id = ad.t_patchify(tape, z_id, tokenizer.p)
    lat_id = ad.t_affine(tape, patches_id, enc_wt, enc_b, name="encode")
    if frozen_offsets is None:
        q_id = ad.t_ste_quantize(tape, lat_id, tokenizer.codebook)
    else:
        q_id = ad.t_frozen_shift(tape, lat_id, frozen_offsets)

    pids = model.source_params(tape)
    heads = build_forward(tape, pids, model.cfg, q_id)
    h = [ad.t_entropy_sum(tape, logits, name=f"entropy_{s}")
         for s, logits in zip(STREAMS, heads)]
    loss_id = ad.t_add(tape, *h, name="total_entropy")

    return PipelineState(
        tape=tape,
        y_id=y_id,
        lat_id=lat_id,
        q_id=q_id,
        loss_id=loss_id,
        logits=np.stack([tape.val(logits) for logits in heads]),
        stats=channel_stats(tape.val(ch_id)),
        loss=float(tape.val(loss_id)),
    )


def backward_to_kspace(state: PipelineState) -> np.ndarray:
    """d(total entropy)/d(k-space), an (H, W) complex128 array.

    Each entry packs the independent partials w.r.t. the real and imaginary
    parts of that k-space entry as g_re + 1j*g_im.  Entries at unsampled
    positions are reported too; line selection is responsible for excluding
    already-acquired lines.
    """
    grads = state.tape.backward(state.loss_id, seed=np.float64(1.0),
                                wrt=(state.y_id,))
    return np.asarray(grads[state.y_id], dtype=np.complex128)


def line_gradient_scores(grad: np.ndarray) -> np.ndarray:
    """Per-line (row) sums of the complex k-space gradient's modulus."""
    G = np.abs(np.asarray(grad, dtype=np.complex128))
    if not np.all(np.isfinite(G)):
        raise InvalidInputError("gradient magnitude map contains NaN or Inf")
    return G.sum(axis=1)
