"""Reverse-mode differentiation for the reconstruction pipeline.

The pipeline is a fixed composition of a handful of primitives (affine maps,
layer norm, softmax attention, GELU feed-forward, the centered unitary FFT,
the split of a complex image into its stacked real and imaginary channels,
and the straight-through quantizer), so instead of a generic
scalar autodiff we record composite nodes with hand-derived adjoints on a
:class:`Tape`.  Every op is one pair of plain functions, ``forward(*inputs,
**static) -> (out, cache)`` and ``vjp(cache, g)``, which returns one gradient
(or None) per input from a cache that holds all it reads, weights included.
The VJPs of ops with several inputs also take a mask, ``vjp(cache, g,
needs)``, and skip the products of the inputs it marks False.  Each adjoint
is finite-difference tested in isolation.  `Tape.apply` records the pair, so
`Tape.replay_check` re-runs the forward that made each value.

Gradient conventions:

* every real tensor's gradient is a real float64 array of the same shape;
* a complex value's gradient holds the independent partials w.r.t. its real
  and imaginary parts, combined as ``g_re + 1j * g_im``;
* the adjoint of the centered unitary inverse FFT is the centered unitary
  forward FFT (the shift permutations make the transform matrix symmetric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.special import erf

from .errors import ShapeMismatchError, TapeConsistencyError
from .fourier import forward_fft, inverse_fft
from .tokenizer import (
    Codebook,
    channel_stats,
    nearest_entry_indices,
    patchify,
    split_channels,
    unpatchify,
)

LN_EPS = 1e-5
# Bytes of float64 attention scores per block (one 256^2 head).
# `attention_forward` and `attention_vjp` run over blocks of whole (batch
# item, head) slices whose L x L scores fit here, so that a block's scores and
# score gradients stay in cache; a 64^2 image's call (L = 64, 4 heads) is one
# block.  Query rows are never split: that would change the order in which
# g_k sums, and NumPy sends a one-row product down a matrix-vector BLAS path
# whose last bits differ from the full product's.
ATTENTION_BLOCK_BYTES = 512 * 1024


# ---------------------------------------------------------------------------
# primitive forward / vjp pairs
# ---------------------------------------------------------------------------

def _flat2(x):
    """Collapse leading axes: (..., A) -> (-1, A)."""
    return x.reshape(-1, x.shape[-1])


def _unbroadcast(g, shape):
    """Reduce a gradient to `shape` by summing the broadcast axes."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def affine_forward(x, w, b):
    return x @ w + b, (x, w)


def affine_vjp(cache, g, needs=(True, True, True)):
    x, w = cache
    return (g @ w.T if needs[0] else None,
            _flat2(x).T @ _flat2(g) if needs[1] else None,
            _flat2(g).sum(axis=0) if needs[2] else None)


def layer_norm_forward(x, gamma, beta):
    """Row-wise layer norm with affine."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = np.mean(xhat ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layer_norm_vjp(cache, g, needs=(True, True, True)):
    xhat, inv, gamma = cache
    gx = None
    if needs[0]:
        gx_hat = g * gamma
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gx_hat - m1 - xhat * m2)
    return (gx, _flat2(g * xhat).sum(axis=0) if needs[1] else None,
            _flat2(g).sum(axis=0) if needs[2] else None)


def channel_norm_forward(x):
    """Normalization of each (H, W) channel of `x` to zero mean, unit std
    (no affine)."""
    mean, std = channel_stats(x).broadcast()
    inv = 1.0 / std
    z = (x - mean) * inv
    return z, (z, inv)


def channel_norm_vjp(cache, g):
    z, inv = cache
    axes = (-2, -1)
    return (inv * (g - g.mean(axis=axes, keepdims=True)
                   - z * np.mean(g * z, axis=axes, keepdims=True)),)


def softmax(z, out=None):
    """Row-wise softmax, stable for logits of any magnitude.

    Builds the result in one array: a new one, or `out` (which may be `z`).
    """
    out = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_vjp(p, g):
    t = g * p
    s = t.sum(axis=-1, keepdims=True)
    np.subtract(g, s, out=t)
    t *= p
    return t


def softmax_and_log(z):
    """Row-wise softmax and log-softmax from one shifted exponential."""
    logp = z - z.max(axis=-1, keepdims=True)
    p = np.exp(logp)
    s = p.sum(axis=-1, keepdims=True)
    p /= s
    logp -= np.log(s)
    return p, logp


def gelu_erf_term(x):
    """1 + erf(x / sqrt 2), the factor GELU's forward and backward share."""
    return 1.0 + erf(x / math.sqrt(2.0))


def gelu_forward(x, erf_term, out=None):
    """0.5 x (1 + erf(x / sqrt 2)) from `erf_term` = `gelu_erf_term(x)`,
    written to `out` when given."""
    out = np.multiply(x, 0.5, out=out)
    out *= erf_term
    return out


def gelu_vjp(x, g, erf_term):
    cdf = 0.5 * erf_term
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return g * (cdf + x * pdf)


def _head_blocks(n, heads, L):
    """Index pairs (items, heads) into (n, heads, ...) arrays: blocks of
    whole slices whose L x L float64 scores fit `ATTENTION_BLOCK_BYTES`,
    either several items with every head or some heads of one item."""
    per = max(1, ATTENTION_BLOCK_BYTES // (8 * L * L))
    if per >= heads:
        step = per // heads
        return [(slice(i, i + step), slice(None)) for i in range(0, n, step)]
    return [(slice(i, i + 1), slice(h, h + per))
            for i in range(n) for h in range(0, heads, per)]


def _split_heads(a, heads):
    """(n, L, E) -> a (n, heads, L, dh) view."""
    n, L, E = a.shape
    return a.reshape(n, L, heads, E // heads).transpose(0, 2, 1, 3)


def attention_forward(y, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Full bidirectional multi-head self-attention over all positions.

    `y` is (..., L, E); any leading axes are independent batch items.  The
    scores are formed in `_head_blocks` blocks, straight into the cached
    probabilities, and each block's context into its heads' columns of `o`.
    """
    *lead, L, E = y.shape
    if E % heads:
        raise ShapeMismatchError(f"embed dim {E} not divisible by {heads} heads")
    dh = E // heads
    yb = y.reshape(-1, L, E)
    n = yb.shape[0]
    q = _split_heads(yb @ wq + bq, heads)
    k = _split_heads(yb @ wk + bk, heads)
    v = _split_heads(yb @ wv + bv, heads)
    kt = k.transpose(0, 1, 3, 2)
    probs = np.empty((n, heads, L, L))
    o = np.empty((n, L, E))
    ctx = _split_heads(o, heads)
    for blk in _head_blocks(n, heads, L):
        p = np.matmul(q[blk], kt[blk], out=probs[blk])
        p /= math.sqrt(dh)
        softmax(p, out=p)
        np.matmul(p, v[blk], out=ctx[blk])
    out = (o @ wo + bo).reshape(*lead, L, E)
    return out, (y, q, k, v, probs, o, wq, wk, wv, wo)


def attention_vjp(cache, g, needs=(True,) * 9):
    """Gradients for (y, wq, bq, wk, bk, wv, bv, wo, bo).  The score
    gradients live one `_head_blocks` block at a time; g_q, g_k and g_v are
    written into their heads' columns of (n, L, E) arrays."""
    y, q, k, v, probs, o, wq, wk, wv, wo = cache
    n, heads, L, dh = q.shape
    E = heads * dh
    gb = g.reshape(n, L, E)
    g_wo = _flat2(o).T @ _flat2(gb) if needs[7] else None
    g_bo = _flat2(gb).sum(axis=0) if needs[8] else None
    gc = _split_heads(gb @ wo.T, heads)
    gq, gk, gv = np.empty((n, L, E)), np.empty((n, L, E)), np.empty((n, L, E))
    g_q, g_k, g_v = (_split_heads(a, heads) for a in (gq, gk, gv))
    vt = v.transpose(0, 1, 3, 2)
    pt = probs.transpose(0, 1, 3, 2)
    for blk in _head_blocks(n, heads, L):
        g_scores = softmax_vjp(probs[blk], gc[blk] @ vt[blk])
        np.matmul(pt[blk], gc[blk], out=g_v[blk])
        g_scores /= math.sqrt(dh)
        np.matmul(g_scores, k[blk], out=g_q[blk])
        np.matmul(g_scores.transpose(0, 1, 3, 2), q[blk], out=g_k[blk])
    g_y = None
    if needs[0]:
        g_y = (gq @ wq.T + gk @ wk.T + gv @ wv.T).reshape(y.shape)
    yf = _flat2(y)
    grads = [g_y]
    for ga, nw, nb in ((gq, *needs[1:3]), (gk, *needs[3:5]), (gv, *needs[5:7])):
        grads.append(yf.T @ _flat2(ga) if nw else None)
        grads.append(_flat2(ga).sum(axis=0) if nb else None)
    return (*grads, g_wo, g_bo)


def ffn_forward(z, w1, b1, w2, b2):
    """GELU feed-forward; the cache keeps the erf term rather than the
    activation, which the backward rebuilds from it with the same bits."""
    pre = z @ w1 + b1
    erf_term = gelu_erf_term(pre)
    act = gelu_forward(pre, erf_term)
    return act @ w2 + b2, (z, pre, erf_term, w1, w2)


def ffn_vjp(cache, g, needs=(True,) * 5):
    z, pre, erf_term, w1, w2 = cache
    g_act = g @ w2.T
    g_pre = gelu_vjp(pre, g_act, erf_term)
    g_w2 = None
    if needs[3]:
        # the activation is rebuilt in g_act's buffer, which is no longer needed
        act = gelu_forward(pre, erf_term, out=g_act)
        g_w2 = _flat2(act).T @ _flat2(g)
    return (g_pre @ w1.T if needs[0] else None,
            _flat2(z).T @ _flat2(g_pre) if needs[1] else None,
            _flat2(g_pre).sum(axis=0) if needs[2] else None,
            g_w2,
            _flat2(g).sum(axis=0) if needs[4] else None)


def entropy_sum_from_logits(logits):
    """Total Shannon entropy (nats) of the row-wise softmax distributions."""
    p, logp = softmax_and_log(logits)
    h = -np.sum(p * logp, axis=-1)
    return float(h.sum()), (p, logp, h)


def entropy_sum_vjp(cache, g):
    p, logp, h = cache
    return (g * (-p * (logp + h[..., None])),)


def cross_entropy_from_logits(logits, targets):
    """Mean over positions of -log p(target), in the log-sum-exp form.

    `logits` is (..., K) and `targets` (...); the mean runs over every
    position including any batch axes.
    """
    targets = np.asarray(targets, dtype=int)
    if targets.shape != logits.shape[:-1]:
        raise ShapeMismatchError(
            f"targets {targets.shape} do not match logits {logits.shape}"
        )
    if np.any(targets < 0) or np.any(targets >= logits.shape[-1]):
        raise ShapeMismatchError("target index out of codebook range")
    p, logp = softmax_and_log(logits)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)
    loss = float(-picked.mean())
    return loss, (p, targets)


def cross_entropy_vjp(cache, g):
    p, targets = cache
    grad = p.copy()
    np.put_along_axis(
        grad, targets[..., None],
        np.take_along_axis(grad, targets[..., None], axis=-1) - 1.0, axis=-1
    )
    grad *= g
    grad /= p.size // p.shape[-1]
    return (grad,)


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

@dataclass
class TapeNode:
    name: str
    out_id: int
    in_ids: tuple[int, ...]
    forward: Callable   # inputs -> (out, cache), static arguments bound
    backward: Callable  # (g[, needs]) -> one gradient (or None) per input


class Tape:
    """Ordered record of the forward pass with one backward rule per node.

    With ``record=False`` the tape keeps every value but no node, so the
    backward caches (attention probabilities among them) are dropped as soon
    as each op returns.  Such a tape serves inference only: `replay_check`
    and `backward` raise on it.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._values: list[np.ndarray] = []
        self.nodes: list[TapeNode] = []

    def source(self, value, name: str = "src") -> int:
        self._values.append(np.asarray(value))
        return len(self._values) - 1

    def val(self, vid: int) -> np.ndarray:
        return self._values[vid]

    def push(self, name, in_ids, out_value, forward, backward) -> int:
        # perfbench's tracer wraps this method and times `backward` by name
        out_id = self.source(out_value, name)
        if self.record:
            self.nodes.append(TapeNode(name, out_id, tuple(in_ids), forward,
                                       backward))
        return out_id

    def apply(self, name, forward, vjp, in_ids, **static) -> int:
        """Run the op `forward(*inputs, **static) -> (out, cache)` on the
        values of `in_ids` and record it with `vjp(cache, g)`."""
        forward = partial(forward, **static)
        out, cache = forward(*[self._values[i] for i in in_ids])
        return self.push(name, in_ids, out, forward,
                         lambda g, *needs: vjp(cache, g, *needs))

    def _require_record(self, what: str) -> None:
        if not self.record:
            raise TapeConsistencyError(f"{what} needs a recording tape")

    def replay_check(self) -> None:
        """Re-run every node's forward on its recorded inputs; require bit
        equality with the recorded output."""
        self._require_record("replay_check")
        for node in self.nodes:
            redone, _ = node.forward(*[self._values[i] for i in node.in_ids])
            redone = np.asarray(redone)
            stored = self._values[node.out_id]
            if redone.shape != stored.shape or not np.array_equal(
                redone, stored, equal_nan=True
            ):
                raise TapeConsistencyError(
                    f"node '{node.name}' does not replay to its recorded output"
                )

    def backward(self, out_id: int, seed=None,
                 wrt=None) -> dict[int, np.ndarray]:
        """Reverse sweep from `out_id`; returns the gradients of the source
        ids `wrt` (default: every source) that the sweep reaches.

        A forward pass over the nodes marks the values that depend on a
        `wrt` id.  A node's VJP runs only when one of its inputs is marked,
        and is handed the mask of its inputs when some are not, so that it
        skips their products.  Each node output's gradient is dropped as
        soon as that node's VJP has run.
        """
        self._require_record("backward")
        if wrt is None:
            made = {node.out_id for node in self.nodes}
            wrt = [vid for vid in range(len(self._values)) if vid not in made]
        marked = set(wrt)
        for node in self.nodes:
            if not marked.isdisjoint(node.in_ids):
                marked.add(node.out_id)
        if seed is None:
            seed = np.ones_like(self._values[out_id], dtype=np.float64)
        grads: dict[int, np.ndarray] = {out_id: np.asarray(seed)}
        for node in reversed(self.nodes):
            g_out = grads.pop(node.out_id, None)
            if g_out is None:
                continue
            needs = tuple(vid in marked for vid in node.in_ids)
            if not any(needs):
                continue
            if all(needs):
                g_ins = node.backward(g_out)
            else:
                g_ins = node.backward(g_out, needs)
            for vid, g in zip(node.in_ids, g_ins):
                if g is None:
                    continue
                if vid in grads:
                    grads[vid] = grads[vid] + g
                else:
                    grads[vid] = g
        return {vid: grads[vid] for vid in wrt if vid in grads}


# ---------------------------------------------------------------------------
# tape-recorded ops: the small ops' (forward, vjp) pairs, then the builders
# ---------------------------------------------------------------------------

def _add(a, b):
    return a + b, (a.shape, b.shape)


def _add_vjp(cache, g, needs=(True, True)):
    return tuple(_unbroadcast(g, shape) if need else None
                 for shape, need in zip(cache, needs))


def _identity_vjp(cache, g):
    return (g,)


def _snap(lat, entries):
    return entries[nearest_entry_indices(lat, entries)], None


def _shift(lat, offset):
    return lat + offset, None


def _patchify(x, p):
    return patchify(x, p), (x.shape[-2] // p, x.shape[-1] // p, p)


def _patchify_vjp(cache, g):
    return (unpatchify(g, *cache),)


def _ifft2c(y):
    return inverse_fft(y), None


def _ifft2c_vjp(cache, g):
    # unitary + symmetric transform: the adjoint under the re/im-partials
    # convention is the forward FFT
    return (forward_fft(np.asarray(g, dtype=np.complex128)),)


def _split(x):
    return split_channels(x), None


def _split_vjp(cache, g):
    # each channel's partials, combined as g_re + 1j * g_im
    g = g.astype(np.complex128)
    return (1j * g[..., 1, :, :] + g[..., 0, :, :],)


def _stream_sum(x):
    return x[..., 0, :, :] + x[..., 1, :, :], None


def _stream_sum_vjp(cache, g):
    return (np.stack((g, g), axis=-3),)


def t_add(tape: Tape, a: int, b: int, name="add") -> int:
    return tape.apply(name, _add, _add_vjp, (a, b))


def t_affine(tape: Tape, x: int, w: int, b: int, name="affine") -> int:
    return tape.apply(name, affine_forward, affine_vjp, (x, w, b))


def t_layer_norm(tape: Tape, x: int, gamma: int, beta: int,
                 name="layer_norm") -> int:
    return tape.apply(name, layer_norm_forward, layer_norm_vjp,
                      (x, gamma, beta))


def t_channel_norm(tape: Tape, x: int, name="channel_norm") -> int:
    return tape.apply(name, channel_norm_forward, channel_norm_vjp, (x,))


def t_patchify(tape: Tape, x: int, p: int, name="patchify") -> int:
    return tape.apply(name, _patchify, _patchify_vjp, (x,), p=p)


def t_ste_quantize(tape: Tape, lat: int, cb: Codebook,
                   name="ste_quantize") -> int:
    """Snap to nearest codebook entries; backward is the identity (STE)."""
    return tape.apply(name, _snap, _identity_vjp, (lat,), entries=cb.entries)


def t_frozen_shift(tape: Tape, lat: int, offset: np.ndarray,
                   name="frozen_quantize") -> int:
    """Quantizer surrogate with the snap offset frozen at a reference point.

    Forward is lat + offset, so at the reference latents it reproduces the
    snapped values exactly while staying differentiable.  This is the
    function whose true derivative the STE gradient is, and is what the
    finite-difference oracle perturbs.
    """
    return tape.apply(name, _shift, _identity_vjp, (lat,), offset=offset)


def t_attention(tape: Tape, y: int, wq, bq, wk, bk, wv, bv, wo, bo,
                heads: int, name="attention") -> int:
    return tape.apply(name, attention_forward, attention_vjp,
                      (y, wq, bq, wk, bk, wv, bv, wo, bo), heads=heads)


def t_ffn(tape: Tape, z: int, w1, b1, w2, b2, name="ffn") -> int:
    return tape.apply(name, ffn_forward, ffn_vjp, (z, w1, b1, w2, b2))


def t_entropy_sum(tape: Tape, logits: int, name="entropy_sum") -> int:
    return tape.apply(name, entropy_sum_from_logits, entropy_sum_vjp,
                      (logits,))


def t_cross_entropy(tape: Tape, logits: int, targets: np.ndarray,
                    name="cross_entropy") -> int:
    return tape.apply(name, cross_entropy_from_logits, cross_entropy_vjp,
                      (logits,), targets=targets)


def t_ifft2c(tape: Tape, y: int, name="ifft2c") -> int:
    """Centered unitary inverse FFT node (complex to complex)."""
    return tape.apply(name, _ifft2c, _ifft2c_vjp, (y,))


def t_split(tape: Tape, x: int, name="split") -> int:
    """Complex (..., H, W) to its (..., 2, H, W) real and imaginary stack."""
    return tape.apply(name, _split, _split_vjp, (x,))


def t_stream_sum(tape: Tape, x: int, name="stream_sum") -> int:
    """Sum of the two streams of a (..., 2, L, D) stack."""
    return tape.apply(name, _stream_sum, _stream_sum_vjp, (x,))
