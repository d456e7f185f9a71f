"""Reverse-mode differentiation for the reconstruction pipeline.

The pipeline is a fixed composition of a handful of primitives (affine maps,
layer norm, softmax attention, GELU feed-forward, the centered unitary FFT,
complex split, and the straight-through quantizer), so instead of a generic
scalar autodiff we record composite nodes with hand-derived adjoints on a
:class:`Tape`.  Each primitive also exists as a plain (forward, vjp) function
pair so its adjoint can be finite-difference tested in isolation.

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
from typing import Callable

import numpy as np
from scipy.special import erf

from .errors import ShapeMismatchError, TapeConsistencyError
from .fourier import forward_fft, inverse_fft
from .tokenizer import Codebook, patchify, unpatchify

LN_EPS = 1e-5


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
    return x @ w + b


def affine_vjp(x, w, g):
    return g @ w.T, _flat2(x).T @ _flat2(g), _flat2(g).sum(axis=0)


def layer_norm_forward(x, gamma, beta, eps=LN_EPS):
    """Row-wise layer norm with affine. Returns (out, cache)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, (xhat, inv)


def layer_norm_vjp(cache, gamma, g):
    xhat, inv = cache
    gx_hat = g * gamma
    m1 = gx_hat.mean(axis=-1, keepdims=True)
    m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
    gx = inv * (gx_hat - m1 - xhat * m2)
    return gx, _flat2(g * xhat).sum(axis=0), _flat2(g).sum(axis=0)


def channel_norm_forward(x, eps):
    """Whole-array normalization to zero mean, unit std (no affine)."""
    mu = x.mean()
    var = np.var(x)
    inv = 1.0 / math.sqrt(var + eps)
    z = (x - mu) * inv
    return z, (z, inv)


def channel_norm_vjp(cache, g):
    z, inv = cache
    return inv * (g - g.mean() - z * np.mean(g * z))


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


def attention_forward(y, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Full bidirectional multi-head self-attention over all positions.

    `y` is (..., L, E); any leading axes are independent batch items.
    """
    *lead, L, E = y.shape
    if E % heads:
        raise ShapeMismatchError(f"embed dim {E} not divisible by {heads} heads")
    dh = E // heads
    yb = y.reshape(-1, L, E)
    n = yb.shape[0]
    q = (yb @ wq + bq).reshape(n, L, heads, dh).transpose(0, 2, 1, 3)
    k = (yb @ wk + bk).reshape(n, L, heads, dh).transpose(0, 2, 1, 3)
    v = (yb @ wv + bv).reshape(n, L, heads, dh).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= math.sqrt(dh)
    probs = softmax(scores, out=scores)
    ctx = probs @ v  # (n, heads, L, dh)
    o = ctx.transpose(0, 2, 1, 3).reshape(n, L, E)
    out = (o @ wo + bo).reshape(*lead, L, E)
    return out, (y, q, k, v, probs, o)


def attention_vjp(cache, wq, wk, wv, wo, g):
    y, q, k, v, probs, o = cache
    *lead, L, E = y.shape
    n, heads, _, dh = q.shape
    gb = g.reshape(n, L, E)
    g_o = gb @ wo.T
    g_wo = _flat2(o).T @ _flat2(gb)
    g_bo = _flat2(gb).sum(axis=0)
    gc = g_o.reshape(n, L, heads, dh).transpose(0, 2, 1, 3)
    g_probs = gc @ v.transpose(0, 1, 3, 2)
    g_v = probs.transpose(0, 1, 3, 2) @ gc
    g_scores = softmax_vjp(probs, g_probs)
    g_scores /= math.sqrt(dh)
    g_q = g_scores @ k
    g_k = g_scores.transpose(0, 1, 3, 2) @ q
    gq = g_q.transpose(0, 2, 1, 3).reshape(n, L, E)
    gk = g_k.transpose(0, 2, 1, 3).reshape(n, L, E)
    gv = g_v.transpose(0, 2, 1, 3).reshape(n, L, E)
    g_y = (gq @ wq.T + gk @ wk.T + gv @ wv.T).reshape(y.shape)
    yf = _flat2(y)
    return (
        g_y,
        yf.T @ _flat2(gq), _flat2(gq).sum(axis=0),
        yf.T @ _flat2(gk), _flat2(gk).sum(axis=0),
        yf.T @ _flat2(gv), _flat2(gv).sum(axis=0),
        g_wo, g_bo,
    )


def ffn_forward(z, w1, b1, w2, b2):
    """GELU feed-forward; the cache keeps the erf term rather than the
    activation, which the backward rebuilds from it with the same bits."""
    pre = z @ w1 + b1
    erf_term = gelu_erf_term(pre)
    act = gelu_forward(pre, erf_term)
    return act @ w2 + b2, (z, pre, erf_term)


def ffn_vjp(cache, w1, w2, g):
    z, pre, erf_term = cache
    g_act = g @ w2.T
    g_pre = gelu_vjp(pre, g_act, erf_term)
    # the activation is rebuilt in g_act's buffer, which is no longer needed
    act = gelu_forward(pre, erf_term, out=g_act)
    g_w2 = _flat2(act).T @ _flat2(g)
    g_b2 = _flat2(g).sum(axis=0)
    g_z = g_pre @ w1.T
    g_w1 = _flat2(z).T @ _flat2(g_pre)
    g_b1 = _flat2(g_pre).sum(axis=0)
    return g_z, g_w1, g_b1, g_w2, g_b2


def entropy_sum_from_logits(logits):
    """Total Shannon entropy (nats) of the row-wise softmax distributions."""
    p, logp = softmax_and_log(logits)
    h = -np.sum(p * logp, axis=-1)
    return float(h.sum()), (p, logp, h)


def entropy_sum_vjp(cache, g):
    p, logp, h = cache
    return g * (-p * (logp + h[..., None]))


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
    return g * grad / (p.size // p.shape[-1])


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

@dataclass
class TapeNode:
    name: str
    out_id: int
    in_ids: tuple[int, ...]
    replay: Callable
    backward: Callable


class Tape:
    """Ordered record of the forward pass with one backward rule per node.

    With ``record=False`` the tape keeps every value but no node, so the
    replay closures and backward caches (attention probabilities among them)
    are dropped as soon as each op returns.  Such a tape serves inference
    only: `replay_check` and `backward` raise on it.
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

    def push(self, name, in_ids, out_value, replay, backward) -> int:
        out_id = self.source(out_value, name)
        if self.record:
            self.nodes.append(TapeNode(name, out_id, tuple(in_ids), replay,
                                       backward))
        return out_id

    def _require_record(self, what: str) -> None:
        if not self.record:
            raise TapeConsistencyError(f"{what} needs a recording tape")

    def replay_check(self) -> None:
        """Re-execute every node on its recorded inputs; require bit equality."""
        self._require_record("replay_check")
        for node in self.nodes:
            redone = node.replay(*[self._values[i] for i in node.in_ids])
            stored = self._values[node.out_id]
            if redone.shape != stored.shape or not np.array_equal(
                redone, stored, equal_nan=True
            ):
                raise TapeConsistencyError(
                    f"node '{node.name}' does not replay to its recorded output"
                )

    def backward(self, out_id: int, seed=None) -> dict[int, np.ndarray]:
        """Reverse sweep from `out_id`; returns gradients keyed by value id."""
        self._require_record("backward")
        if seed is None:
            seed = np.ones_like(self._values[out_id], dtype=np.float64)
        grads: dict[int, np.ndarray] = {out_id: np.asarray(seed)}
        for node in reversed(self.nodes):
            g_out = grads.get(node.out_id)
            if g_out is None:
                continue
            g_ins = node.backward(g_out)
            for vid, g in zip(node.in_ids, g_ins):
                if g is None:
                    continue
                if vid in grads:
                    grads[vid] = grads[vid] + g
                else:
                    grads[vid] = g
        return grads


# ---------------------------------------------------------------------------
# tape-recorded ops
# ---------------------------------------------------------------------------

def t_add(tape: Tape, a: int, b: int, name="add") -> int:
    av, bv = tape.val(a), tape.val(b)
    out = av + bv
    return tape.push(
        name, (a, b), out, lambda x, y: x + y,
        lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)),
    )


def t_affine(tape: Tape, x: int, w: int, b: int, name="affine") -> int:
    xv, wv, bv = tape.val(x), tape.val(w), tape.val(b)
    out = affine_forward(xv, wv, bv)

    def backward(g):
        return affine_vjp(xv, wv, g)

    return tape.push(name, (x, w, b), out, affine_forward, backward)


def t_layer_norm(tape: Tape, x: int, gamma: int, beta: int,
                 eps=LN_EPS, name="layer_norm") -> int:
    xv, gv, bv = tape.val(x), tape.val(gamma), tape.val(beta)
    out, cache = layer_norm_forward(xv, gv, bv, eps)

    def replay(xr, gr, br):
        return layer_norm_forward(xr, gr, br, eps)[0]

    def backward(g):
        return layer_norm_vjp(cache, gv, g)

    return tape.push(name, (x, gamma, beta), out, replay, backward)


def t_channel_norm(tape: Tape, x: int, eps: float, name="channel_norm") -> int:
    out, cache = channel_norm_forward(tape.val(x), eps)

    def backward(g):
        return (channel_norm_vjp(cache, g),)

    return tape.push(name, (x,), out,
                     lambda xr: channel_norm_forward(xr, eps)[0], backward)


def t_patchify(tape: Tape, x: int, p: int, name="patchify") -> int:
    xv = tape.val(x)
    gh, gw = xv.shape[0] // p, xv.shape[1] // p
    out = patchify(xv, p)

    def backward(g):
        return (unpatchify(g, gh, gw, p),)

    return tape.push(name, (x,), out, lambda xr: patchify(xr, p), backward)


def t_ste_quantize(tape: Tape, lat: int, cb: Codebook,
                   name="ste_quantize") -> tuple[np.ndarray, int]:
    """Snap to nearest codebook entries; backward is the identity (STE)."""
    from .tokenizer import nearest_entry_indices

    indices = nearest_entry_indices(tape.val(lat), cb.entries)
    snapped = cb.entries[indices]

    def replay(lr):
        return cb.entries[nearest_entry_indices(lr, cb.entries)]

    out_id = tape.push(name, (lat,), snapped, replay, lambda g: (g,))
    return indices, out_id


def t_frozen_shift(tape: Tape, lat: int, offset: np.ndarray,
                   name="frozen_quantize") -> int:
    """Quantizer surrogate with the snap offset frozen at a reference point.

    Forward is lat + offset, so at the reference latents it reproduces the
    snapped values exactly while staying differentiable.  This is the
    function whose true derivative the STE gradient is, and is what the
    finite-difference oracle perturbs.
    """
    out = tape.val(lat) + offset
    return tape.push(name, (lat,), out, lambda lr: lr + offset,
                     lambda g: (g,))


def t_attention(tape: Tape, y: int, wq, bq, wk, bk, wv, bv, wo, bo,
                heads: int, name="attention") -> int:
    ids = (y, wq, bq, wk, bk, wv, bv, wo, bo)
    vals = [tape.val(i) for i in ids]
    out, cache = attention_forward(*vals, heads)

    def replay(*vs):
        return attention_forward(*vs, heads)[0]

    def backward(g):
        return attention_vjp(cache, vals[1], vals[3], vals[5], vals[7], g)

    return tape.push(name, ids, out, replay, backward)


def t_ffn(tape: Tape, z: int, w1, b1, w2, b2, name="ffn") -> int:
    ids = (z, w1, b1, w2, b2)
    vals = [tape.val(i) for i in ids]
    out, cache = ffn_forward(*vals)

    def replay(*vs):
        return ffn_forward(*vs)[0]

    def backward(g):
        return ffn_vjp(cache, vals[1], vals[3], g)

    return tape.push(name, ids, out, replay, backward)


def t_entropy_sum(tape: Tape, logits: int, name="entropy_sum") -> int:
    out, cache = entropy_sum_from_logits(tape.val(logits))

    def backward(g):
        return (entropy_sum_vjp(cache, float(g)),)

    return tape.push(name, (logits,), np.float64(out),
                     lambda z: np.float64(entropy_sum_from_logits(z)[0]),
                     backward)


def t_cross_entropy(tape: Tape, logits: int, targets: np.ndarray,
                    name="cross_entropy") -> int:
    out, cache = cross_entropy_from_logits(tape.val(logits), targets)

    def backward(g):
        return (cross_entropy_vjp(cache, float(g)),)

    return tape.push(name, (logits,), np.float64(out),
                     lambda z: np.float64(cross_entropy_from_logits(z, targets)[0]),
                     backward)


def t_ifft2c(tape: Tape, y: int, name="ifft2c") -> int:
    """Centered unitary inverse FFT node (complex to complex)."""
    out = inverse_fft(tape.val(y))

    def backward(g):
        # unitary + symmetric transform: adjoint under the re/im-partials
        # convention is the forward FFT
        return (forward_fft(np.asarray(g, dtype=np.complex128)),)

    return tape.push(name, (y,), out, inverse_fft, backward)


def t_real(tape: Tape, x: int, name="real_part") -> int:
    out = np.ascontiguousarray(tape.val(x).real)
    return tape.push(name, (x,), out,
                     lambda xr: np.ascontiguousarray(xr.real),
                     lambda g: (g.astype(np.complex128),))


def t_imag(tape: Tape, x: int, name="imag_part") -> int:
    out = np.ascontiguousarray(tape.val(x).imag)
    return tape.push(name, (x,), out,
                     lambda xr: np.ascontiguousarray(xr.imag),
                     lambda g: (1j * g.astype(np.complex128),))
