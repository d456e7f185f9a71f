import math

import numpy as np
import pytest
from scipy.special import erf

from tokmri import autodiff as ad
from tokmri.autodiff import Tape
from tokmri.errors import TapeConsistencyError
from tokmri.fourier import forward_fft, inverse_fft
from tokmri.tokenizer import Codebook, nearest_entry_indices

RNG = np.random.default_rng(2024)


def central_diff(f, x, i, h):
    xp = x.copy()
    xp.flat[i] += h
    xm = x.copy()
    xm.flat[i] -= h
    return (f(xp) - f(xm)) / (2 * h)


def check_vjp(f_forward, f_vjp_input, x, h=1e-6, tol=1e-6, n_probe=20):
    """Compare the adjoint against central differences on a random scalar
    projection of the output (the Jacobian-vector contract)."""
    out0 = f_forward(x)
    v = RNG.standard_normal(out0.shape)

    def scalar(xq):
        return float(np.sum(f_forward(xq) * v))

    g = f_vjp_input(x, v)
    idxs = RNG.choice(x.size, size=min(n_probe, x.size), replace=False)
    for i in idxs:
        fd = central_diff(scalar, x, i, h)
        an = g.flat[i]
        assert abs(fd - an) <= tol * max(abs(fd), abs(an), 1.0), (fd, an)


class TestPrimitiveAdjoints:
    def test_affine_input_grad(self):
        w = RNG.standard_normal((5, 7))
        b = RNG.standard_normal(7)
        check_vjp(
            lambda x: ad.affine_forward(x, w, b)[0],
            lambda x, v: ad.affine_vjp(ad.affine_forward(x, w, b)[1], v)[0],
            RNG.standard_normal((4, 5)),
        )

    def test_affine_weight_and_bias_grads(self):
        x = RNG.standard_normal((4, 5))
        b = RNG.standard_normal(7)
        w0 = RNG.standard_normal((5, 7))
        out0, cache = ad.affine_forward(x, w0, b)
        v = RNG.standard_normal(out0.shape)
        _, gw, gb = ad.affine_vjp(cache, v)
        for i in RNG.choice(w0.size, size=10, replace=False):
            fd = central_diff(
                lambda wq: float(np.sum(ad.affine_forward(x, wq, b)[0] * v)),
                w0, i, 1e-6,
            )
            assert abs(fd - gw.flat[i]) < 1e-6 * max(abs(fd), 1.0)
        assert np.allclose(gb, v.sum(axis=0))

    def test_layer_norm_grads(self):
        gamma = RNG.standard_normal(6) + 1.5
        beta = RNG.standard_normal(6)

        def fwd(x):
            return ad.layer_norm_forward(x, gamma, beta)[0]

        def vjp_in(x, v):
            _, cache = ad.layer_norm_forward(x, gamma, beta)
            return ad.layer_norm_vjp(cache, v)[0]

        check_vjp(fwd, vjp_in, RNG.standard_normal((5, 6)))

    def test_layer_norm_affine_grads(self):
        x = RNG.standard_normal((5, 6))
        gamma = RNG.standard_normal(6) + 1.5
        beta = RNG.standard_normal(6)
        out0, cache = ad.layer_norm_forward(x, gamma, beta)
        v = RNG.standard_normal(out0.shape)
        _, ggamma, gbeta = ad.layer_norm_vjp(cache, v)
        for i in range(6):
            fd = central_diff(
                lambda gq: float(np.sum(ad.layer_norm_forward(x, gq, beta)[0] * v)),
                gamma, i, 1e-6,
            )
            assert abs(fd - ggamma[i]) < 1e-6 * max(abs(fd), 1.0)
        assert np.allclose(gbeta, v.sum(axis=0))

    def test_channel_norm_grad(self):
        def fwd(x):
            return ad.channel_norm_forward(x)[0]

        def vjp_in(x, v):
            _, cache = ad.channel_norm_forward(x)
            return ad.channel_norm_vjp(cache, v)[0]

        check_vjp(fwd, vjp_in, RNG.standard_normal((6, 6)) * 2 + 1)

    @pytest.mark.parametrize("kind", ["random", "constant", "repeated"])
    def test_channel_norm_bits_match_inline_formula(self, kind):
        # the op reads its statistics from `channel_stats`; its output and
        # cached inverse std keep the bits of the formula written inline
        rng = np.random.default_rng(77)
        for _ in range(200):
            h, w = rng.integers(1, 70, size=2)
            scale = 10.0 ** rng.uniform(-8, 8)
            if kind == "random":
                x = rng.standard_normal((h, w)) * scale + rng.normal() * scale
            elif kind == "constant":
                x = np.full((h, w), rng.normal() * scale)
            else:
                x = rng.choice(rng.normal(size=3) * scale, size=(h, w))
            inv = 1.0 / math.sqrt(np.var(x) + 1e-12)
            z_ref = (x - x.mean()) * inv
            z, (z_cached, inv_cached) = ad.channel_norm_forward(x)
            assert z.tobytes() == z_ref.tobytes()
            assert z_cached is z
            assert np.float64(inv_cached).tobytes() == np.float64(inv).tobytes()

    def test_softmax_grad(self):
        def vjp_in(x, v):
            return ad.softmax_vjp(ad.softmax(x), v)

        check_vjp(ad.softmax, vjp_in, RNG.standard_normal((4, 9)))

    def test_softmax_extreme_logits_stable(self):
        z = np.array([[1e3, -1e3, 0.0], [1e3, 1e3, 1e3]])
        p = ad.softmax(z)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(np.isfinite(p))

    def test_softmax_shift_invariance(self):
        z = RNG.standard_normal((3, 7))
        assert np.allclose(ad.softmax(z), ad.softmax(z + 123.456), atol=1e-12)

    def test_gelu_grad(self):
        check_vjp(
            lambda x: ad.gelu_forward(x, ad.gelu_erf_term(x)),
            lambda x, v: ad.gelu_vjp(x, v, ad.gelu_erf_term(x)),
            RNG.standard_normal((8, 3)),
        )

    def test_attention_grads_all_inputs(self):
        L, E, heads = 5, 8, 2
        y = RNG.standard_normal((L, E))
        params = [RNG.standard_normal((E, E)) * 0.5 for _ in range(4)]
        biases = [RNG.standard_normal(E) * 0.2 for _ in range(4)]
        wq, wk, wv, wo = params
        bq, bk, bv, bo = biases

        def fwd_all(yq, wqq, wkq, wvq, woq):
            out, _ = ad.attention_forward(yq, wqq, bq, wkq, bk, wvq, bv,
                                          woq, bo, heads)
            return out

        out0 = fwd_all(y, wq, wk, wv, wo)
        v = RNG.standard_normal(out0.shape)
        _, cache = ad.attention_forward(y, wq, bq, wk, bk, wv, bv, wo, bo, heads)
        grads = ad.attention_vjp(cache, v)
        tensors = {
            0: (y, lambda t: fwd_all(t, wq, wk, wv, wo)),
            1: (wq, lambda t: fwd_all(y, t, wk, wv, wo)),
            3: (wk, lambda t: fwd_all(y, wq, t, wv, wo)),
            5: (wv, lambda t: fwd_all(y, wq, wk, t, wo)),
            7: (wo, lambda t: fwd_all(y, wq, wk, wv, t)),
        }
        for gi, (tensor, f) in tensors.items():
            g = grads[gi]
            for i in RNG.choice(tensor.size, size=8, replace=False):
                fd = central_diff(lambda t: float(np.sum(f(t) * v)), tensor, i, 1e-6)
                assert abs(fd - g.flat[i]) <= 1e-6 * max(abs(fd), abs(g.flat[i]), 1.0)

    def test_attention_batched_matches_loop(self):
        L, E, heads, B = 4, 8, 2, 3
        y = RNG.standard_normal((B, L, E))
        ps = [RNG.standard_normal((E, E)) * 0.5 for _ in range(4)]
        bs = [RNG.standard_normal(E) * 0.2 for _ in range(4)]
        out_b, _ = ad.attention_forward(y, ps[0], bs[0], ps[1], bs[1],
                                        ps[2], bs[2], ps[3], bs[3], heads)
        for b in range(B):
            out_1, _ = ad.attention_forward(y[b], ps[0], bs[0], ps[1], bs[1],
                                            ps[2], bs[2], ps[3], bs[3], heads)
            assert np.allclose(out_b[b], out_1, atol=1e-12)

    def test_ffn_grads(self):
        E, F = 6, 10
        w1 = RNG.standard_normal((E, F)) * 0.5
        b1 = RNG.standard_normal(F) * 0.2
        w2 = RNG.standard_normal((F, E)) * 0.5
        b2 = RNG.standard_normal(E) * 0.2

        def fwd(z):
            return ad.ffn_forward(z, w1, b1, w2, b2)[0]

        def vjp_in(z, v):
            _, cache = ad.ffn_forward(z, w1, b1, w2, b2)
            return ad.ffn_vjp(cache, v)[0]

        check_vjp(fwd, vjp_in, RNG.standard_normal((5, E)))

    def test_entropy_sum_grad(self):
        z0 = RNG.standard_normal((4, 6))

        def fwd(z):
            return np.float64(ad.entropy_sum_from_logits(z)[0])

        _, cache = ad.entropy_sum_from_logits(z0)
        (g,) = ad.entropy_sum_vjp(cache, 1.0)
        for i in RNG.choice(z0.size, size=12, replace=False):
            fd = central_diff(lambda z: float(fwd(z)), z0, i, 1e-6)
            assert abs(fd - g.flat[i]) <= 1e-6 * max(abs(fd), abs(g.flat[i]), 1.0)

    def test_cross_entropy_grad(self):
        z0 = RNG.standard_normal((5, 7))
        targets = RNG.integers(0, 7, size=5)

        def fwd(z):
            return ad.cross_entropy_from_logits(z, targets)[0]

        _, cache = ad.cross_entropy_from_logits(z0, targets)
        (g,) = ad.cross_entropy_vjp(cache, 1.0)
        for i in RNG.choice(z0.size, size=12, replace=False):
            fd = central_diff(fwd, z0, i, 1e-6)
            assert abs(fd - g.flat[i]) <= 1e-6 * max(abs(fd), abs(g.flat[i]), 1.0)

    def test_ifft_adjoint_matches_fd(self):
        # real scalar loss through the complex ifft node; both partials
        y0 = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        w = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))

        def loss(y):
            x = inverse_fft(y)
            return float(np.sum(x.real * w.real + x.imag * w.imag))

        g = forward_fft(w)  # adjoint rule under the re/im convention
        h = 1e-6
        for flat in RNG.choice(16, size=8, replace=False):
            r, c = divmod(int(flat), 4)
            for part, get in ((1.0, np.real), (1j, np.imag)):
                yp = y0.copy()
                yp[r, c] += h * part
                ym = y0.copy()
                ym[r, c] -= h * part
                fd = (loss(yp) - loss(ym)) / (2 * h)
                assert abs(fd - get(g[r, c])) < 1e-8


def two_pass_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def two_pass_log_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


class TestFusedSoftmax:
    """The one-buffer kernels equal the two-pass formulas bit for bit."""

    rng = np.random.default_rng(5)
    Z = rng.standard_normal((3, 16, 32)) * 4.0

    def test_softmax_matches_and_leaves_input(self):
        z = self.Z.copy()
        p = ad.softmax(z)
        assert np.array_equal(z, self.Z)
        assert np.array_equal(p, two_pass_softmax(self.Z))

    def test_softmax_vjp_matches(self):
        p = two_pass_softmax(self.Z)
        g = self.rng.standard_normal(self.Z.shape)
        old = p * (g - np.sum(g * p, axis=-1, keepdims=True))
        assert np.array_equal(ad.softmax_vjp(p, g), old)

    def test_entropy_sum_matches_two_pass(self):
        p, logp = two_pass_softmax(self.Z), two_pass_log_softmax(self.Z)
        h = -np.sum(p * logp, axis=-1)
        total, (p2, logp2, h2) = ad.entropy_sum_from_logits(self.Z)
        assert total == float(h.sum())
        assert np.array_equal(p2, p)
        assert np.array_equal(logp2, logp)
        assert np.array_equal(h2, h)

    def test_cross_entropy_matches_two_pass(self):
        targets = self.rng.integers(0, self.Z.shape[-1],
                                    size=self.Z.shape[:-1])
        picked = np.take_along_axis(two_pass_log_softmax(self.Z),
                                    targets[..., None], axis=-1)
        loss, (p, _) = ad.cross_entropy_from_logits(self.Z, targets)
        assert loss == float(-picked.mean())
        assert np.array_equal(p, two_pass_softmax(self.Z))

    def test_layer_norm_matches_two_subtractions(self):
        x = self.Z.copy()
        gamma, beta = self.rng.standard_normal((2, x.shape[-1]))
        mu = self.Z.mean(axis=-1, keepdims=True)
        var = np.mean((self.Z - mu) ** 2, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + ad.LN_EPS)
        xhat = (self.Z - mu) * inv
        out, (xhat2, inv2, _) = ad.layer_norm_forward(x, gamma, beta)
        assert np.array_equal(x, self.Z)
        assert np.array_equal(out, gamma * xhat + beta)
        assert np.array_equal(xhat2, xhat) and np.array_equal(inv2, inv)

    def test_attention_probs_match_two_pass(self):
        E, heads, L = 8, 2, 5
        y = self.rng.standard_normal((2, L, E))
        ws = [self.rng.standard_normal((E, E)) * 0.5 if i % 2 == 0
              else self.rng.standard_normal(E) for i in range(8)]
        _, (_, q, k, _, probs, *_) = ad.attention_forward(y, *ws, heads)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(E // heads)
        assert np.array_equal(probs, two_pass_softmax(scores))


def one_piece_attention(y, wq, bq, wk, bk, wv, bv, wo, bo, heads, g):
    """Attention, its cache and the VJP of `g` with every (n, heads, L, L)
    score tensor formed in one piece."""
    *lead, L, E = y.shape
    dh = E // heads
    yb = y.reshape(-1, L, E)
    n = yb.shape[0]

    def split(a):
        return a.reshape(n, L, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(n, L, E)

    q, k, v = split(yb @ wq + bq), split(yb @ wk + bk), split(yb @ wv + bv)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= np.sqrt(dh)
    probs = ad.softmax(scores, out=scores)
    o = merge(probs @ v)
    out = (o @ wo + bo).reshape(*lead, L, E)
    gb = g.reshape(n, L, E)
    gc = split(gb @ wo.T)
    g_scores = ad.softmax_vjp(probs, gc @ v.transpose(0, 1, 3, 2))
    g_scores /= np.sqrt(dh)
    gq = merge(g_scores @ k)
    gk = merge(g_scores.transpose(0, 1, 3, 2) @ q)
    gv = merge(probs.transpose(0, 1, 3, 2) @ gc)
    grads = [(gq @ wq.T + gk @ wk.T + gv @ wv.T).reshape(y.shape)]
    for x, ga in ((yb, gq), (yb, gk), (yb, gv), (o, gb)):
        grads += [x.reshape(-1, E).T @ ga.reshape(-1, E),
                  ga.reshape(-1, E).sum(axis=0)]
    return out, (y, q, k, v, probs, o), grads


class TestBlockedAttention:
    """Attention over blocks of whole (item, head) slices equals the
    one-piece computation bit for bit: output, cache and all nine
    gradients."""

    @pytest.mark.parametrize("batch, L, E, heads, blocks", [
        (1, 64, 64, 4, 1),     # one 64^2 image: the whole call is one block
        (8, 64, 64, 4, 2),     # 4 items of 4 heads per block
        (1, 256, 64, 4, 4),    # one 256^2 head per block
        (8, 256, 64, 4, 32),
        (3, 128, 48, 3, 3),    # 4 slices fit, 3 heads: one item per block
        (2, 128, 48, 6, 4),    # blocks of 4 and 2 heads of one item
    ])
    def test_matches_one_piece(self, batch, L, E, heads, blocks):
        assert len(ad._head_blocks(batch, heads, L)) == blocks
        rng = np.random.default_rng(L + heads)
        y = rng.standard_normal((batch, L, E))
        ws = [rng.standard_normal((E, E)) * 0.3 if i % 2 == 0
              else rng.standard_normal(E) * 0.1 for i in range(8)]
        g = rng.standard_normal(y.shape)
        out, cache = ad.attention_forward(y, *ws, heads)
        ref_out, ref_cache, ref_grads = one_piece_attention(y, *ws, heads, g)
        assert np.array_equal(out, ref_out)
        for got, want in zip(cache, ref_cache):
            assert np.array_equal(got, want)
        grads = ad.attention_vjp(cache, g)
        assert len(grads) == len(ref_grads) == 9
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)


def erf_ffn_forward(z, w1, b1, w2, b2):
    """The FFN forward that calls erf for GELU and caches the activation."""
    pre = z @ w1 + b1
    act = 0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0)))
    return act @ w2 + b2, (z, pre, act)


def erf_ffn_vjp(cache, w1, w2, g):
    """The FFN backward that calls erf again for GELU's derivative."""
    z, pre, act = cache
    g_act = g @ w2.T
    cdf = 0.5 * (1.0 + erf(pre / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * pre * pre) / np.sqrt(2.0 * np.pi)
    g_pre = g_act * (cdf + pre * pdf)
    return (g_pre @ w1.T, z.T @ g_pre, g_pre.sum(axis=0),
            act.T @ g, g.sum(axis=0))


class TestCachedGeluTerm:
    """The FFN that caches 1 + erf(pre / sqrt 2) equals the one that calls
    erf in both passes, bit for bit."""

    rng = np.random.default_rng(6)
    E, F = 8, 24

    def _weights(self):
        return (self.rng.standard_normal((self.E, self.F)) * 0.5,
                self.rng.standard_normal(self.F) * 0.2,
                self.rng.standard_normal((self.F, self.E)) * 0.5,
                self.rng.standard_normal(self.E) * 0.2)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_forward_and_vjp_match_erf_formula(self, duplicates):
        w1, b1, w2, b2 = self._weights()
        z = self.rng.standard_normal((64, self.E)) * 2.0
        if duplicates:
            z = z[self.rng.integers(0, 4, size=z.shape[0])]
        g = self.rng.standard_normal((64, self.E))
        out, cache = ad.ffn_forward(z, w1, b1, w2, b2)
        ref_out, ref_cache = erf_ffn_forward(z, w1, b1, w2, b2)
        assert np.array_equal(out, ref_out)
        for got, want in zip(ad.ffn_vjp(cache, g),
                             erf_ffn_vjp(ref_cache, w1, w2, g)):
            assert np.array_equal(got, want)

    def test_cache_holds_no_activation(self):
        w1, b1, w2, b2 = self._weights()
        z = self.rng.standard_normal((5, self.E))
        _, (z_c, pre, erf_term, *_) = ad.ffn_forward(z, w1, b1, w2, b2)
        assert z_c is z
        assert np.array_equal(erf_term, 1.0 + erf(pre / np.sqrt(2.0)))


BUILDERS = sorted(name for name in dir(ad) if name.startswith("t_"))


def every_op_graph() -> Tape:
    """A small tape that holds one node from every `t_*` builder, each node
    named after its builder."""
    rng = np.random.default_rng(11)
    tape = Tape()

    def src(*shape):
        return tape.source(rng.standard_normal(shape))

    y = tape.source(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    x = ad.t_ifft2c(tape, y, name="t_ifft2c")
    ch = ad.t_split(tape, x, name="t_split")
    z = ad.t_channel_norm(tape, ch, name="t_channel_norm")
    patches = ad.t_patchify(tape, z, 4, name="t_patchify")
    lat = ad.t_affine(tape, patches, src(16, 4), src(4), name="t_affine")
    cb = Codebook(rng.standard_normal((6, 4)))
    q = ad.t_ste_quantize(tape, lat, cb, name="t_ste_quantize")
    shifted = ad.t_frozen_shift(tape, lat, tape.val(q) - tape.val(lat),
                                name="t_frozen_shift")
    fused = ad.t_stream_sum(tape, ad.t_add(tape, q, shifted, name="t_add"),
                            name="t_stream_sum")
    h = ad.t_layer_norm(tape, fused, src(4), src(4), name="t_layer_norm")
    a = ad.t_attention(tape, h, src(4, 4), src(4), src(4, 4), src(4),
                       src(4, 4), src(4), src(4, 4), src(4), heads=2,
                       name="t_attention")
    f = ad.t_ffn(tape, a, src(4, 8), src(8), src(8, 4), src(4), name="t_ffn")
    logits = ad.t_affine(tape, f, src(4, 6), src(6))
    ad.t_entropy_sum(tape, logits, name="t_entropy_sum")
    ad.t_cross_entropy(tape, logits, rng.integers(0, 6, size=4),
                       name="t_cross_entropy")
    return tape


def node_named(tape: Tape, name: str):
    (node,) = [n for n in tape.nodes if n.name == name]
    return node


MULTI_INPUT_BUILDERS = [b for b in BUILDERS
                        if len(node_named(every_op_graph(), b).in_ids) > 1]


class TestTape:
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_replay_bit_identical(self, builder):
        tape = every_op_graph()
        tape.nodes = [node_named(tape, builder)]
        tape.replay_check()  # must not raise

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_vjp_returns_one_gradient_per_input(self, builder):
        tape = every_op_graph()
        node = node_named(tape, builder)
        g_ins = node.backward(np.ones_like(tape.val(node.out_id)))
        assert len(g_ins) == len(node.in_ids)
        for vid, g in zip(node.in_ids, g_ins):
            assert np.shape(g) == tape.val(vid).shape

    @pytest.mark.parametrize("builder", MULTI_INPUT_BUILDERS)
    def test_masked_vjp_computes_only_needed_gradients(self, builder):
        tape = every_op_graph()
        node = node_named(tape, builder)
        g = np.random.default_rng(3).standard_normal(tape.val(node.out_id).shape)
        full = node.backward(g)
        for i in range(len(node.in_ids)):
            needs = tuple(j == i for j in range(len(node.in_ids)))
            part = node.backward(g, needs)
            assert len(part) == len(needs)
            for j, (got, want) in enumerate(zip(part, full)):
                if j == i:
                    assert np.array_equal(got, want)
                else:
                    assert got is None

    def test_wrt_sweep_returns_exactly_wrt_ids(self):
        tape = every_op_graph()
        loss = tape.nodes[-1].out_id
        made = {node.out_id for node in tape.nodes}
        sources = [vid for vid in range(len(tape._values)) if vid not in made]
        full = tape.backward(loss)
        assert sorted(full) == sources  # every source reaches the loss
        wrt = (sources[0], sources[3])
        for _ in range(2):  # the node caches outlive a sweep
            part = tape.backward(loss, wrt=wrt)
            assert sorted(part) == sorted(wrt)
            for vid in wrt:
                assert np.array_equal(part[vid], full[vid])

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_replay_detects_tampering(self, builder):
        tape = every_op_graph()
        tape.replay_check()
        out_id = node_named(tape, builder).out_id
        tape._values[out_id] = tape._values[out_id] + 1.0
        with pytest.raises(TapeConsistencyError, match=f"'{builder}'"):
            tape.replay_check()

    def test_backward_linearity(self):
        # backward of a*L1 + b*L2 == a*backward(L1) + b*backward(L2)
        x0 = RNG.standard_normal((2, 5))
        w1 = RNG.standard_normal((5, 5))
        w2 = RNG.standard_normal((5, 5))
        bias = np.zeros(5)

        def grads_of(seed1, seed2):
            tape = Tape()
            x = tape.source(x0, "x")
            wa = tape.source(w1)
            wb = tape.source(w2)
            bb = tape.source(bias)
            l1 = ad.t_entropy_sum(tape, ad.t_affine(tape, x, wa, bb))
            l2 = ad.t_entropy_sum(tape, ad.t_affine(tape, x, wb, bb))
            g1 = tape.backward(l1, seed=np.float64(seed1))[x]
            g2 = tape.backward(l2, seed=np.float64(seed2))[x]
            return g1 + g2

        a, b = 2.5, -1.25
        combined = grads_of(a, b)
        separate = a * grads_of(1.0, 0.0) + b * grads_of(0.0, 1.0)
        assert np.allclose(combined, separate, atol=1e-10)

    def test_gradient_accumulates_over_fanout(self):
        tape = Tape()
        x0 = RNG.standard_normal((2, 3))
        x = tape.source(x0, "x")
        y = ad.t_add(tape, x, x)  # y = 2x
        loss = ad.t_entropy_sum(tape, y)
        g = tape.backward(loss)[x]
        tape2 = Tape()
        x2 = tape2.source(2.0 * x0, "x2")
        loss2 = ad.t_entropy_sum(tape2, x2)
        g2 = tape2.backward(loss2)[x2]
        assert np.allclose(g, 2.0 * g2, atol=1e-12)


    def test_non_recording_tape_keeps_values_only(self):
        tape = Tape(record=False)
        x = tape.source(np.random.default_rng(6).standard_normal((3, 4)), "x")
        loss = ad.t_entropy_sum(tape, x)
        ref = Tape()
        ref_loss = ad.t_entropy_sum(ref, ref.source(tape.val(x)))
        assert tape.val(loss) == ref.val(ref_loss)
        assert tape.nodes == []
        with pytest.raises(TapeConsistencyError, match="backward"):
            tape.backward(loss)
        with pytest.raises(TapeConsistencyError, match="replay_check"):
            tape.replay_check()


class TestSTENode:
    def test_forward_snaps_backward_passes_through(self):
        cb = Codebook(RNG.standard_normal((6, 3)))
        tape = Tape()
        lat = tape.source(RNG.standard_normal((4, 3)), "lat")
        q = ad.t_ste_quantize(tape, lat, cb)
        indices = nearest_entry_indices(tape.val(lat), cb.entries)
        assert np.array_equal(tape.val(q), cb.entries[indices])
        g_out = RNG.standard_normal((4, 3))
        grads = tape.backward(q, seed=g_out)
        assert np.array_equal(grads[lat], g_out)

    def test_matches_identity_backward_on_snapped_input(self):
        # with latents already on codebook entries the STE tape and a plain
        # identity tape share forward values; backwards must agree exactly
        cb = Codebook(RNG.standard_normal((6, 3)))
        lat0 = cb.entries[[0, 3, 5]]
        w = RNG.standard_normal((3, 4))
        b = RNG.standard_normal(4)

        tape = Tape()
        lat = tape.source(lat0, "lat")
        q = ad.t_ste_quantize(tape, lat, cb)
        out = ad.t_affine(tape, q, tape.source(w), tape.source(b))
        loss = ad.t_entropy_sum(tape, out)
        g_ste = tape.backward(loss)[lat]

        tape2 = Tape()
        lat2 = tape2.source(lat0, "lat")
        out2 = ad.t_affine(tape2, lat2, tape2.source(w), tape2.source(b))
        loss2 = ad.t_entropy_sum(tape2, out2)
        g_id = tape2.backward(loss2)[lat2]
        assert np.array_equal(g_ste, g_id)

    def test_frozen_shift_reproduces_snapped_values(self):
        cb = Codebook(RNG.standard_normal((6, 3)))
        tape = Tape()
        lat0 = RNG.standard_normal((4, 3))
        lat = tape.source(lat0, "lat")
        q = ad.t_ste_quantize(tape, lat, cb)
        offset = tape.val(q) - lat0
        tape2 = Tape()
        lat2 = tape2.source(lat0, "lat")
        q2 = ad.t_frozen_shift(tape2, lat2, offset)
        assert np.allclose(tape2.val(q2), tape.val(q), atol=1e-15)
