import math

import numpy as np
import pytest

from tokmri.errors import InvalidInputError, TapeConsistencyError
from tokmri.fourier import acquire, make_center_mask, zero_fill
from tokmri.gradients import (
    backward_to_kspace,
    line_gradient_scores,
    pipeline_forward,
)
from tokmri import autodiff as ad
from tokmri.autodiff import Tape, softmax
from tokmri.model import LatentTransformer, TransformerConfig, build_forward
from tokmri.phantoms import PhantomSpec, random_ellipse_phantom
from tokmri.policies import patch_entropy
from tokmri.tokenizer import Codebook, Tokenizer

RNG = np.random.default_rng(1234)


def one_hot_logits(hot, K):
    """0 at each row's hot index and -1e3 elsewhere: exp underflows to 0."""
    z = np.full((len(hot), K), -1e3)
    z[np.arange(len(hot)), hot] = 0.0
    return z


def entropy_nats(probs):
    """Row-wise -sum p log p in nats with the 0*log(0) = 0 convention."""
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def total_entropy(logits_re, logits_im):
    """Summed per-position entropy of both streams (nats)."""
    logits = np.stack([logits_re, logits_im])
    return float(patch_entropy(logits, len(logits_re), 1).sum())


class TestTotalEntropyLoss:
    def test_one_hot_rows_zero(self):
        z = one_hot_logits([2] * 5, 4)
        assert total_entropy(z, z) == 0.0

    def test_uniform_value(self):
        z = np.zeros((16, 256))
        expect = 2 * 16 * math.log(256)
        assert abs(total_entropy(z, z) - expect) < 1e-9

    def test_mixed_hand_case(self):
        # one uniform row (K=4), rest one-hot, single stream counted once
        z = one_hot_logits([0, 1, 3], 4)
        z[0] = 0.0
        zero = one_hot_logits([0, 1, 2], 4)
        assert abs(total_entropy(z, zero) - math.log(4)) < 1e-12

    def test_matches_logit_path(self):
        # the direct -sum p log p of the softmax, one-hot rows included
        logits = RNG.standard_normal((6, 9))
        logits[4:] = one_hot_logits([1, 7], 9)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expect = 2 * entropy_nats(p).sum()
        assert abs(total_entropy(logits, logits) - expect) < 1e-9


class TestBackwardToKspace:
    def test_quadratic_loss_through_zero_fill(self):
        # loss = ||zero_fill(y)||^2 has gradient exactly 2y under the
        # unitary convention (network bypassed)
        from tokmri import autodiff as ad
        from tokmri.autodiff import Tape

        y0 = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
        tape = Tape()
        y = tape.source(y0, "y")
        x = ad.t_ifft2c(tape, y)
        ch = ad.t_split(tape, x)
        # scalar = sum(re^2) + sum(im^2); seed with the hand adjoint
        grads = tape.backward(ch, seed=2.0 * tape.val(ch))
        assert np.allclose(grads[y], 2.0 * y0, atol=1e-10)

    def test_zero_seed_zero_map(self, toy_setup):
        tok, model = toy_setup
        img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=3, seed=5))
        ksp = acquire(img, make_center_mask(16, 0.25))
        state = pipeline_forward(ksp, tok, model)
        grads = state.tape.backward(state.loss_id, seed=np.float64(0.0))
        assert np.allclose(np.abs(grads[state.y_id]), 0.0)

    def test_end_to_end_matches_finite_differences(self, toy_setup):
        tok, model = toy_setup
        img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=4, seed=3))
        ksp = acquire(img, make_center_mask(16, 0.25))
        state = pipeline_forward(ksp, tok, model)
        state.tape.replay_check()
        grad = backward_to_kspace(state)
        offsets = state.frozen_offsets()

        def loss_at(y):
            return pipeline_forward(y, tok, model,
                                    frozen_offsets=offsets).loss

        assert abs(loss_at(ksp) - state.loss) < 1e-12
        rng = np.random.default_rng(99)
        for flat in rng.choice(ksp.size, size=10, replace=False):
            r, c = divmod(int(flat), ksp.shape[1])
            for part, get in ((1.0, np.real), (1j, np.imag)):
                h = 1e-5 * max(1.0, abs(ksp[r, c]))
                yp = ksp.copy()
                yp[r, c] += h * part
                ym = ksp.copy()
                ym[r, c] -= h * part
                fd = (loss_at(yp) - loss_at(ym)) / (2 * h)
                an = get(grad[r, c])
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-6)

    def test_kspace_sweep_matches_full_sweep(self, toy_setup):
        tok, model = toy_setup
        img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=3, seed=13))
        state = pipeline_forward(acquire(img, make_center_mask(16, 0.25)),
                                 tok, model)
        full = state.tape.backward(state.loss_id, seed=np.float64(1.0))
        assert len(full) > 1  # the weights' gradients too
        only = state.tape.backward(state.loss_id, seed=np.float64(1.0),
                                   wrt=(state.y_id,))
        assert list(only) == [state.y_id]
        assert np.array_equal(only[state.y_id], full[state.y_id])
        assert np.array_equal(backward_to_kspace(state), full[state.y_id])

    def test_replay_check_detects_corruption(self, toy_setup):
        tok, model = toy_setup
        img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=3, seed=7))
        ksp = acquire(img, make_center_mask(16, 0.25))
        state = pipeline_forward(ksp, tok, model)
        state.tape._values[state.loss_id] = state.tape._values[state.loss_id] + 1
        with pytest.raises(TapeConsistencyError):
            state.tape.replay_check()

    def test_gradient_reported_everywhere(self, toy_setup):
        tok, model = toy_setup
        img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=3, seed=9))
        mask = make_center_mask(16, 0.25)
        ksp = acquire(img, mask)
        grad = backward_to_kspace(pipeline_forward(ksp, tok, model))
        assert np.all(np.isfinite(grad))
        # unsampled rows still carry a (reported) gradient
        assert np.abs(grad)[~mask.flags].max() > 0

    def test_pipeline_distributions_match_inference(self, toy_setup):
        tok, model = toy_setup
        from tokmri.model import tokenize_image

        img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=3, seed=11))
        ksp = acquire(img, make_center_mask(16, 0.25))
        state = pipeline_forward(ksp, tok, model)
        zf = tokenize_image(tok, zero_fill(ksp))
        lre, lim = model.predict(zf.q)
        assert np.allclose(softmax(state.logits[0]), softmax(lre), atol=1e-12)
        assert np.allclose(softmax(state.logits[1]), softmax(lim), atol=1e-12)


def per_channel_entropy_tape(ksp, tok, model):
    """The measurement-to-entropy tape with one node per channel from the
    complex split to the quantizer: a real-part node, then an imaginary-part
    node, each channel normalized, encoded and snapped on its own, and the
    two snapped grids stacked for the trunk.  Returns (tape, y id, loss id).
    """
    tape = Tape()
    y = tape.source(ksp, "y")
    x = ad.t_ifft2c(tape, y)
    parts = [
        tape.apply("real", lambda v: (np.ascontiguousarray(v.real), None),
                   lambda cache, g: (g.astype(np.complex128),), (x,)),
        tape.apply("imag", lambda v: (np.ascontiguousarray(v.imag), None),
                   lambda cache, g: (1j * g.astype(np.complex128),), (x,)),
    ]
    enc_wt, enc_b = tape.source(tok.enc_w.T), tape.source(tok.enc_b)
    snapped = []
    for ch in parts:
        patches = ad.t_patchify(tape, ad.t_channel_norm(tape, ch), tok.p)
        lat = ad.t_affine(tape, patches, enc_wt, enc_b)
        snapped.append(ad.t_ste_quantize(tape, lat, tok.codebook))
    q = tape.apply("stack", lambda a, b: (np.stack([a, b]), None),
                   lambda cache, g: (g[0], g[1]), snapped)
    heads = build_forward(tape, model.source_params(tape), model.cfg, q)
    loss = ad.t_add(tape, *[ad.t_entropy_sum(tape, h) for h in heads])
    return tape, y, loss


class TestStackedChannels:
    """The pipeline that carries both channels in one (2, ...) node per stage
    gives the loss and the k-space gradient of the per-channel tape, bit for
    bit."""

    @pytest.mark.parametrize("size", [16, 32, 64, 128])
    def test_kspace_gradient_matches_per_channel_tape(self, size):
        rng = np.random.default_rng(size)
        p, D, K = 8, 8, 16
        tok = Tokenizer(p=p, enc_w=rng.normal(size=(D, p * p)) * 0.3,
                        enc_b=rng.normal(size=D) * 0.1,
                        dec_w=rng.normal(size=(p * p, D)) * 0.3,
                        dec_b=rng.normal(size=p * p) * 0.1,
                        codebook=Codebook(rng.normal(size=(K, D))))
        model = LatentTransformer.init(
            TransformerConfig(layers=1, heads=2, embed_dim=16, ffn_dim=32),
            latent_dim=D, seq_len=(size // p) ** 2, codebook_size=K, seed=1)
        for name in ("head_re.w", "head_im.w"):
            model.params[name] = rng.normal(size=model.params[name].shape)
        for seed in range(3):
            img = random_ellipse_phantom(PhantomSpec(size=size, seed=seed))
            ksp = acquire(img, make_center_mask(size, 0.25))
            state = pipeline_forward(ksp, tok, model)
            tape, y, loss = per_channel_entropy_tape(ksp, tok, model)
            want = tape.backward(loss, seed=np.float64(1.0), wrt=(y,))[y]
            assert np.float64(state.loss).tobytes() == \
                np.float64(tape.val(loss)).tobytes()
            assert backward_to_kspace(state).tobytes() == \
                np.asarray(want, dtype=np.complex128).tobytes()


class TestLineGradientScores:
    def test_all_ones(self):
        scores = line_gradient_scores(np.ones((4, 4)))
        assert np.array_equal(scores, np.full(4, 4.0))

    def test_single_hot_line(self):
        G = np.zeros((6, 5))
        G[2] = 0.5
        scores = line_gradient_scores(G)
        assert scores[2] > 0
        assert np.all(scores[[0, 1, 3, 4, 5]] == 0)

    def test_matches_hand_sums(self):
        G = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        scores = line_gradient_scores(G)
        for j in range(3):
            assert abs(scores[j] - sum(abs(G[j]))) < 1e-12

    def test_sums_modulus_of_signed_entries(self):
        scores = line_gradient_scores(np.array([[-1.0, 3 - 4j], [0.0, -2j]]))
        assert np.array_equal(scores, [6.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            line_gradient_scores(np.array([[np.inf, 0.0]]))
        with pytest.raises(InvalidInputError):
            line_gradient_scores(np.array([[complex(0.0, np.nan), 0.0]]))
