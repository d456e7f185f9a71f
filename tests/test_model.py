import math
import tracemalloc

import numpy as np
import pytest

from tokmri import autodiff as ad
from tokmri.autodiff import Tape
from tokmri.errors import ConfigError, ShapeMismatchError, TrainingDivergedError
from tokmri.fourier import NoiseSpec, make_center_mask, round_half_away
from tokmri.model import (
    LatentTransformer,
    RandomMaskSampler,
    TransformerConfig,
    batch_loss_and_grads,
    build_forward,
    predicted_tokens,
    reconstruct,
    tokenize_image,
    train_model,
)
from tokmri.phantoms import PhantomSpec, random_ellipse_phantom
from tokmri.policies import oracle_reconstruct
from tokmri.tokenizer import (
    ChannelStats,
    Codebook,
    LatentGrid,
    Tokenizer,
    channel_stats,
    normalize_channel,
    train_tokenizer,
)

RNG = np.random.default_rng(77)


def grid(arr, gh, gw):
    return LatentGrid(np.asarray(arr, dtype=float), gh, gw)


def streams(re, im, gh, gw):
    """The (2, L, D) stream stack of the real and imaginary latents."""
    return grid(np.stack([re, im]), gh, gw)


def make_model(layers=1, heads=2, embed=16, ffn=32, D=8, L=4, K=8, seed=0):
    cfg = TransformerConfig(layers=layers, heads=heads, embed_dim=embed,
                            ffn_dim=ffn)
    return LatentTransformer.init(cfg, latent_dim=D, seq_len=L,
                                  codebook_size=K, seed=seed)


def fused_rows(model, q):
    """Value of the trunk's `fuse` node (layer norm of the stream sum)."""
    tape = Tape()
    build_forward(tape, model.source_params(tape), model.cfg,
                  tape.source(q.vectors))
    node = next(n for n in tape.nodes if n.name == "fuse")
    return tape.val(node.out_id)


class TestFuseStreams:
    def test_zero_second_stream_is_layer_norm(self):
        q = streams(RNG.standard_normal((4, 6)), np.zeros((4, 6)), 2, 2)
        rows = fused_rows(make_model(D=6), q)
        assert np.allclose(rows.mean(axis=1), 0, atol=1e-12)

    def test_symmetry(self):
        # a + b == b + a exactly, so swapped streams give identical logits
        model = make_model(D=6)
        for name in model.params:
            model.params[name] = model.params[name] + RNG.normal(
                scale=0.2, size=model.params[name].shape)
        a = RNG.standard_normal((4, 6))
        b = RNG.standard_normal((4, 6))
        for z_ab, z_ba in zip(model.predict(streams(a, b, 2, 2)),
                              model.predict(streams(b, a, 2, 2))):
            assert np.array_equal(z_ab, z_ba)

    def test_hand_computed_row(self):
        q = streams([[1.0, 2.0, 3.0, 4.0]], [[0.0, 0.0, 0.0, 0.0]], 1, 1)
        fused = fused_rows(make_model(D=4, L=1), q)
        # mean 2.5, population std sqrt(1.25); eps shifts it negligibly
        expect = (np.array([1, 2, 3, 4]) - 2.5) / math.sqrt(1.25 + 1e-5)
        assert np.allclose(fused[0], expect, atol=1e-6)
        assert abs(fused[0].mean()) < 1e-12
        assert abs(fused[0].var() - 1.0) < 1e-4

    def test_shape_mismatch(self):
        # one stream alone, or streams of the wrong latent dimension
        model = make_model(D=6)
        with pytest.raises(ShapeMismatchError):
            model.predict(grid(np.zeros((4, 6)), 2, 2))
        with pytest.raises(ShapeMismatchError):
            model.predict(streams(np.zeros((4, 5)), np.zeros((4, 5)), 2, 2))


class TestPredict:
    def test_rows_sum_to_one(self):
        model = make_model()
        for name in model.params:
            model.params[name] = model.params[name] + RNG.normal(
                scale=0.2, size=model.params[name].shape)
        q = streams(RNG.standard_normal((4, 8)), RNG.standard_normal((4, 8)),
                    2, 2)
        p_re, p_im = ad.softmax(model.predict(q))
        assert np.allclose(p_re.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(p_im.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p_re > 0) and np.all(p_re < 1)

    def test_zero_heads_give_uniform(self):
        model = make_model()  # heads start at zero by construction
        q = streams(RNG.standard_normal((4, 8)), RNG.standard_normal((4, 8)),
                    2, 2)
        p_re, p_im = ad.softmax(model.predict(q))
        assert np.allclose(p_re, 1.0 / 8, atol=1e-15)
        assert np.allclose(p_im, 1.0 / 8, atol=1e-15)

    def test_permutation_equivariance(self):
        model = make_model(seed=3)
        for name in model.params:
            model.params[name] = model.params[name] + RNG.normal(
                scale=0.2, size=model.params[name].shape)
        q = streams(RNG.standard_normal((4, 8)), RNG.standard_normal((4, 8)),
                    2, 2)
        lre, _ = model.predict(q)
        perm = np.array([2, 0, 3, 1])
        model_p = LatentTransformer(model.cfg,
                                    {k: v.copy() for k, v in model.params.items()},
                                    model.latent_dim, model.seq_len,
                                    model.codebook_size)
        model_p.params["pos"] = model.params["pos"][perm]
        lre_p, _ = model_p.predict(grid(q.vectors[:, perm], 2, 2))
        assert np.allclose(ad.softmax(lre_p), ad.softmax(lre)[perm], atol=1e-10)

    def test_deterministic_bit_identical(self):
        model = make_model(seed=5)
        q = streams(RNG.standard_normal((4, 8)), RNG.standard_normal((4, 8)),
                    2, 2)
        for a, b in zip(model.predict(q), model.predict(q)):
            assert np.array_equal(a, b)

    def test_logits_equal_recorded_forward(self):
        rng = np.random.default_rng(6)
        model = make_model(layers=2, seed=6)
        for name in model.params:
            model.params[name] = model.params[name] + rng.normal(
                scale=0.2, size=model.params[name].shape)
        q = streams(rng.standard_normal((4, 8)), rng.standard_normal((4, 8)),
                    2, 2)
        tape = Tape()
        lre, lim = build_forward(tape, model.source_params(tape), model.cfg,
                                 tape.source(q.vectors))
        pred_re, pred_im = model.predict(q)
        assert np.array_equal(pred_re, tape.val(lre))
        assert np.array_equal(pred_im, tape.val(lim))

    def test_geometry_mismatch(self):
        model = make_model()
        q = RNG.standard_normal((9, 8))
        with pytest.raises(ShapeMismatchError):
            model.predict(streams(q, q, 3, 3))


class TestPredictedTokens:
    def test_one_hot(self):
        cb = Codebook(RNG.standard_normal((8, 4)))
        logits = np.full((1, 8), -1e3)
        logits[0, 7] = 0.0
        assert np.array_equal(predicted_tokens(logits, cb, 1, 1).vectors[0],
                              cb.entries[7])

    def test_uniform_tie_breaks_to_zero(self):
        cb = Codebook(RNG.standard_normal((8, 4)))
        uniform = np.zeros((1, 8))
        assert np.array_equal(predicted_tokens(uniform, cb, 1, 1).vectors[0],
                              cb.entries[0])

    def test_probability_tie_breaks_to_zero(self):
        # distinct logits whose softmax rounds to [0.5, 0.5]: the tie rule
        # reads the probabilities, so index 0 wins where the logits pick 1
        cb = Codebook(RNG.standard_normal((2, 2)))
        logits = np.array([[0.0, 1e-17]])
        assert np.argmax(logits) == 1
        assert np.array_equal(ad.softmax(logits), [[0.5, 0.5]])
        assert np.array_equal(predicted_tokens(logits, cb, 1, 1).vectors[0],
                              cb.entries[0])

    def test_argmax(self):
        cb = Codebook(RNG.standard_normal((3, 2)))
        logits = np.log(np.array([[0.1, 0.7, 0.2]]))
        assert np.array_equal(predicted_tokens(logits, cb, 1, 1).vectors[0],
                              cb.entries[1])

    def test_codebook_size_mismatch(self):
        cb = Codebook(RNG.standard_normal((8, 4)))
        with pytest.raises(ShapeMismatchError):
            predicted_tokens(np.zeros((1, 5)), cb, 1, 1)


def cross_entropy(logits, targets):
    return ad.cross_entropy_from_logits(np.asarray(logits), targets)[0]


class TestCrossEntropy:
    def test_perfect_prediction(self):
        logits = np.zeros((3, 4))
        logits[np.arange(3), [1, 2, 0]] = 40.0
        assert cross_entropy(logits, [1, 2, 0]) < 1e-9

    def test_uniform_is_log_k(self):
        logits = np.zeros((5, 256))
        assert abs(cross_entropy(logits, [0] * 5) - math.log(256)) < 1e-12

    def test_hand_case(self):
        # p(target) = 0.5 then 0.25 -> (ln2 + ln4)/2 = 1.5 ln 2
        logits = np.log(np.array([[0.5, 0.5, 0.0 + 1e-300],
                                  [0.25, 0.25, 0.5]]))
        val = cross_entropy(logits, [0, 0])
        assert abs(val - 1.5 * math.log(2)) < 1e-9

    def test_out_of_range_target(self):
        with pytest.raises(ShapeMismatchError):
            cross_entropy(np.zeros((2, 4)), [0, 4])


class TestReconstruct:
    def test_zero_imaginary_latents_give_real_output(self):
        tok = Tokenizer(p=2,
                        enc_w=RNG.standard_normal((3, 4)),
                        enc_b=np.zeros(3),
                        dec_w=RNG.standard_normal((4, 3)),
                        dec_b=np.zeros(4),
                        codebook=Codebook(RNG.standard_normal((4, 3))))
        q = streams(RNG.standard_normal((4, 3)), np.zeros((4, 3)), 2, 2)
        out = reconstruct(tok, q, ChannelStats(np.zeros(2), np.ones(2)))
        assert np.array_equal(out.imag, np.zeros((4, 4)))
        assert out.shape == (4, 4)

    def test_matches_manual_decode(self):
        tok = Tokenizer(p=2,
                        enc_w=RNG.standard_normal((3, 4)),
                        enc_b=np.zeros(3),
                        dec_w=RNG.standard_normal((4, 3)),
                        dec_b=RNG.standard_normal(4),
                        codebook=Codebook(RNG.standard_normal((4, 3))))
        q_re = RNG.standard_normal((4, 3))
        q_im = RNG.standard_normal((4, 3))
        stats = ChannelStats(np.array([1.5, -0.5]), np.array([2.0, 0.25]))
        out = reconstruct(tok, streams(q_re, q_im, 2, 2), stats)
        assert np.allclose(out.real, tok.decode(grid(q_re, 2, 2)) * 2.0 + 1.5)
        assert np.allclose(out.imag, tok.decode(grid(q_im, 2, 2)) * 0.25 - 0.5)


class TestStackedChannels:
    """The (2, H, W) channel stack gives each channel the bits of the path
    that handles one (H, W) channel at a time."""

    @staticmethod
    def per_channel(tok, img):
        """(q, idx, stats) of the real and then the imaginary channel, and
        the reconstruction decoded from them, one channel per call."""
        tokens, decoded = [], []
        for ch in (img.real, img.imag):
            stats = channel_stats(ch)
            idx, q = tok.quantize(tok.encode(normalize_channel(ch, stats)))
            tokens.append((q, idx, stats))
            decoded.append(tok.decode(q) * stats.std + stats.mean)
        return tokens, decoded[0] + 1j * decoded[1]

    @pytest.mark.parametrize("size", [16, 32, 64, 128, 256])
    def test_tokens_and_reconstructions_match_per_channel_path(self, size):
        rng = np.random.default_rng(size)
        p, D, K = 8, 16, 256
        tok = Tokenizer(p=p, enc_w=rng.standard_normal((D, p * p)) * 0.3,
                        enc_b=rng.standard_normal(D) * 0.1,
                        dec_w=rng.standard_normal((p * p, D)) * 0.3,
                        dec_b=rng.standard_normal(p * p) * 0.1,
                        codebook=Codebook(rng.standard_normal((K, D))))
        for seed in range(3):
            img = random_ellipse_phantom(PhantomSpec(size=size, seed=seed))
            want, recon = self.per_channel(tok, img)
            got = tokenize_image(tok, img)
            assert got.q.vectors.shape == (2, (size // p) ** 2, D)
            for c, (q, idx, stats) in enumerate(want):
                assert got.q.vectors[c].tobytes() == q.vectors.tobytes()
                assert np.array_equal(got.idx[c], idx)
                assert got.stats.mean[c].tobytes() == stats.mean.tobytes()
                assert got.stats.std[c].tobytes() == stats.std.tobytes()
            assert reconstruct(tok, got.q, got.stats).tobytes() == recon.tobytes()
            assert oracle_reconstruct(img, tok).tobytes() == recon.tobytes()


class TestTrainingGradients:
    def test_full_pipeline_param_gradients_match_fd(self):
        # toy instance: L=4, K=8, 1 layer, 1 head, D=8
        rng = np.random.default_rng(5)
        model = make_model(layers=1, heads=1, embed=8, ffn=16, D=8, L=4, K=8,
                           seed=11)
        for name in model.params:
            model.params[name] = model.params[name] + rng.normal(
                scale=0.3, size=model.params[name].shape)
        q = rng.standard_normal((2, 4, 8))
        idx = rng.integers(0, 8, size=(2, 4))
        _, grads = batch_loss_and_grads(model, q, idx)

        def loss_with(params):
            saved = model.params
            model.params = params
            val, _ = batch_loss_and_grads(model, q, idx)
            model.params = saved
            return val

        for name, g in grads.items():
            base = model.params[name]
            for i in range(base.size):
                h = 1e-6 * max(1.0, abs(base.flat[i]))
                up = {k: v.copy() for k, v in model.params.items()}
                up[name].flat[i] += h
                dn = {k: v.copy() for k, v in model.params.items()}
                dn[name].flat[i] -= h
                fd = (loss_with(up) - loss_with(dn)) / (2 * h)
                denom = max(abs(fd), abs(g.flat[i]), 1e-4)
                assert abs(fd - g.flat[i]) / denom < 1e-4, (name, i)

    def test_head_gradient_matches_fd_small_toy(self):
        # 2 positions, K=4: output-head weight gradient vs central differences
        rng = np.random.default_rng(6)
        model = make_model(layers=1, heads=1, embed=8, ffn=16, D=4, L=2, K=4,
                           seed=2)
        q = rng.standard_normal((2, 2, 4))
        idx = np.array([[1, 3], [0, 2]])
        _, grads = batch_loss_and_grads(model, q, idx)
        g = grads["head_re.w"]
        for i in RNG.choice(g.size, size=12, replace=False):
            h = 1e-6
            up = {k: v.copy() for k, v in model.params.items()}
            up["head_re.w"].flat[i] += h
            dn = {k: v.copy() for k, v in model.params.items()}
            dn["head_re.w"].flat[i] -= h
            saved = model.params
            model.params = up
            lu, _ = batch_loss_and_grads(model, q, idx)
            model.params = dn
            ld, _ = batch_loss_and_grads(model, q, idx)
            model.params = saved
            fd = (lu - ld) / (2 * h)
            assert abs(fd - g.flat[i]) < 1e-5 * max(abs(fd), abs(g.flat[i]), 1.0)

    def test_batched_loss_equals_mean_of_singles(self):
        rng = np.random.default_rng(8)
        model = make_model(seed=4)
        for name in model.params:
            model.params[name] = model.params[name] + rng.normal(
                scale=0.2, size=model.params[name].shape)
        B = 3
        q = rng.standard_normal((B, 2, 4, 8))
        idx = rng.integers(0, 8, size=(B, 2, 4))
        lb, gb = batch_loss_and_grads(model, q, idx)
        singles = [batch_loss_and_grads(model, q[b], idx[b]) for b in range(B)]
        assert abs(lb - np.mean([s[0] for s in singles])) < 1e-12
        for k in gb:
            mean_g = np.mean([s[1][k] for s in singles], axis=0)
            assert np.allclose(gb[k], mean_g, atol=1e-12)

    def test_parameter_sweep_matches_full_sweep(self):
        rng = np.random.default_rng(9)
        model = make_model(layers=2, seed=5)
        for name in model.params:
            model.params[name] = model.params[name] + rng.normal(
                scale=0.2, size=model.params[name].shape)
        q = rng.standard_normal((3, 2, 4, 8))
        idx = rng.integers(0, 8, size=(3, 2, 4))
        _, grads = batch_loss_and_grads(model, q, idx)
        tape = Tape()
        pids = model.source_params(tape)
        qid = tape.source(q)
        lre, lim = build_forward(tape, pids, model.cfg, qid)
        loss = ad.t_add(tape, ad.t_cross_entropy(tape, lre, idx[:, 0]),
                        ad.t_cross_entropy(tape, lim, idx[:, 1]))
        full = tape.backward(loss, seed=np.float64(1.0))
        assert qid in full  # the data's gradient too
        wrt = tuple(pids.values())
        only = tape.backward(loss, seed=np.float64(1.0), wrt=wrt)
        assert sorted(only) == sorted(wrt)
        for name, pid in pids.items():
            assert np.array_equal(grads[name], full[pid]), name

    def test_training_step_traced_peak(self):
        # one (8, 256) step of the default model, as at 128^2: attention
        # formed its scores and score gradients in one piece and the sweep
        # held every gradient to its end, a 149 MB traced peak; in head
        # blocks and with each gradient dropped once used, 99 MB
        rng = np.random.default_rng(0)
        model = LatentTransformer.init(TransformerConfig(), latent_dim=16,
                                       seq_len=256, codebook_size=256)
        q = rng.standard_normal((8, 2, 256, 16))
        idx = rng.integers(0, 256, size=(8, 2, 256))
        tracemalloc.start()
        try:
            batch_loss_and_grads(model, q, idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 110e6


class TestRandomMaskSampler:
    def test_center_always_present_and_budget_in_range(self):
        sampler = RandomMaskSampler(rho_c=0.04, accel_lo=2.0, accel_hi=24.0)
        rng = np.random.default_rng(0)
        center = np.flatnonzero(
            np.array([False] * 64)
        )
        for _ in range(50):
            mask = sampler(rng, 64)
            assert mask.center_count == 3
            assert mask.flags[32]
            extra = mask.nnz - mask.center_count
            assert 0 <= extra <= round(64 * 0.96 / 2.0) + 1

    def test_masks_match_inline_budget(self):
        # the sampler takes its budget from `sampling_budget`; its masks
        # match the budget formula written inline, accelerations below 1
        # included
        draws = np.random.default_rng(5)
        for _ in range(300):
            n = int(draws.integers(1, 257))
            rho_c = float(draws.uniform(0.0, 1.0))
            lo = float(draws.choice([draws.uniform(0.05, 1.0),
                                     draws.uniform(1.0, 30.0)]))
            hi = lo * float(draws.uniform(1.0, 20.0))
            seed = int(draws.integers(2**32))
            mask = RandomMaskSampler(rho_c, lo, hi)(np.random.default_rng(seed), n)

            rng = np.random.default_rng(seed)
            R = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            budget = round_half_away(n * (1.0 - rho_c) / R)
            expect = make_center_mask(n, rho_c)
            free = expect.free_indices()
            take = min(budget, free.size)
            if take > 0:
                expect = expect.with_lines(rng.choice(free, size=take,
                                                      replace=False))
            assert np.array_equal(mask.flags, expect.flags), (n, rho_c, lo, hi)
            assert mask.center_count == expect.center_count

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 24.0), (-1.0, 24.0), (30.0, 24.0), (1.2, math.inf),
        (math.nan, 24.0)])
    def test_rejects_range_outside_positive_finite(self, lo, hi):
        with pytest.raises(ConfigError, match="accel_lo"):
            RandomMaskSampler(accel_lo=lo, accel_hi=hi)


def tiny_dataset(n=10, size=32, seed0=100):
    return [random_ellipse_phantom(PhantomSpec(size=size, n_ellipses=4,
                                               seed=seed0 + i))
            for i in range(n)]


def tiny_tokenizer(images, K=32, D=8, p=8):
    channels = []
    for img in images:
        for ch in (img.real, img.imag):
            channels.append(normalize_channel(ch, channel_stats(ch)))
    tok, _ = train_tokenizer(channels, K=K, D=D, p=p, seed=0)
    return tok


class TestTrainModel:
    def test_loss_trace_shape_and_descent(self):
        images = tiny_dataset()
        tok = tiny_tokenizer(images)
        cfg = TransformerConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64)
        state = train_model(images, tok, cfg, epochs=4, batch_size=4,
                            lr=2e-3, seed=0)
        assert len(state.trace) == 4 * 3  # ceil(10/4) = 3 steps per epoch
        first = np.mean([l for _, _, l in state.trace[:3]])
        last = np.mean([l for _, _, l in state.trace[-3:]])
        assert last < first  # learning is happening
        assert abs(state.trace[0][2] - math.log(32)) < 0.2  # uniform start

    def test_empty_dataset(self):
        tok = tiny_tokenizer(tiny_dataset(4))
        with pytest.raises(ConfigError):
            train_model([], tok, TransformerConfig(), epochs=1)

    @staticmethod
    def check_resume_bit_identical(noise):
        images = tiny_dataset(6)
        tok = tiny_tokenizer(images)
        cfg = TransformerConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64)
        kw = dict(batch_size=4, lr=1e-3, seed=9, noise=noise)
        full = train_model(images, tok, cfg, epochs=4, **kw)
        half = train_model(images, tok, cfg, epochs=2, **kw)
        resumed = train_model(images, tok, cfg, epochs=4, resume=half, **kw)
        assert [t for t in full.trace] == [t for t in resumed.trace]
        for k in full.model.params:
            assert np.array_equal(full.model.params[k],
                                  resumed.model.params[k])

    def test_resume_reproduces_training_bit_identically(self):
        self.check_resume_bit_identical(NoiseSpec())

    def test_resume_with_noise_bit_identical(self):
        self.check_resume_bit_identical(NoiseSpec(0.05))

    def test_noise_field_fresh_per_example_and_epoch(self, monkeypatch):
        import tokmri.model as model_mod

        real_acquire = model_mod.acquire
        center = make_center_mask(32, RandomMaskSampler().rho_c).flags
        seen = []

        def spy(img, mask, *args, **kwargs):
            ksp = real_acquire(img, mask, *args, **kwargs)
            # the center lines are always sampled: compare their noise
            seen.append((ksp - real_acquire(img, mask))[center])
            return ksp

        monkeypatch.setattr(model_mod, "acquire", spy)
        images = tiny_dataset(2)
        tok = tiny_tokenizer(images)
        cfg = TransformerConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64)
        train_model(images, tok, cfg, epochs=2, batch_size=2, seed=0,
                    noise=NoiseSpec(0.1))
        assert len(seen) == 4  # two examples in each of two epochs
        assert all(np.all(eta != 0) for eta in seen)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(seen[i], seen[j]), (i, j)

    def test_overfit_smoke_500_steps(self):
        # 10 images, 500 optimizer steps: token CE must drop below 0.1 ln K
        images = [random_ellipse_phantom(PhantomSpec(size=64, seed=s))
                  for s in range(10)]
        channels = []
        for img in images:
            for ch in (img.real, img.imag):
                channels.append(normalize_channel(ch, channel_stats(ch)))
        tok, _ = train_tokenizer(channels, K=256, D=16, p=8, seed=0)
        cfg = TransformerConfig(layers=2, heads=4, embed_dim=64, ffn_dim=128)
        state = train_model(images, tok, cfg, epochs=250, batch_size=8,
                            lr=2e-3, seed=0)
        assert len(state.trace) == 500
        tail = np.mean([l for _, _, l in state.trace[-10:]])
        assert tail < 0.1 * math.log(256), tail

    def test_divergence_raises_with_checkpoint(self):
        # an Adam step of ~1e200 overflows the next forward pass to NaN
        images = tiny_dataset(4)
        tok = tiny_tokenizer(images)
        cfg = TransformerConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64)
        with pytest.raises(TrainingDivergedError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            train_model(images, tok, cfg, epochs=3, batch_size=4, lr=1e200,
                        seed=0)
        assert err.value.checkpoint is not None


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = make_model(layers=2, heads=2, embed=16, ffn=32, seed=21)
        rng = np.random.default_rng(1)
        for name in model.params:
            model.params[name] = rng.standard_normal(model.params[name].shape)
        model.save(tmp_path / "model")
        back = LatentTransformer.load(tmp_path / "model")
        assert back.cfg == model.cfg
        assert back.seq_len == model.seq_len
        assert set(back.params) == set(model.params)
        for k in model.params:
            assert np.array_equal(back.params[k], model.params[k])
        q = rng.standard_normal((4, 8))
        a = model.predict(streams(q, q, 2, 2))
        b = back.predict(streams(q, q, 2, 2))
        assert np.array_equal(a, b)
