import math

import numpy as np
import pytest

from tokmri.autodiff import softmax
from tokmri.errors import (
    BudgetExhaustedError,
    ConfigError,
    ShapeMismatchError,
)
from tokmri.fourier import (
    NoiseSpec,
    acquire,
    forward_fft,
    make_center_mask,
    sampling_budget,
    zero_fill,
)
from tokmri.model import TransformerConfig, tokenize_image, train_model
from tokmri.phantoms import PhantomSpec, random_ellipse_phantom
from tokmri.policies import (
    AcquisitionConfig,
    _reconstruct_from_logits,
    entropy_map,
    geo_select,
    les_select,
    oracle_reconstruct,
    patch_entropy,
    random_select,
    run_acquisition,
    upsample_bilinear,
)
from tokmri.tokenizer import channel_stats, normalize_channel, train_tokenizer

RNG = np.random.default_rng(31)


def logits_of(support, K):
    """Logits 0 on each row's `support` columns and -1e3 elsewhere: their
    softmax is uniform on the support and exactly 0 off it (exp underflows)."""
    z = np.full((len(support), K), -1e3)
    for row, cols in zip(z, support):
        row[cols] = 0.0
    return z


class TestPatchEntropy:
    def test_one_hot_zero_map(self):
        one_hot = logits_of([[0]] * 16, 4)
        h = patch_entropy(np.stack([one_hot, one_hot]), 4, 4)
        assert np.array_equal(h, np.zeros((4, 4)))

    def test_uniform_value(self):
        uniform = np.zeros((16, 256))
        h = patch_entropy(np.stack([uniform, uniform]), 4, 4)
        assert np.allclose(h, 2 * math.log(256), atol=1e-9)

    def test_exact_zeros_convention(self):
        h = patch_entropy(np.stack([logits_of([[0, 1]], 8), logits_of([[3]], 8)]),
                          1, 1)
        assert abs(h[0, 0] - math.log(2)) < 1e-12

    def test_bounds(self):
        logits_re = np.log(RNG.dirichlet(np.ones(16), size=64))
        logits_im = np.log(RNG.dirichlet(np.ones(16), size=64))
        h = patch_entropy(np.stack([logits_re, logits_im]), 8, 8)
        assert np.all(h >= 0)
        assert np.all(h <= 2 * math.log(16) + 1e-12)


class TestUpsampleBilinear:
    def test_constant_stays_constant(self):
        up = upsample_bilinear(np.full((4, 4), 2.5), 16, 16)
        assert np.allclose(up, 2.5, atol=1e-12)

    def test_one_by_one(self):
        up = upsample_bilinear(np.array([[3.0]]), 8, 8)
        assert np.allclose(up, 3.0)

    def test_half_pixel_weights_hand_case(self):
        h = np.array([[0.0, 1.0], [0.0, 1.0]])
        up = upsample_bilinear(h, 4, 4)
        expect_row = np.array([0.0, 0.25, 0.75, 1.0])
        for r in range(4):
            assert np.allclose(up[r], expect_row, atol=1e-12)

    def test_geometry_error(self):
        with pytest.raises(Exception):
            upsample_bilinear(np.zeros((3, 3)), 8, 8)

    def test_entropy_map_kspace_is_fft_magnitude(self):
        logits = np.log(RNG.dirichlet(np.ones(8), size=16))
        logits = np.stack([logits, logits])
        u_kspace = entropy_map(logits, 4, 4, 16, 16)
        h = patch_entropy(logits, 4, 4)
        expect = np.abs(forward_fft(upsample_bilinear(h, 16, 16)))
        assert u_kspace.dtype == np.float64 and u_kspace.shape == (16, 16)
        assert u_kspace.tobytes() == expect.tobytes()


class TestLesSelect:
    def test_cosine_selects_symmetric_frequency_pair(self):
        H = W = 16
        f = 3
        rows = np.cos(2 * np.pi * f * np.arange(H) / H)
        u_space = np.tile(rows[:, None], (1, W))
        line_scores = np.abs(forward_fft(u_space)).mean(axis=1)
        acquired = make_center_mask(H, 0.0)  # nothing acquired
        picks = les_select(line_scores, acquired, 2)
        # the +-f twins tie; the lower index comes first
        assert picks == [H // 2 - f, H // 2 + f]

    def test_positive_scaling_invariance(self):
        u = np.abs(RNG.standard_normal(16))
        acquired = make_center_mask(16, 0.25)
        assert les_select(u, acquired, 3) == les_select(7.5 * u, acquired, 3)

    def test_exclusion_returns_only_free_line(self):
        flags = np.ones(16, dtype=bool)
        flags[5] = False
        from tokmri.fourier import SamplingMask

        acquired = SamplingMask(16, flags)
        u = np.abs(RNG.standard_normal(16))
        assert les_select(u, acquired, 1) == [5]

    def test_budget_exhausted(self):
        from tokmri.fourier import SamplingMask

        acquired = SamplingMask(8, np.ones(8, dtype=bool))
        with pytest.raises(BudgetExhaustedError):
            les_select(np.ones(8), acquired, 1)

    def test_takes_one_score_per_line(self):
        with pytest.raises(ShapeMismatchError):
            les_select(np.ones((8, 8)), make_center_mask(8, 0.25), 1)


class TestGeoSelect:
    def test_concentrated_line_wins(self):
        scores = np.zeros(16)
        scores[11] = 4.0
        acquired = make_center_mask(16, 0.25)
        assert geo_select(scores, acquired, 1) == [11]

    def test_scaling_invariance(self):
        scores = np.abs(RNG.standard_normal(16))
        acquired = make_center_mask(16, 0.25)
        assert geo_select(scores, acquired, 4) == geo_select(3.0 * scores,
                                                             acquired, 4)

    def test_matches_sort_and_filter_oracle(self):
        for trial in range(20):
            rng = np.random.default_rng(trial)
            scores = rng.random(32)
            flags = rng.random(32) < 0.4
            from tokmri.fourier import SamplingMask

            acquired = SamplingMask(32, flags)
            n = min(4, int((~flags).sum()))
            if n == 0:
                continue
            got = geo_select(scores, acquired, n)
            free = [j for j in range(32) if not flags[j]]
            expect = sorted(free, key=lambda j: (-scores[j], j))[:n]
            assert got == expect


class TestRandomSelect:
    def test_single_remaining(self):
        from tokmri.fourier import SamplingMask

        flags = np.ones(8, dtype=bool)
        flags[3] = False
        acquired = SamplingMask(8, flags)
        assert random_select(acquired, 1, np.random.default_rng(0)) == [3]

    def test_seed_reproducible(self):
        acquired = make_center_mask(32, 0.1)
        a = random_select(acquired, 5, np.random.default_rng(11))
        b = random_select(acquired, 5, np.random.default_rng(11))
        assert a == b

    def test_uniformity_three_sigma(self):
        from tokmri.fourier import SamplingMask

        flags = np.ones(20, dtype=bool)
        free = np.arange(10)
        flags[free] = False
        acquired = SamplingMask(20, flags)
        rng = np.random.default_rng(5)
        n_draws = 10_000
        counts = np.zeros(20)
        for _ in range(n_draws):
            counts[random_select(acquired, 1, rng)[0]] += 1
        expect = n_draws / 10
        sigma = math.sqrt(n_draws * 0.1 * 0.9)
        assert np.all(np.abs(counts[free] - expect) < 3 * sigma)
        assert np.all(counts[10:] == 0)


@pytest.fixture(scope="module")
def overfit_setup():
    """Tiny pipeline trained until it reproduces clean token sequences.

    Six 32x32 phantoms, 16-entry codebook: small enough that the model
    learns the identity mapping on fully sampled inputs exactly.
    """
    images = [random_ellipse_phantom(PhantomSpec(size=32, n_ellipses=4,
                                                 seed=500 + i))
              for i in range(6)]
    channels = []
    for img in images:
        for ch in (img.real, img.imag):
            channels.append(normalize_channel(ch, channel_stats(ch)))
    tok, _ = train_tokenizer(channels, K=16, D=8, p=8, seed=0)
    cfg = TransformerConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64)
    from tokmri.model import RandomMaskSampler

    state = train_model(
        images, tok, cfg,
        mask_sampler=RandomMaskSampler(rho_c=0.1, accel_lo=1.05, accel_hi=6.0),
        epochs=250, batch_size=6, lr=2e-3, seed=0,
    )
    return images, tok, state.model


def inline_plan(num_lines, R, rho_c, T, lines_per_step):
    """The budget arithmetic `run_acquisition` used to spell out inline;
    None where it raised."""
    mask = make_center_mask(num_lines, rho_c)
    remaining = min(sampling_budget(num_lines, R, rho_c),
                    int(mask.num_lines - mask.nnz))
    per_step = lines_per_step
    if per_step is None and T > 0:
        per_step = max(1, math.ceil(remaining / T))
    if T > 0 and per_step * T < remaining:
        return None
    return mask, remaining, per_step


class TestPlan:
    def test_matches_inline_arithmetic(self):
        for num_lines in (16, 17, 32, 64, 127, 128):
            for R in (1, 2, 3, 4, 8, 16, 64):
                for rho_c in (0.0, 0.04, 0.08, 0.5, 1.0):
                    for T in (0, 1, 2, 4, 8):
                        for lps in (None, 1, 2, 3, 5):
                            want = inline_plan(num_lines, R, rho_c, T, lps)
                            acq = AcquisitionConfig(R=R, rho_c=rho_c, T=T,
                                                    lines_per_step=lps)
                            if want is None:
                                with pytest.raises(ConfigError,
                                                   match="cannot reach"):
                                    acq.plan(num_lines)
                                continue
                            center, budget, per_step = acq.plan(num_lines)
                            assert np.array_equal(center.flags, want[0].flags)
                            assert center.center_count == want[0].center_count
                            assert budget == want[1]
                            if T > 0:
                                assert per_step == want[2]

    def test_oracle_is_no_policy(self):
        # the oracle is `oracle_reconstruct`; as a trajectory setting it
        # would otherwise run as random sampling
        with pytest.raises(ConfigError, match="'oracle'"):
            AcquisitionConfig(policy="oracle")

    @pytest.mark.parametrize("key", ["noise_seed", "seed"])
    @pytest.mark.parametrize("value", [-1, 2**64, 1.5, "3"])
    def test_seeds_fail_closed(self, key, value):
        # run_acquisition reads both as uint64; out of range they used to
        # end in a raw OverflowError there
        with pytest.raises(ConfigError, match=key):
            AcquisitionConfig(**{key: value})

    def test_seeds_accept_the_uint64_range(self):
        AcquisitionConfig(noise_seed=2**64 - 1, seed=np.int64(0))


class TestRunAcquisition:
    def _setup(self, toy_setup):
        tok, model = toy_setup
        img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=3, seed=21))
        return img, tok, model

    def test_t_zero_center_only(self, toy_setup):
        img, tok, model = self._setup(toy_setup)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=0, policy="les", seed=0)
        traj = run_acquisition(img, cfg, model, tok)
        assert traj.steps == []
        assert traj.final_mask.nnz == traj.final_mask.center_count == 4
        assert traj.reconstruction is not None

    @pytest.mark.parametrize("policy", ["random", "les", "geo"])
    def test_budget_accounting(self, toy_setup, policy):
        img, tok, model = self._setup(toy_setup)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=3, policy=policy, seed=1)
        traj = run_acquisition(img, cfg, model, tok)
        mask = traj.final_mask
        B = sampling_budget(16, 2, 0.25)
        free_initially = 16 - mask.center_count
        assert mask.nnz == mask.center_count + min(B, free_initially)

    def test_masks_monotone_lines_disjoint(self, toy_setup):
        img, tok, model = self._setup(toy_setup)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=3, policy="geo", seed=2)
        traj = run_acquisition(img, cfg, model, tok)
        seen = set(make_center_mask(16, 0.25).line_indices().tolist())
        prev = make_center_mask(16, 0.25)
        for rec in traj.steps:
            assert np.all(rec.mask.flags[prev.flags])
            for line in rec.lines:
                assert line not in seen
                seen.add(line)
            prev = rec.mask

    def test_deterministic_replay(self, toy_setup):
        img, tok, model = self._setup(toy_setup)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=3, policy="random", seed=33)
        t1 = run_acquisition(img, cfg, model, tok)
        t2 = run_acquisition(img, cfg, model, tok)
        assert [r.lines for r in t1.steps] == [r.lines for r in t2.steps]
        assert np.array_equal(t1.reconstruction, t2.reconstruction)

    def test_selected_lines_match_recorded_scores(self, toy_setup):
        img, tok, model = self._setup(toy_setup)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=3, policy="geo", seed=3)
        traj = run_acquisition(img, cfg, model, tok)
        acquired = make_center_mask(16, 0.25)
        for rec in traj.steps:
            free = [j for j in range(16) if not acquired.flags[j]]
            expect = sorted(free, key=lambda j: (-rec.scores[j], j))[: len(rec.lines)]
            assert rec.lines == expect
            acquired = rec.mask

    def test_unreachable_budget_rejected(self, toy_setup):
        img, tok, model = self._setup(toy_setup)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=2, lines_per_step=1,
                                policy="les", seed=0)
        with pytest.raises(ConfigError):
            run_acquisition(img, cfg, model, tok)  # 2*1 < budget 6

    def test_noise_cached_per_line(self, toy_setup):
        # with sigma > 0 the same physical line keeps its value across steps
        img, tok, model = self._setup(toy_setup)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=3, policy="random",
                                noise=NoiseSpec(0.05), noise_seed=9, seed=4)
        traj = run_acquisition(img, cfg, model, tok)
        assert traj.final_mask.nnz > traj.final_mask.center_count

    @pytest.mark.parametrize("policy", ["random", "les", "geo"])
    def test_one_fft_of_the_image_per_trajectory(self, toy_setup, policy,
                                                 monkeypatch):
        import tokmri.fourier as fourier
        import tokmri.policies as policies

        img, tok, model = self._setup(toy_setup)
        calls = []

        def counting_fft(x):
            calls.append(np.array_equal(x, img))
            return forward_fft(x)

        monkeypatch.setattr(fourier, "forward_fft", counting_fft)
        monkeypatch.setattr(policies, "forward_fft", counting_fft)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=3, policy=policy,
                                noise=NoiseSpec(0.05), noise_seed=9, seed=4)
        traj = run_acquisition(img, cfg, model, tok)
        assert len(traj.steps) == 3
        assert sum(calls) == 1

    def test_final_measurement_equals_acquire(self, toy_setup):
        # the trajectory masks one noisy k-space; `acquire` with the same
        # noise field gives the same measurement bit for bit
        img, tok, model = self._setup(toy_setup)
        noise = NoiseSpec(0.05)
        cfg = AcquisitionConfig(R=2, rho_c=0.25, T=3, policy="les",
                                noise=noise, noise_seed=9, seed=4)
        traj = run_acquisition(img, cfg, model, tok)
        field = noise.draw(img.shape, np.random.default_rng(9 ^ 4))
        ksp = acquire(img, traj.final_mask, noise_field=field)
        zf = tokenize_image(tok, zero_fill(ksp))
        recon = _reconstruct_from_logits(
            tok, model.predict(zf.q), zf.stats, (zf.q.grid_h, zf.q.grid_w))
        assert np.array_equal(traj.reconstruction, recon)


class TestOracleReconstruct:
    def test_matches_manual_round_trip(self, toy_setup):
        tok, _ = toy_setup
        img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=3, seed=6))
        tokens = tokenize_image(tok, img)
        from tokmri.model import reconstruct

        manual = reconstruct(tok, tokens.q, tokens.stats)
        assert np.array_equal(oracle_reconstruct(img, tok), manual)

    def test_lossless_regime(self):
        # tokenizer with one codebook entry per distinct patch and a perfect
        # linear fit reconstructs exactly
        rng = np.random.default_rng(8)
        base = rng.standard_normal((2, 16))  # rank-2 patch family
        coeffs = rng.standard_normal((8, 2))
        patches = coeffs @ base
        img = np.zeros((8, 8), dtype=complex)
        from tokmri.tokenizer import unpatchify

        img += unpatchify(patches[:4], 2, 2, 4)
        img += 1j * unpatchify(patches[4:], 2, 2, 4)
        channels = []
        for ch in (img.real, img.imag):
            channels.append(normalize_channel(ch, channel_stats(ch)))
        # per-channel normalization shifts patches along the all-ones
        # direction, so the normalized patch span has rank 3
        tok, report = train_tokenizer(channels, K=8, D=3, p=4, seed=0)
        assert report["quant_distortion"] < 1e-16
        recon = oracle_reconstruct(img, tok)
        assert np.allclose(recon, img, atol=1e-8)

    def test_full_budget_random_policy_reduces_to_oracle(self, overfit_setup):
        # with every line acquired and a converged model, the final
        # reconstruction equals the plain tokenizer round trip
        images, tok, model = overfit_setup
        img = images[0]
        gt_tokens = tokenize_image(tok, img)
        logits = model.predict(gt_tokens.q)
        assert np.array_equal(np.argmax(softmax(logits), axis=-1), gt_tokens.idx)

        cfg = AcquisitionConfig(R=1, rho_c=0.0, T=2, policy="random", seed=0)
        traj = run_acquisition(img, cfg, model, tok)
        assert traj.final_mask.nnz == 32  # all lines
        assert np.allclose(traj.reconstruction, oracle_reconstruct(img, tok),
                           atol=1e-8)
