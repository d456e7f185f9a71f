import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokmri.errors import ConfigError, InvalidInputError, ShapeMismatchError
from tokmri.fourier import (
    NoiseSpec,
    SamplingMask,
    acquire,
    forward_fft,
    inverse_fft,
    make_center_mask,
    round_half_away,
    sampling_budget,
    zero_fill,
)


def naive_centered_dft(x):
    """O(N^2) DFT with DC at (H//2, W//2), unitary scaling.

    Written from the definition, fully independent of the FFT path.
    """
    H, W = x.shape
    ch, cw = H // 2, W // 2
    out = np.zeros((H, W), dtype=complex)
    for k in range(H):
        for l in range(W):
            acc = 0.0 + 0.0j
            for m in range(H):
                for n in range(W):
                    phase = (k - ch) * (m - ch) / H + (l - cw) * (n - cw) / W
                    acc += x[m, n] * np.exp(-2j * np.pi * phase)
            out[k, l] = acc
    return out / np.sqrt(H * W)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestForwardFFT:
    def test_impulse_flat_spectrum(self):
        img = np.zeros((4, 4), dtype=complex)
        img[2, 2] = 1.0  # spatial origin of the centered convention
        ksp = forward_fft(img)
        assert np.allclose(np.abs(ksp), 0.25, atol=1e-12)

    def test_constant_image_dc_only(self):
        c = 0.7 - 0.2j
        img = np.full((6, 8), c)
        ksp = forward_fft(img)
        assert np.isclose(ksp[3, 4], c * np.sqrt(48), atol=1e-12)
        off_dc = ksp.copy()
        off_dc[3, 4] = 0
        assert np.allclose(off_dc, 0, atol=1e-12)

    def test_norm_preserved_vs_naive_dft(self):
        rng = np.random.default_rng(0)
        x = random_complex(rng, (8, 8))
        assert np.isclose(np.linalg.norm(forward_fft(x)), np.linalg.norm(x),
                          atol=1e-12)
        assert np.allclose(forward_fft(x), naive_centered_dft(x), atol=1e-10)

    def test_matches_naive_dft_all_small_grids(self):
        rng = np.random.default_rng(1)
        for h in range(1, 9):
            for w in range(1, 9):
                x = random_complex(rng, (h, w))
                assert np.allclose(forward_fft(x), naive_centered_dft(x),
                                   atol=1e-10), (h, w)

    def test_rejects_non_finite(self):
        bad = np.ones((4, 4), dtype=complex)
        bad[1, 1] = np.nan
        with pytest.raises(InvalidInputError):
            forward_fft(bad)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unitarity_property(self, seed):
        rng = np.random.default_rng(seed)
        x = random_complex(rng, (16, 16))
        assert abs(np.linalg.norm(forward_fft(x)) - np.linalg.norm(x)) < 1e-10


class TestInverseFFT:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        x = random_complex(rng, (16, 16))
        assert np.allclose(inverse_fft(forward_fft(x)), x, atol=1e-10)

    def test_zero_kspace(self):
        assert np.allclose(inverse_fft(np.zeros((8, 8), dtype=complex)), 0)

    def test_dc_only_gives_constant_ones(self):
        ksp = np.zeros((8, 8), dtype=complex)
        ksp[4, 4] = np.sqrt(64)
        assert np.allclose(inverse_fft(ksp), 1.0, atol=1e-12)


class TestSamplingMask:
    def test_apply_idempotent(self):
        rng = np.random.default_rng(3)
        mask = SamplingMask(8, rng.random(8) < 0.5)
        ksp = random_complex(rng, (8, 8))
        once = mask.apply(ksp)
        assert np.array_equal(mask.apply(once), once)

    def test_shape_mismatch(self):
        mask = make_center_mask(8, 0.5)
        with pytest.raises(ShapeMismatchError):
            mask.apply(np.zeros((10, 8), dtype=complex))

    def test_with_lines_monotone(self):
        mask = make_center_mask(16, 0.1)
        bigger = mask.with_lines([0, 1])
        assert np.all(bigger.flags[mask.flags])
        assert bigger.nnz == mask.nnz + 2


class TestMakeCenterMask:
    def test_fastmri_sized_center(self):
        mask = make_center_mask(320, 0.04)
        assert mask.center_count == 13  # round(12.8), half away from zero
        assert mask.nnz == 13
        lines = mask.line_indices()
        assert lines.max() - lines.min() == 12  # contiguous
        assert mask.flags[160]  # DC flagged

    def test_zero_fraction(self):
        assert make_center_mask(64, 0.0).nnz == 0

    def test_full_fraction(self):
        assert make_center_mask(64, 1.0).nnz == 64

    def test_dc_always_in_center_block(self):
        for n in (7, 8, 63, 64):
            for rho in (0.02, 0.1, 0.5):
                mask = make_center_mask(n, rho)
                if mask.center_count >= 1:
                    assert mask.flags[n // 2], (n, rho)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            make_center_mask(64, 1.5)
        with pytest.raises(ConfigError):
            make_center_mask(64, -0.1)


class TestSamplingBudget:
    @pytest.mark.parametrize(
        "num_lines,R,rho_c,expected",
        [(320, 8, 0.04, 38), (256, 16, 0.04, 15), (64, 1, 0.0, 64),
         (64, 8, 0.04, 8), (64, 4, 0.04, 15)],
    )
    def test_values(self, num_lines, R, rho_c, expected):
        assert sampling_budget(num_lines, R, rho_c) == expected

    def test_rejects_bad_acceleration(self):
        with pytest.raises(ConfigError):
            sampling_budget(64, 0, 0.04)

    @pytest.mark.parametrize("R", [-1, -0.5, float("nan")])
    def test_rejects_acceleration_outside_its_domain(self, R):
        with pytest.raises(ConfigError, match="acceleration"):
            sampling_budget(64, R, 0.04)

    def test_acceleration_below_one(self):
        # training draws accelerations below 1; the budget is the formula's
        assert sampling_budget(64, 0.5, 0.04) == round_half_away(64 * 0.96 / 0.5)
        assert sampling_budget(64, 0.5, 0.04) == 123

    def test_rounding_half_away(self):
        assert round_half_away(12.5) == 13
        assert round_half_away(11.5) == 12
        assert round_half_away(-2.5) == -3
        assert round_half_away(38.4) == 38


class TestAcquire:
    def test_full_mask_no_noise_is_fft(self):
        rng = np.random.default_rng(4)
        img = random_complex(rng, (16, 16))
        full = SamplingMask(16, np.ones(16, dtype=bool))
        assert np.array_equal(acquire(img, full), forward_fft(img))

    def test_empty_mask(self):
        rng = np.random.default_rng(5)
        img = random_complex(rng, (8, 8))
        empty = SamplingMask(8, np.zeros(8, dtype=bool))
        assert np.all(acquire(img, empty) == 0)

    def test_half_mask_matches_unmasked_fft_linewise(self):
        rng = np.random.default_rng(6)
        img = random_complex(rng, (16, 16))
        flags = np.zeros(16, dtype=bool)
        flags[::2] = True
        mask = SamplingMask(16, flags)
        ksp = acquire(img, mask)
        ref = forward_fft(img)
        assert np.array_equal(ksp[flags], ref[flags])
        assert np.all(ksp[~flags] == 0)

    def test_sigma_zero_bit_identical(self):
        rng = np.random.default_rng(7)
        img = random_complex(rng, (8, 8))
        mask = make_center_mask(8, 0.5)
        a = acquire(img, mask,
                    NoiseSpec(0.0).draw(img.shape, np.random.default_rng(1)))
        b = acquire(img, mask,
                    NoiseSpec(0.0).draw(img.shape, np.random.default_rng(2)))
        assert np.array_equal(a, b)

    def test_noise_statistics(self):
        # >= 1e4 samples per component; empirical variance within 5%
        sigma = 0.5
        mask = SamplingMask(128, np.ones(128, dtype=bool))
        img = np.zeros((128, 128), dtype=complex)
        ksp = acquire(img, mask, NoiseSpec(sigma).draw(img.shape,
                                                 np.random.default_rng(123)))
        assert ksp.size >= 10**4
        assert abs(np.var(ksp.real) - sigma**2) < 0.05 * sigma**2
        assert abs(np.var(ksp.imag) - sigma**2) < 0.05 * sigma**2

    def test_noise_only_on_sampled_lines(self):
        mask = make_center_mask(16, 0.25)
        img = np.zeros((16, 16), dtype=complex)
        ksp = acquire(img, mask, NoiseSpec(1.0).draw(img.shape,
                                               np.random.default_rng(3)))
        assert np.all(ksp[~mask.flags] == 0)
        assert np.all(ksp[mask.flags] != 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            acquire(np.zeros((8, 8), dtype=complex), make_center_mask(16, 0.1))


class TestZeroFill:
    def test_fully_sampled_recovers_image(self):
        rng = np.random.default_rng(8)
        img = random_complex(rng, (16, 16))
        full = SamplingMask(16, np.ones(16, dtype=bool))
        assert np.allclose(zero_fill(acquire(img, full)), img, atol=1e-10)

    def test_empty_mask_zero_image(self):
        empty = SamplingMask(8, np.zeros(8, dtype=bool))
        img = np.ones((8, 8), dtype=complex)
        assert np.allclose(zero_fill(acquire(img, empty)), 0)

    def test_data_consistency(self):
        rng = np.random.default_rng(9)
        img = random_complex(rng, (16, 16))
        mask = SamplingMask(16, rng.random(16) < 0.4)
        y = acquire(img, mask)
        back = forward_fft(zero_fill(y))
        assert np.allclose(back[mask.flags], y[mask.flags], atol=1e-10)

    def test_data_consistency_many_random_masks(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            img = random_complex(rng, (32, 32))
            mask = SamplingMask(32, rng.random(32) < rng.uniform(0.1, 0.9))
            y = acquire(img, mask)
            back = forward_fft(zero_fill(y))
            assert np.max(np.abs(back[mask.flags] - y[mask.flags])) < 1e-10
