import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokmri.errors import GeometryError, ShapeMismatchError, UndefinedMetricError
from tokmri.metrics import evaluate, nmse, psnr, ssim, window_mean

RNG = np.random.default_rng(55)


def ssim_windowed_oracle(ref, est, window=7, k1=0.01, k2=0.03):
    """Direct loop over every valid window, straight from the formula."""
    dr = ref.max() - ref.min()
    if dr == 0:
        dr = 1.0
    c1 = (k1 * dr) ** 2
    c2 = (k2 * dr) ** 2
    vals = []
    H, W = ref.shape
    for r in range(H - window + 1):
        for c in range(W - window + 1):
            x = ref[r : r + window, c : c + window]
            y = est[r : r + window, c : c + window]
            mx, my = x.mean(), y.mean()
            vx = np.mean(x * x) - mx * mx
            vy = np.mean(y * y) - my * my
            cov = np.mean(x * y) - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                        / ((mx**2 + my**2 + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


class TestNMSE:
    def test_identical_zero(self):
        x = RNG.random((8, 8))
        assert nmse(x, x) == 0.0

    def test_zero_estimate_is_one(self):
        x = RNG.random((8, 8)) + 0.1
        assert abs(nmse(x, np.zeros_like(x)) - 1.0) < 1e-12

    def test_hand_cases(self):
        ref = np.array([[3.0, 4.0]])
        assert abs(nmse(ref, np.zeros((1, 2))) - 1.0) < 1e-12
        assert abs(nmse(ref, np.array([[3.0, 0.0]])) - 16.0 / 25.0) < 1e-12

    def test_all_zero_reference(self):
        with pytest.raises(UndefinedMetricError):
            nmse(np.zeros((4, 4)), np.ones((4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nmse(np.zeros((4, 4)), np.zeros((4, 5)))


class TestPSNR:
    def test_perfect_match_capped(self):
        x = RNG.random((8, 8))
        assert psnr(x, x) == 100.0
        assert psnr(x, x, cap=60.0) == 60.0

    def test_twenty_db_case(self):
        # MSE = peak^2 / 100  ->  exactly 20 dB
        ref = np.zeros((10, 10))
        ref[0, 0] = 1.0
        err = math.sqrt(1.0 / 100.0)
        est = ref + err
        assert abs(psnr(ref, est) - 20.0) < 1e-9

    def test_scale_invariance(self):
        ref = RNG.random((8, 8)) + 0.5
        est = ref + RNG.normal(scale=0.05, size=(8, 8))
        assert abs(psnr(ref, est) - psnr(2 * ref, 2 * est)) < 1e-9

    def test_cross_check_with_nmse(self):
        # psnr == 10 log10(peak^2 * N / (nmse * ||ref||^2))
        ref = RNG.random((16, 16)) + 0.2
        est = ref + RNG.normal(scale=0.1, size=ref.shape)
        n = nmse(ref, est)
        peak = ref.max()
        expect = 10 * math.log10(peak**2 * ref.size / (n * np.sum(ref**2)))
        assert abs(psnr(ref, est) - expect) < 1e-9


class TestSSIM:
    def test_identical_nonconstant_is_one(self):
        x = RNG.random((16, 16))
        assert abs(ssim(x, x) - 1.0) < 1e-12

    def test_anticorrelated_negative(self):
        # zero mean within every window, so the negated covariance term
        # drives the sign
        r = np.arange(21)
        x = np.sin(2 * np.pi * r / 7)[:, None] * np.cos(2 * np.pi * r / 7)
        assert abs(x.mean()) < 1e-12
        assert ssim(x, -x) < 0

    def test_matches_windowed_oracle(self):
        ref = RNG.random((8, 8))
        est = ref + RNG.normal(scale=0.2, size=(8, 8))
        assert abs(ssim(ref, est) - ssim_windowed_oracle(ref, est)) < 1e-10

    def test_matches_oracle_larger_image(self):
        ref = RNG.random((20, 14))
        est = np.clip(ref + RNG.normal(scale=0.1, size=ref.shape), 0, None)
        assert abs(ssim(ref, est) - ssim_windowed_oracle(ref, est)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(7, 40), st.integers(7, 40), st.floats(-3.0, 3.0),
           st.integers(0, 2**32 - 1))
    @example(7, 7, 0.0, 1)
    @example(7, 40, -3.0, 2)
    @example(40, 7, 3.0, 3)
    def test_matches_windowed_oracle_property(self, H, W, log_mag, seed):
        rng = np.random.default_rng(seed)
        mag = 10.0 ** log_mag
        ref = rng.random((H, W)) * mag
        est = np.abs(ref + rng.normal(scale=0.2 * mag, size=ref.shape))
        assert abs(ssim(ref, est) - ssim_windowed_oracle(ref, est)) < 1e-10

    def test_too_small_image(self):
        with pytest.raises(GeometryError):
            ssim(np.zeros((5, 5)), np.zeros((5, 5)))


class TestWindowMean:
    @staticmethod
    def summed(x, w=7):
        H, W = x.shape
        return np.array([[np.sum(x[r:r + w, c:c + w]) / (w * w)
                          for c in range(W - w + 1)] for r in range(H - w + 1)])

    @pytest.mark.parametrize("shape", [(7, 7), (7, 8), (7, 33), (8, 7),
                                       (33, 7), (64, 7), (7, 64)])
    def test_one_output_row_or_column(self, shape):
        x = RNG.random(shape) * 100.0
        got = window_mean(x, 7)
        want = self.summed(x)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", [(7, 8), (8, 8), (16, 16), (20, 14),
                                       (31, 57), (64, 64), (128, 128)])
    def test_bit_equal_to_sliding_window_mean(self, shape):
        # the sum order keeps the bits of the strided mean it replaced, so
        # stored metrics do not change; images 7 px wide are the exception
        x = RNG.random(shape) * 10.0
        strided = np.lib.stride_tricks.sliding_window_view(x, (7, 7))
        assert np.array_equal(window_mean(x, 7), strided.mean(axis=(-2, -1)))


class TestReport:
    def test_evaluate_bundle(self):
        ref = RNG.random((16, 16)) + 0.1
        vals = evaluate(ref, ref)
        assert vals["nmse"] == 0.0
        assert vals["ssim"] == pytest.approx(1.0, abs=1e-12)
        assert vals["psnr"] == 100.0
