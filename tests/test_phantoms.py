import numpy as np
import pytest

from tokmri.errors import ConfigError
from tokmri.phantoms import (
    PhantomSpec,
    ellipse_membership,
    make_splits,
    random_ellipse_phantom,
    render_ellipses,
)

# Canonical ten-ellipse head phantom: (x0, y0, a, b, theta_deg, intensity).
# Intensities are additive; the interior ellipses subtract from the skull.
SHEPP_LOGAN_ELLIPSES = (
    (0.0, 0.0, 0.69, 0.92, 0.0, 1.0),
    (0.0, -0.0184, 0.6624, 0.874, 0.0, -0.98),
    (0.22, 0.0, 0.11, 0.31, -18.0, -0.02),
    (-0.22, 0.0, 0.16, 0.41, 18.0, -0.02),
    (0.0, 0.35, 0.21, 0.25, 0.0, 0.01),
    (0.0, 0.1, 0.046, 0.046, 0.0, 0.01),
    (0.0, -0.1, 0.046, 0.046, 0.0, 0.01),
    (-0.08, -0.605, 0.046, 0.023, 0.0, 0.01),
    (0.0, -0.606, 0.023, 0.023, 0.0, 0.01),
    (0.06, -0.605, 0.023, 0.046, 0.0, 0.01),
)


class TestSheppLogan:
    """`render_ellipses` on the Shepp-Logan head."""

    def test_center_pixel_equals_summed_memberships(self):
        size = 64
        img = render_ellipses(size, SHEPP_LOGAN_ELLIPSES)
        # pixel-center coordinate of the (32, 32) pixel
        coord = -1.0 + (2.0 * 32 + 1.0) / size
        expected = sum(
            v for (x0, y0, a, b, th, v) in SHEPP_LOGAN_ELLIPSES
            if ellipse_membership(coord, coord, x0, y0, a, b, th)
        )
        # head (1.0) plus the big interior ellipse (-0.98)
        assert abs(expected - 0.02) < 1e-12
        assert abs(img[32, 32] - expected) < 1e-12

    def test_corners_zero(self):
        img = render_ellipses(32, SHEPP_LOGAN_ELLIPSES)
        for r, c in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            assert img[r, c] == 0

    def test_symmetric_subset_is_mirror_symmetric(self):
        symmetric = [e for e in SHEPP_LOGAN_ELLIPSES
                     if e[0] == 0.0 and e[4] == 0.0]
        img = render_ellipses(64, symmetric)
        assert np.array_equal(img, np.fliplr(img))


class TestRandomEllipsePhantom:
    def test_zero_ellipses_zero_image(self):
        # no ellipse would render an all-zero phantom, which the spec rejects
        with pytest.raises(ConfigError, match="n_ellipses"):
            PhantomSpec(size=32, n_ellipses=0, seed=1)

    def test_seed_reproducible_bitwise(self):
        spec = PhantomSpec(size=32, seed=77)
        assert np.array_equal(random_ellipse_phantom(spec),
                              random_ellipse_phantom(spec))

    def test_magnitude_normalized(self):
        for seed in range(5):
            img = random_ellipse_phantom(PhantomSpec(size=32, seed=seed))
            mag = np.abs(img)
            assert mag.min() >= 0.0
            assert mag.max() <= 1.0 + 1e-12

    def test_zero_phase_mode_real(self):
        img = random_ellipse_phantom(
            PhantomSpec(size=32, phase_mode="zero", seed=3))
        assert np.all(img.imag == 0)

    def test_smooth_phase_bounded(self):
        for seed in range(5):
            img = random_ellipse_phantom(PhantomSpec(size=32, seed=seed))
            nz = np.abs(img) > 0
            assert np.all(np.abs(np.angle(img[nz])) <= np.pi + 1e-12)

    def test_mean_intensity_regression(self):
        # value frozen from the same 100 seeds at authoring time; a drift
        # beyond 3 sigma of the mean means generation changed
        golden_mean, golden_std = 0.1188420670510872, 0.031020466266680834
        means = [np.abs(random_ellipse_phantom(PhantomSpec(size=64, seed=s))).mean()
                 for s in range(100)]
        sem = golden_std / np.sqrt(len(means))
        assert abs(np.mean(means) - golden_mean) < 3 * sem

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            PhantomSpec(size=8)
        with pytest.raises(ConfigError):
            PhantomSpec(phase_mode="chaotic")


class TestMakeSplits:
    def test_disjoint_and_complete(self):
        train, val, test = make_splits(10, 2, 5, seed=0)
        all_seeds = train + val + test
        assert len(all_seeds) == 17
        assert len(set(all_seeds)) == 17

    def test_same_master_seed_same_splits(self):
        assert make_splits(5, 3, 2, seed=9) == make_splits(5, 3, 2, seed=9)

    def test_different_master_seed_differs(self):
        assert make_splits(5, 3, 2, seed=1) != make_splits(5, 3, 2, seed=2)

    def test_empty_split_allowed(self):
        train, val, test = make_splits(4, 0, 2, seed=0)
        assert val == []
        assert len(train) == 4 and len(test) == 2

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            make_splits(-1, 0, 0)
