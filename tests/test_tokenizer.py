import base64
import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokmri.errors import (
    ConfigError,
    DegenerateDataError,
    GeometryError,
    InvalidInputError,
    ShapeMismatchError,
)
from tokmri.tokenizer import (
    Codebook,
    LatentGrid,
    Tokenizer,
    channel_stats,
    denormalize_channel,
    NEAREST_BLOCK_ROWS,
    kmeans,
    nearest_entry_indices,
    normalize_channel,
    patchify,
    quantize,
    train_tokenizer,
    unpatchify,
)


def brute_force_nearest(vectors, entries):
    """Per-row scan over every codebook entry; the quantizer oracle."""
    out = np.empty(len(vectors), dtype=int)
    for i, v in enumerate(vectors):
        best, best_d = 0, np.inf
        for k, e in enumerate(entries):
            d = float(np.dot(v - e, v - e))
            if d < best_d:
                best, best_d = k, d
        out[i] = best
    return out


class TestPatchify:
    def test_patch_count(self):
        x = np.arange(32 * 32, dtype=float).reshape(32, 32)
        assert patchify(x, 8).shape == (16, 64)

    def test_single_patch_is_whole_image(self):
        x = np.random.default_rng(0).standard_normal((8, 8))
        patches = patchify(x, 8)
        assert patches.shape == (1, 64)
        assert np.array_equal(patches[0], x.ravel())

    def test_round_trip(self):
        x = np.random.default_rng(1).standard_normal((24, 16))
        assert np.array_equal(unpatchify(patchify(x, 8), 3, 2, 8), x)

    def test_row_major_order(self):
        x = np.zeros((4, 4))
        x[0:2, 2:4] = 1.0  # second patch in row-major 2x2-grid order
        patches = patchify(x, 2)
        assert np.all(patches[1] == 1.0)
        assert np.all(patches[[0, 2, 3]] == 0.0)

    def test_indivisible_raises(self):
        with pytest.raises(GeometryError):
            patchify(np.zeros((10, 8)), 3)


class TestQuantize:
    def test_exact_entry_snaps_to_itself(self):
        cb = Codebook(np.arange(12.0).reshape(4, 3))
        lat = LatentGrid(cb.entries[[2]].copy(), 1, 1)
        idx, snapped = quantize(lat, cb)
        assert idx.tolist() == [2]
        assert np.array_equal(snapped.vectors, cb.entries[[2]])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        cb = Codebook(rng.standard_normal((16, 4)))
        lat = LatentGrid(rng.standard_normal((9, 4)), 3, 3)
        _, snapped = quantize(lat, cb)
        idx2, snapped2 = quantize(snapped, cb)
        assert np.array_equal(snapped2.vectors, snapped.vectors)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(3)
        cb = Codebook(rng.standard_normal((16, 4)))
        lat = LatentGrid(rng.standard_normal((64, 4)), 8, 8)
        idx, _ = quantize(lat, cb)
        assert np.array_equal(idx, brute_force_nearest(lat.vectors, cb.entries))

    def test_tie_breaks_to_lowest_index(self):
        # entries 1 and 2 tie for nearest; the lower index must win
        entries = np.array([[9.0, 9.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        cb = Codebook(entries)
        lat = LatentGrid(np.array([[0.0, 0.0]]), 1, 1)
        idx, _ = quantize(lat, cb)
        assert idx.tolist() == [1]

    def test_dimension_mismatch(self):
        cb = Codebook(np.random.default_rng(4).standard_normal((4, 3)))
        lat = LatentGrid(np.zeros((2, 5)), 1, 2)
        with pytest.raises(ShapeMismatchError):
            quantize(lat, cb)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_nearest_neighbor_optimality(self, seed):
        rng = np.random.default_rng(seed)
        cb = Codebook(rng.standard_normal((8, 3)))
        lat = LatentGrid(rng.standard_normal((5, 3)), 1, 5)
        idx, snapped = quantize(lat, cb)
        d_chosen = np.sum((lat.vectors - snapped.vectors) ** 2, axis=1)
        for k in range(cb.K):
            d_k = np.sum((lat.vectors - cb.entries[k]) ** 2, axis=1)
            assert np.all(d_chosen <= d_k + 1e-12)


def unblocked_nearest(vectors, entries):
    """The |v|^2 - 2 v.e + |e|^2 expansion over all rows in one product."""
    d2 = (
        np.sum(vectors * vectors, axis=1)[:, None]
        - 2.0 * vectors @ entries.T
        + np.sum(entries * entries, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def near_tie_rows(n, entries, rng):
    """n random rows, with rows on both sides of every block boundary (and
    the first and last rows) set near the midpoint of two entries: exact
    midpoints in `exact`, midpoints moved 1e-9 of the gap toward one entry
    (either one) in `near`."""
    vectors = rng.standard_normal((n, entries.shape[1])) * 2.0
    edges = [0, n - 1]
    for b in range(NEAREST_BLOCK_ROWS, n, NEAREST_BLOCK_ROWS):
        edges += [b - 2, b - 1, b, b + 1]
    rows = sorted({r for r in edges if 0 <= r < n})
    exact, near = vectors.copy(), vectors.copy()
    for j, r in enumerate(rows):
        a, b = rng.choice(entries.shape[0], size=2, replace=False)
        mid = 0.5 * (entries[a] + entries[b])
        exact[r] = mid
        near[r] = mid + (1e-9 if j % 2 else -1e-9) * (entries[a] - entries[b])
    return exact, near, rows


class TestBlockedNearestEntry:
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 30001])
    def test_equals_unblocked_expansion_and_oracle(self, n):
        rng = np.random.default_rng(n)
        entries = rng.standard_normal((256, 16)) * 2.0
        exact, near, tie_rows = near_tie_rows(n, entries, rng)
        for vectors in (exact, near):
            assert np.array_equal(nearest_entry_indices(vectors, entries),
                                  unblocked_nearest(vectors, entries))
        # the per-row oracle on the near ties and a sample of the rest
        rows = np.unique(np.concatenate(
            [tie_rows, rng.choice(n, size=min(n, 200), replace=False)]))
        got = nearest_entry_indices(near, entries)[rows]
        assert np.array_equal(got, brute_force_nearest(near[rows], entries))

    def test_row_past_a_block_boundary_matches_unblocked(self):
        # NumPy computes a one-row product on another BLAS path with other
        # last bits; exact ties on the row past the boundary would show it
        rng = np.random.default_rng(7)
        entries = rng.standard_normal((256, 16)) * 2.0
        vectors = rng.standard_normal((NEAREST_BLOCK_ROWS + 1, 16)) * 2.0
        for _ in range(40):
            a, b = rng.choice(entries.shape[0], size=2, replace=False)
            vectors[-1] = 0.5 * (entries[a] + entries[b])
            assert (nearest_entry_indices(vectors, entries)[-1]
                    == unblocked_nearest(vectors, entries)[-1])

    def test_traced_peak_bounded_for_a_tokenizer_fit(self):
        # 25,600 latents against K=256: one unblocked distance matrix is 52 MB
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((25_600, 16))
        entries = rng.standard_normal((256, 16))
        tracemalloc.start()
        try:
            nearest_entry_indices(vectors, entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


class TestCodebook:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInputError):
            Codebook(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Codebook(np.array([[1.0, np.inf]]))


class TestEncoderDecoder:
    def _affine_tokenizer(self, rng, p=2, D=3):
        return Tokenizer(
            p=p,
            enc_w=rng.standard_normal((D, p * p)),
            enc_b=np.zeros(D),
            dec_w=rng.standard_normal((p * p, D)),
            dec_b=np.zeros(p * p),
            codebook=Codebook(rng.standard_normal((4, D))),
        )

    def test_zero_image_zero_latents(self):
        tok = self._affine_tokenizer(np.random.default_rng(5))
        lat = tok.encode(np.zeros((4, 4)))
        assert np.array_equal(lat.vectors, np.zeros((4, 3)))

    def test_homogeneous_when_bias_zero(self):
        rng = np.random.default_rng(6)
        tok = self._affine_tokenizer(rng)
        x = rng.standard_normal((4, 4))
        a = -2.5
        assert np.allclose(tok.encode(a * x).vectors, a * tok.encode(x).vectors)

    def test_hand_computed_projection(self):
        # 2x2 patches of a 4x4 image; encoder picks (sum, first pixel)
        enc_w = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        tok = Tokenizer(p=2, enc_w=enc_w, enc_b=np.array([0.5, 0.0]),
                        dec_w=np.zeros((4, 2)), dec_b=np.zeros(4),
                        codebook=Codebook(np.zeros((1, 2)) + 1.0))
        x = np.arange(16.0).reshape(4, 4)
        lat = tok.encode(x)
        # patch 0 pixels: 0,1,4,5 -> sum 10, first 0
        assert np.allclose(lat.vectors[0], [10.5, 0.0])
        # patch 3 pixels: 10,11,14,15 -> sum 50, first 10
        assert np.allclose(lat.vectors[3], [50.5, 10.0])

    def test_decode_shape_and_zero_case(self):
        rng = np.random.default_rng(7)
        tok = self._affine_tokenizer(rng)
        lat = LatentGrid(np.zeros((4, 3)), 2, 2)
        out = tok.decode(lat)
        assert out.shape == (4, 4)
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_pseudo_inverse_round_trip(self):
        # decoder = least-squares inverse of a linear encoder on the
        # training patch span: decode(encode(x)) ~= x there
        rng = np.random.default_rng(8)
        D, p = 4, 2
        basis = rng.standard_normal((D, p * p))  # patch span of rank D
        coeffs = rng.standard_normal((50, D))
        patches = coeffs @ basis
        enc_w = basis  # latent = basis @ patch
        lat = patches @ enc_w.T
        dec_w, *_ = np.linalg.lstsq(lat, patches, rcond=None)
        tok = Tokenizer(p=p, enc_w=enc_w, enc_b=np.zeros(D),
                        dec_w=dec_w.T, dec_b=np.zeros(p * p),
                        codebook=Codebook(rng.standard_normal((3, D))))
        x = (coeffs[0] @ basis).reshape(p, p)
        assert np.allclose(tok.decode(tok.encode(x)), x, atol=1e-8)


def direct_seeding(data, K, seed):
    """k-means++ seeding from the squared differences of every row; the
    reference for the seeding's distance expansion."""
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    centroids = np.empty((K, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    closest = np.sum((data - centroids[0]) ** 2, axis=1)
    for k in range(1, K):
        total = closest.sum()
        if total <= 0:
            centroids[k] = data[rng.integers(n)]
            continue
        centroids[k] = data[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((data - centroids[k]) ** 2, axis=1))
    return centroids


def masked_mean_update(data, centroids):
    """One Lloyd update by a boolean mask per cluster, then the empty
    clusters in index order; the reference for the bincount update.
    Returns (centroids, assign, number of empty clusters)."""
    centroids = centroids.copy()
    assign = nearest_entry_indices(data, centroids)
    empty = []
    for k in range(centroids.shape[0]):
        sel = assign == k
        if np.any(sel):
            centroids[k] = data[sel].mean(axis=0)
        else:
            empty.append(k)
    for k in empty:
        far = int(np.argmax(np.sum((data - centroids[assign]) ** 2, axis=1)))
        centroids[k] = data[far]
        assign[far] = k
    return centroids, assign, len(empty)


def kmeans_cases():
    """(data, K): random rows, and rows drawn from a few distinct ones with
    K below and above the number of distinct rows."""
    rng = np.random.default_rng(21)
    yield rng.standard_normal((3000, 16)) * 2.0, 64
    for distinct, dim, K in ((40, 8, 30), (40, 8, 60), (12, 3, 20)):
        rows = rng.standard_normal((distinct, dim)) * 2.7
        yield rows[rng.integers(0, distinct, size=2000)], K


KMEANS_CASES = list(kmeans_cases())
CASE_IDS = ["random", "dup-K30-of-40", "dup-K60-of-40", "dup-K20-of-12"]


class TestKMeansKernels:
    """The seeding's distance expansion and the bincount update give the
    bits of the direct formulas."""

    @pytest.mark.parametrize("data, K", KMEANS_CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_seeding_picks_equal_direct_seeding(self, data, K, seed):
        seeded, _, trace = kmeans(data, K, iters=0, seed=seed)
        assert trace == []
        assert np.array_equal(seeded, direct_seeding(data, K, seed))

    def test_seeding_sees_exact_zeros_for_duplicates(self):
        # a row equal to a chosen centroid must read 0, not a rounding
        # residue: with every distinct row chosen the sum is exactly 0 and
        # the seeding draws the remaining centroids uniformly
        rows = np.array([[0.1, 0.7, 2.3], [1.9, -0.4, 0.3], [-1.3, 2.2, 0.6]])
        data = rows[np.arange(300) % 3]
        seeded, _, _ = kmeans(data, 9, iters=0, seed=1)
        assert np.array_equal(seeded, direct_seeding(data, 9, seed=1))

    @pytest.mark.parametrize("data, K", KMEANS_CASES, ids=CASE_IDS)
    def test_bincount_update_equals_masked_means(self, data, K):
        seeded, _, _ = kmeans(data, K, iters=0, seed=0)
        centroids, assign, _ = kmeans(data, K, iters=1, seed=0)
        ref_centroids, ref_assign, _ = masked_mean_update(data, seeded)
        assert np.array_equal(centroids, ref_centroids)
        assert np.array_equal(assign, ref_assign)

    def test_empty_clusters_reseeded_to_farthest_rows(self):
        # 6 distinct rows, K=10: the seeding repeats rows, so the update
        # meets empty clusters
        rng = np.random.default_rng(22)
        rows = rng.standard_normal((6, 4))
        data = np.concatenate([rows[rng.integers(0, 6, size=120)],
                               rng.standard_normal((3, 4)) * 9.0])
        seeded, _, _ = kmeans(data, 10, iters=0, seed=4)
        centroids, assign, _ = kmeans(data, 10, iters=1, seed=4)
        ref_centroids, ref_assign, n_empty = masked_mean_update(data, seeded)
        assert n_empty > 0
        assert np.array_equal(centroids, ref_centroids)
        assert np.array_equal(assign, ref_assign)
        for k in set(range(10)) - set(nearest_entry_indices(data, seeded)):
            rows_of_k = np.flatnonzero(assign == k)
            assert rows_of_k.size == 1
            assert np.array_equal(centroids[k], data[rows_of_k[0]])


class TestKMeans:
    def test_distinct_points_zero_distortion(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((8, 3))
        centroids, assign, trace = kmeans(data, 8, seed=0)
        assert trace[-1] < 1e-20
        assert sorted(assign.tolist()) == list(range(8))

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((200, 4))
        _, _, trace = kmeans(data, 10, iters=30, seed=1)
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    @pytest.mark.xfail(
        strict=True,
        reason="kmeans stops after one Lloyd pass: its first stopping test "
               "compares inf with inf (FOUND line on kmeans in CHANGES.md)",
    )
    def test_runs_lloyd_passes_until_converged(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((200, 4))
        _, _, trace = kmeans(data, 10, iters=30, seed=1)
        assert len(trace) > 1
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_hand_case_two_clusters(self):
        data = np.array([[0.0], [0.0], [10.0], [10.0]])
        centroids, _, _ = kmeans(data, 2, seed=2)
        assert sorted(centroids.ravel().tolist()) == [0.0, 10.0]

    def test_k_larger_than_points(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2)), 5)


class TestTrainTokenizer:
    def test_basic_training_and_report(self):
        rng = np.random.default_rng(12)
        dataset = [rng.standard_normal((16, 16)) for _ in range(6)]
        tok, report = train_tokenizer(dataset, K=8, D=4, p=4, seed=0)
        assert tok.codebook.K == 8
        assert report["recon_mse"] >= 0
        assert report["quant_distortion"] >= 0
        trace = report["kmeans_trace"]
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_quant_distortion_is_the_kept_codebooks(self):
        # two Lloyd rounds stop short of convergence, so the last update
        # moves the centroids after kmeans' final assignment
        rng = np.random.default_rng(16)
        dataset = [rng.standard_normal((16, 16)) for _ in range(6)]
        tok, report = train_tokenizer(dataset, K=8, D=4, p=4, iters=2, seed=0)
        lat = np.concatenate([tok.encode(c).vectors for c in dataset])
        d2 = np.sum((lat[:, None, :] - tok.codebook.entries[None]) ** 2, axis=2)
        want = float(np.mean(d2.min(axis=1)))
        assert abs(report["quant_distortion"] - want) <= 1e-12 * want

    def test_rank_d_recon_bound(self):
        # affine round trip must equal the best rank-D approximation error
        rng = np.random.default_rng(13)
        dataset = [rng.standard_normal((8, 8)) for _ in range(10)]
        tok, report = train_tokenizer(dataset, K=4, D=4, p=4, seed=0)
        patches = np.concatenate([patchify(c, 4) for c in dataset])
        mean = patches.mean(axis=0)
        centered = patches - mean
        s = np.linalg.svd(centered, compute_uv=False)
        best = float(np.sum(s[4:] ** 2)) / patches.size
        assert report["recon_mse"] <= best + 1e-9

    def test_empty_dataset(self):
        with pytest.raises(ConfigError):
            train_tokenizer([], K=4, D=2, p=4)

    def test_empty_generator(self):
        with pytest.raises(ConfigError, match="empty"):
            train_tokenizer((c for c in []), K=4, D=2, p=4)

    def test_generator_fits_like_a_list(self):
        rng = np.random.default_rng(17)
        dataset = [rng.standard_normal((16, 16)) for _ in range(12)]
        tok, report = train_tokenizer(dataset, K=8, D=4, p=4, seed=0)
        tok_g, report_g = train_tokenizer((c for c in dataset), K=8, D=4,
                                          p=4, seed=0)
        for name in ("enc_w", "enc_b", "dec_w", "dec_b"):
            assert np.array_equal(getattr(tok_g, name), getattr(tok, name))
        assert np.array_equal(tok_g.codebook.entries, tok.codebook.entries)
        for key in ("n_patches", "recon_mse", "quant_distortion"):
            assert report_g[key] == report[key]

    @pytest.mark.parametrize("p, rows", [(4, 30), (4, 400), (8, 118), (8, 1600)])
    def test_principal_directions_are_the_full_svds(self, p, rows):
        # At M >= 11·p²/6 rows LAPACK's dgesdd factors M×p² as QR and then
        # takes the SVD of R, so the SVD of R that the fit runs gives the
        # same bits. A LAPACK build that skips the QR path fails this.
        rng = np.random.default_rng(rows)
        dataset = [rng.standard_normal((p, p * rows // 2)) for _ in range(2)]
        D = p * p // 2
        tok, _ = train_tokenizer(dataset, K=4, D=D, p=p, seed=0)
        patches = np.concatenate([patchify(c, p) for c in dataset])
        centered = patches - patches.mean(axis=0)
        vt = np.linalg.svd(centered, full_matrices=False)[2]
        assert np.array_equal(tok.enc_w, vt[:D])

    def test_traced_peak_of_a_streamed_fit(self):
        # the patch matrix, its centred copy and the QR's working copy
        rng = np.random.default_rng(18)
        n, size, p = 400, 64, 8
        matrix_bytes = n * size * size * 8
        tracemalloc.start()
        try:
            train_tokenizer((rng.standard_normal((size, size))
                             for _ in range(n)), K=256, D=16, p=p, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * matrix_bytes, (
            f"traced peak {peak / matrix_bytes:.2f}× the patch matrix")

    def test_k_exceeds_patches(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ConfigError):
            train_tokenizer([rng.standard_normal((4, 4))], K=10, D=2, p=4)

    def test_degenerate_patches(self):
        dataset = [np.ones((8, 8)) for _ in range(4)]
        with pytest.raises(DegenerateDataError):
            train_tokenizer(dataset, K=2, D=2, p=4)

    def test_exactly_k_constant_patches(self):
        # K distinct constant patches: every patch its own centroid
        values = np.arange(6.0)
        dataset = [np.full((4, 4), v) for v in values]
        tok, report = train_tokenizer(dataset, K=6, D=2, p=4, seed=0)
        assert report["quant_distortion"] < 1e-18


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        dataset = [rng.standard_normal((16, 16)) for _ in range(4)]
        tok, _ = train_tokenizer(dataset, K=8, D=4, p=4, seed=0)
        path = tmp_path / "tokenizer.json"
        tok.save(path)
        back = Tokenizer.load(path)
        assert back.p == tok.p
        assert np.array_equal(back.enc_w, tok.enc_w)
        assert np.array_equal(back.enc_b, tok.enc_b)
        assert np.array_equal(back.dec_w, tok.dec_w)
        assert np.array_equal(back.dec_b, tok.dec_b)
        assert np.array_equal(back.codebook.entries, tok.codebook.entries)


def _nan_field(name):
    def corrupt(doc):
        arr = np.frombuffer(base64.b64decode(doc[name]), dtype="<f8").copy()
        arr[0] = np.nan
        doc[name] = base64.b64encode(arr.tobytes()).decode("ascii")
    return corrupt


def _set(key, value):
    def corrupt(doc):
        doc[key] = value
    return corrupt


def _truncate(name):
    def corrupt(doc):
        raw = base64.b64decode(doc[name])[:-8]
        doc[name] = base64.b64encode(raw).decode("ascii")
    return corrupt


class TestLoadFailsClosed:
    """Every defect of a tokenizer file raises InvalidInputError naming the
    file and the field."""

    @pytest.fixture(scope="class")
    def saved_doc(self, tmp_path_factory):
        rng = np.random.default_rng(16)
        dataset = [rng.standard_normal((16, 16)) for _ in range(4)]
        tok, _ = train_tokenizer(dataset, K=8, D=4, p=4, seed=0)
        path = tmp_path_factory.mktemp("tok") / "tokenizer.json"
        tok.save(path)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("corrupt, field", [
        pytest.param(lambda doc: doc.pop("enc_w"), "enc_w", id="missing-array"),
        pytest.param(lambda doc: doc.pop("K"), "K", id="missing-K"),
        pytest.param(_set("dec_b", "not base64!"), "dec_b", id="bad-base64"),
        pytest.param(_set("enc_b", 3), "enc_b", id="not-a-string"),
        pytest.param(lambda doc: doc.update(enc_b="\u00e9" + doc["enc_b"]),
                     "enc_b", id="non-ascii-base64"),
        pytest.param(_truncate("entries"), "entries", id="short-payload"),
        pytest.param(_set("K", 9), "entries", id="K-disagrees"),
        pytest.param(_set("p", 2), "enc_w", id="p-disagrees"),
        pytest.param(_set("D", 0), "D", id="D-zero"),
        pytest.param(_set("p", "4"), "p", id="p-string"),
        *(pytest.param(_nan_field(name), name, id=f"nan-{name}")
          for name in ("enc_w", "enc_b", "dec_w", "dec_b", "entries")),
    ])
    def test_defect_names_file_and_field(self, saved_doc, tmp_path, corrupt,
                                         field):
        doc = copy.deepcopy(saved_doc)
        corrupt(doc)
        path = tmp_path / "tokenizer.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError) as info:
            Tokenizer.load(path)
        assert str(path) in str(info.value)
        assert repr(field) in str(info.value)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\xff\xfe"])
    def test_not_a_json_object(self, tmp_path, text):
        path = tmp_path / "tokenizer.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(InvalidInputError, match=str(path)):
            Tokenizer.load(path)

    def test_duplicate_entries_name_file(self, saved_doc, tmp_path):
        doc = copy.deepcopy(saved_doc)
        entries = np.frombuffer(base64.b64decode(doc["entries"]), dtype="<f8")
        entries = entries.reshape(8, 4).copy()
        entries[1] = entries[0]
        doc["entries"] = base64.b64encode(entries.tobytes()).decode("ascii")
        path = tmp_path / "tokenizer.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="'entries'.*distinct"):
            Tokenizer.load(path)


class TestChannelNormalization:
    def test_round_trip(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, 8)) * 3 + 5
        stats = channel_stats(x)
        z = normalize_channel(x, stats)
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-6
        assert np.allclose(denormalize_channel(z, stats), x, atol=1e-12)

    def test_zero_channel_safe(self):
        stats = channel_stats(np.zeros((4, 4)))
        z = normalize_channel(np.zeros((4, 4)), stats)
        assert np.all(np.isfinite(z))
        assert np.array_equal(z, np.zeros((4, 4)))
