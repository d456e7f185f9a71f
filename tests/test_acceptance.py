"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 6-11 share one session-scoped set of trained
artifacts (see conftest.trained_setup) and one full experiment run.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.stats import binomtest

from tokmri import autodiff as ad
from tokmri.experiment import cmd_bench, cmd_run
from tokmri.fourier import (
    SamplingMask,
    acquire,
    forward_fft,
    inverse_fft,
    make_center_mask,
    round_half_away,
    sampling_budget,
    zero_fill,
)
from tokmri.gradients import backward_to_kspace, pipeline_forward
from tokmri.phantoms import PhantomSpec, random_ellipse_phantom
from tokmri.policies import AcquisitionConfig, patch_entropy, run_acquisition
from tokmri.storage import load_mask


def _report(num, description):
    print(f"ACCEPTANCE {num:>2}: PASS - {description}")


def test_criterion_01_fft_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for h in range(1, 9):
        for w in range(1, 9):
            x = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
            ch, cw = h // 2, w // 2
            rows = np.arange(h)
            cols = np.arange(w)
            ph_r = np.exp(-2j * np.pi * np.outer(rows - ch, rows - ch) / h)
            ph_c = np.exp(-2j * np.pi * np.outer(cols - cw, cols - cw) / w)
            naive = ph_r @ x @ ph_c / np.sqrt(h * w)
            assert np.max(np.abs(forward_fft(x) - naive)) < 1e-10, (h, w)
    big = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    assert np.max(np.abs(inverse_fft(forward_fft(big)) - big)) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"FFT matches naive DFT on all grids <= 8x8; round trip "
               f"< 1e-10 on 64x64 ({elapsed:.2f}s)")


def test_criterion_02_acquisition_data_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    for trial in range(100):
        h = int(rng.choice([16, 32, 64]))
        img = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
        flags = rng.random(h) < rng.uniform(0.05, 0.95)
        mask = SamplingMask(h, flags)
        y = acquire(img, mask)
        back = forward_fft(zero_fill(y))
        if flags.any():
            assert np.max(np.abs(back[flags] - y[flags])) < 1e-10
        assert np.all(y[~flags] == 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"data consistency held for 100 random masks/images "
               f"({elapsed:.2f}s)")


def test_criterion_03_quantizer_oracle():
    from tokmri.tokenizer import Codebook, LatentGrid, quantize

    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    K, D, n = 256, 16, 1000
    cb = Codebook(rng.standard_normal((K, D)))
    lat = LatentGrid(rng.standard_normal((n, D)), 1, n)
    idx, _ = quantize(lat, cb)
    # exhaustive scan, one entry at a time
    dist = np.empty((n, K))
    for k in range(K):
        diff = lat.vectors - cb.entries[k]
        dist[:, k] = np.einsum("ij,ij->i", diff, diff)
    oracle = np.argmin(dist, axis=1)
    assert np.array_equal(idx, oracle), "nearest-neighbor mismatch"
    # deterministic tie-break: +e and -e are exactly equidistant from the
    # origin in float arithmetic; the lower index must win
    tied = np.zeros((3, D))
    tied[0, :] = 5.0
    tied[1, 0] = 1.0
    tied[2, 0] = -1.0
    idx2, _ = quantize(LatentGrid(np.zeros((1, D)), 1, 1), Codebook(tied))
    assert idx2.tolist() == [1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, f"quantizer matched exhaustive scan on 1000 latents, K=256, "
               f"zero mismatches ({elapsed:.2f}s)")


def test_criterion_04_geo_gradient_finite_differences(toy_setup):
    t0 = time.perf_counter()
    tok, model = toy_setup  # 16x16 image, p=8, K=8, 1-layer transformer
    img = random_ellipse_phantom(PhantomSpec(size=16, n_ellipses=4, seed=3))
    ksp = acquire(img, make_center_mask(16, 0.25))
    state = pipeline_forward(ksp, tok, model)
    state.tape.replay_check()
    grad = backward_to_kspace(state)
    offsets = state.frozen_offsets()  # quantization indices frozen (STE)

    def loss_at(y):
        return pipeline_forward(y, tok, model, frozen_offsets=offsets).loss

    rng = np.random.default_rng(42)
    coords = rng.choice(ksp.size, size=20, replace=False)
    worst = 0.0
    for flat in coords:
        r, c = divmod(int(flat), ksp.shape[1])
        part = 1.0 if rng.random() < 0.5 else 1j
        h = 1e-5 * max(1.0, abs(ksp[r, c]))
        yp = ksp.copy()
        yp[r, c] += h * part
        ym = ksp.copy()
        ym[r, c] -= h * part
        fd = (loss_at(yp) - loss_at(ym)) / (2 * h)
        an = grad[r, c].real if part == 1.0 else grad[r, c].imag
        rel = abs(fd - an) / max(abs(fd), abs(an))
        worst = max(worst, rel)
        assert rel < 1e-4, (r, c, part, fd, an)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"entropy gradient matched central differences at 20 random "
               f"k-space coordinates, worst rel {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_05_entropy_bounds_and_values():
    K = 256
    # logits: uniform is all zeros; one-hot is 0 at the hot index and -1e3
    # elsewhere, where exp underflows to exactly 0
    uniform = np.zeros((16, K))
    one_hot = np.full((16, K), -1e3)
    one_hot[:, 5] = 0.0
    h_uniform = patch_entropy(np.stack([uniform, uniform]), 4, 4)
    assert np.max(np.abs(h_uniform - 2 * math.log(K))) < 1e-9
    h_zero = patch_entropy(np.stack([one_hot, one_hot]), 4, 4)
    assert np.all(h_zero == 0.0)
    rng = np.random.default_rng(5)
    mixed = patch_entropy(np.stack([
        np.log(rng.dirichlet(np.ones(K), size=16)),
        np.log(rng.dirichlet(np.ones(K), size=16)),
    ]), 4, 4)
    assert np.all(mixed >= 0.0)
    assert np.all(mixed <= 2 * math.log(K) + 1e-12)
    _report(5, "entropy cells in [0, 2 ln K]; uniform = 2 ln K; one-hot = 0")


def test_criterion_06_budget_and_mask_invariants(trained_setup, run_results):
    cfg = trained_setup["cfg"]
    acq = cfg.acquisition
    num_lines = cfg.data.size
    traj_root = Path(cfg.out_dir) / "results" / "trajectories"
    center = make_center_mask(num_lines, acq.rho_c)
    checked = 0
    for policy in ("random", "les", "geo"):
        for R in acq.accelerations:
            B = sampling_budget(num_lines, R, acq.rho_c)
            assert B == round_half_away(num_lines * (1 - acq.rho_c) / R)
            expected_total = center.center_count + min(
                B, num_lines - center.center_count)
            for seed in acq.seeds:
                tdir = traj_root / f"{policy}_R{R}_seed{seed}"
                logs = sorted(tdir.glob("*.jsonl"))
                assert len(logs) == cfg.data.n_test
                for log in logs:
                    seen = set(center.line_indices().tolist())
                    nnz_prev = center.nnz
                    for line in log.read_text().splitlines():
                        rec = json.loads(line)
                        for j in rec["lines"]:
                            assert j not in seen  # disjoint, excludes center
                            seen.add(j)
                        assert rec["mask_nnz"] == nnz_prev + len(rec["lines"])
                        nnz_prev = rec["mask_nnz"]  # monotone growth
                    final = load_mask(
                        log.with_name(log.stem + "_mask.json"))
                    assert final.nnz == nnz_prev == expected_total
                    assert final.nnz - final.center_count <= B
                    checked += 1
    _report(6, f"mask monotonicity, line disjointness and exact budget on "
               f"{checked} logged trajectories")


def _nmse_by_policy(run_results, R):
    """pairs[(policy)][seed][image_id] -> nmse, restricted to one R."""
    table = {}
    for row in run_results.rows:
        if row["policy"] == "oracle" or row["R"] != R:
            continue
        table.setdefault(row["policy"], {}).setdefault(
            row["seed"], {})[row["image_id"]] = row["nmse"]
    return table


def test_criterion_07_directional_policy_gain(trained_setup, run_results):
    cfg = trained_setup["cfg"]
    table = _nmse_by_policy(run_results, R=8)
    seeds = cfg.acquisition.seeds
    assert len(seeds) >= 3
    assert len(trained_setup["test_images"]) == 50
    rand_mean = np.mean([v for s in seeds
                         for v in table["random"][s].values()])
    for policy in ("les", "geo"):
        pol_mean = np.mean([v for s in seeds
                            for v in table[policy][s].values()])
        assert pol_mean <= rand_mean, (policy, pol_mean, rand_mean)
        wins = losses = 0
        for s in seeds:
            for image_id, r_val in table["random"][s].items():
                p_val = table[policy][s][image_id]
                if p_val < r_val:
                    wins += 1
                elif p_val > r_val:
                    losses += 1
        p_value = binomtest(wins, wins + losses,
                            alternative="greater").pvalue
        assert p_value < 0.05, (policy, wins, losses, p_value)
        _report(7, f"{policy}: mean NMSE {pol_mean:.4f} <= random "
                   f"{rand_mean:.4f}; sign test {wins}/{wins + losses} wins, "
                   f"p={p_value:.2e}")


def test_criterion_08_multi_step_ablation(trained_setup):
    cfg = trained_setup["cfg"]
    tokenizer = trained_setup["tokenizer"]
    model = trained_setup["model"]
    num_lines = cfg.data.size
    B = sampling_budget(num_lines, 8, cfg.acquisition.rho_c)
    multi, single = [], []
    # GEO is deterministic with noiseless acquisition, so one pass over the
    # test set covers every seed of the criterion-7 protocol
    for i, (_, img) in enumerate(trained_setup["test_images"]):
        cfg_multi = AcquisitionConfig(R=8, rho_c=cfg.acquisition.rho_c, T=B,
                                      lines_per_step=1, policy="geo", seed=i)
        cfg_single = AcquisitionConfig(R=8, rho_c=cfg.acquisition.rho_c, T=1,
                                       lines_per_step=B, policy="geo", seed=i)
        multi.append(run_acquisition(img, cfg_multi, model, tokenizer).final_nmse)
        single.append(run_acquisition(img, cfg_single, model, tokenizer).final_nmse)
    m_multi, m_single = float(np.mean(multi)), float(np.mean(single))
    assert m_multi <= m_single + 1e-6, (m_multi, m_single)
    _report(8, f"GEO with T=B steps: mean NMSE {m_multi:.4f} <= one-shot "
               f"T=1: {m_single:.4f}")


def test_criterion_09_oracle_bound(trained_setup, run_results):
    cfg = trained_setup["cfg"]
    summaries = {(s["policy"], s["R"]): s["nmse"]
                 for s in run_results.summaries}
    oracle = summaries[("oracle", None)]
    for policy in ("random", "les", "geo"):
        for R in cfg.acquisition.accelerations:
            assert oracle <= summaries[(policy, R)], (policy, R)
    _report(9, f"oracle mean NMSE {oracle:.4f} lower-bounds every policy at "
               f"every tested acceleration")


def test_criterion_10_latency_ordering(trained_setup):
    result = cmd_bench(trained_setup["cfg"])
    rows = {r["policy"]: r for r in result.rows}
    assert rows["les"]["steps"] >= 20
    assert rows["geo"]["steps"] >= 20
    les_ms = rows["les"]["step_ms_mean"]
    geo_ms = rows["geo"]["step_ms_mean"]
    assert les_ms < geo_ms
    _report(10, f"mean step latency LES {les_ms:.1f} ms < GEO {geo_ms:.1f} ms")


def test_criterion_11_run_determinism(trained_setup, run_results):
    cfg = trained_setup["cfg"]
    first = run_results.metrics_csv.read_bytes()
    second_result = cmd_run(cfg)
    second = second_result.metrics_csv.read_bytes()
    assert first == second
    _report(11, f"cmd_run reproduced a byte-identical metrics CSV "
                f"({len(first)} bytes)")
