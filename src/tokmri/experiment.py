"""Experiment orchestration behind the CLI subcommands.

Each command reads an :class:`~tokmri.config.ExperimentConfig`, produces its
artifacts under ``out_dir`` and returns a small result object.  All file
writes are temp-file-then-rename, and a command re-run with the same config
and seed produces byte-identical outputs (bench wall-clock fields aside).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import AcquisitionSection, ExperimentConfig
from .errors import ConfigError, InvalidInputError
from .metrics import evaluate
from .model import (
    AdamState,
    LatentTransformer,
    TrainState,
    read_model_manifest,
    train_model,
)
from .phantoms import make_splits, random_ellipse_phantom
from .policies import AcquisitionTrajectory, oracle_reconstruct, run_acquisition
from .storage import (
    atomic_write_text,
    is_int,
    load_ctns,
    read_json,
    read_npz,
    save_ctns,
    save_mask,
    write_csv,
    write_json,
    write_npz,
)
from .tokenizer import (
    Tokenizer,
    channel_stats,
    normalize_channel,
    split_channels,
    train_tokenizer,
)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

@dataclass
class GenDataResult:
    manifest_path: Path
    counts: dict[str, int]


def cmd_gen_data(cfg: ExperimentConfig) -> GenDataResult:
    out = Path(cfg.out_dir) / "data"
    d = cfg.data
    train_s, val_s, test_s = make_splits(
        d.n_train, d.n_val, d.n_test, seed=d.master_seed
    )
    manifest = {
        "size": d.size,
        "n_ellipses": d.n_ellipses,
        "intensity": [d.intensity_lo, d.intensity_hi],
        "phase_mode": d.phase_mode,
        "master_seed": d.master_seed,
        "splits": {},
    }
    for split, seeds in (("train", train_s), ("val", val_s), ("test", test_s)):
        entries = []
        for i, seed in enumerate(seeds):
            img = random_ellipse_phantom(d.phantom(int(seed)))
            image_id = f"{split}_{i:04d}"
            rel = f"{split}/{image_id}.ctns"
            save_ctns(out / rel, img)
            entries.append({"id": image_id, "file": rel, "seed": int(seed)})
        manifest["splits"][split] = entries
    # the manifest is written last so a failed generation leaves no manifest
    write_json(out / "manifest.json", manifest)
    return GenDataResult(
        manifest_path=out / "manifest.json",
        counts={k: len(v) for k, v in manifest["splits"].items()},
    )


def load_split(cfg: ExperimentConfig, split: str) -> list[tuple[str, np.ndarray]]:
    data_dir = Path(cfg.out_dir) / "data"
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"missing data manifest: {manifest_path} (run gen-data)")
    splits = read_json(manifest_path).get("splits")
    entries = splits.get(split) if isinstance(splits, dict) else None
    if entries is None:
        raise ConfigError(f"{manifest_path}: no split {split!r}")
    if not isinstance(entries, list):
        raise ConfigError(f"{manifest_path}: split {split!r} is not a list")
    images = []
    for i, entry in enumerate(entries):
        for key in ("id", "file"):
            if not (isinstance(entry, dict) and isinstance(entry.get(key), str)):
                raise ConfigError(
                    f"{manifest_path}: split {split!r} entry {i} has no "
                    f"{key!r} key with a string value"
                )
        images.append((entry["id"], load_ctns(data_dir / entry["file"])))
    return images


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    tokenizer_path: Path
    model_dir: Path
    loss_trace_path: Path
    final_token_ce: float
    tokenizer_report: dict


def _artifact_paths(cfg: ExperimentConfig) -> dict[str, Path]:
    art = Path(cfg.out_dir) / "artifacts"
    return {
        "tokenizer": art / "tokenizer.json",
        "model": art / "model",
        "loss_trace": art / "loss_trace.csv",
        "train_report": art / "train_report.json",
        "checkpoint": art / "checkpoint",
    }


def save_checkpoint(state: TrainState, directory: Path) -> None:
    directory = Path(directory)
    state.model.save(directory / "model")
    opt = {f"m.{k}": v for k, v in state.adam.m.items()}
    opt.update({f"v.{k}": v for k, v in state.adam.v.items()})
    write_npz(directory / "optimizer.npz", opt)
    write_json(directory / "meta.json", {
        "epoch": state.epoch,
        "adam_t": state.adam.t,
        "rng_state": state.rng_state,
        "trace": [[int(e), int(s), float(l)] for e, s, l in state.trace],
    })


def load_checkpoint(directory: Path) -> TrainState:
    """Read a directory written by `save_checkpoint`.

    A `meta.json` without an integer `epoch` and `adam_t` >= 0, a `trace` of
    [epoch, step, token_ce] rows and a PCG64 `rng_state`, a model directory
    that `LatentTransformer.load` rejects, and an `optimizer.npz` whose
    moments are not exactly one finite `m.<name>` and `v.<name>` of each
    parameter's shape raise InvalidInputError naming the file.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise ConfigError(f"missing checkpoint meta: {meta_path}")
    meta = read_json(meta_path)
    for key in ("epoch", "adam_t"):
        if not is_int(meta.get(key)) or meta[key] < 0:
            raise InvalidInputError(f"{meta_path}: key {key!r} must be an "
                                    f"integer >= 0, got {meta.get(key)!r}")
    trace = meta.get("trace")
    if not (isinstance(trace, list) and all(
            isinstance(row, list) and len(row) == 3 and is_int(row[0])
            and is_int(row[1]) and (is_int(row[2]) or isinstance(row[2], float))
            for row in trace)):
        raise InvalidInputError(f"{meta_path}: key 'trace' must be a list of "
                                f"[epoch, step, token_ce] rows")
    # the generator accepts and returns unchanged only a complete PCG64 state
    bitgen = np.random.PCG64()
    try:
        bitgen.state = meta.get("rng_state")
        rng_ok = bitgen.state == meta["rng_state"]
    except (TypeError, ValueError, KeyError, OverflowError):
        rng_ok = False
    if not rng_ok:
        raise InvalidInputError(f"{meta_path}: key 'rng_state' must be a "
                                f"PCG64 generator state")

    model = LatentTransformer.load(directory / "model")
    opt_path = directory / "optimizer.npz"
    opt = read_npz(opt_path)
    shapes = {f"{s}.{name}": arr.shape
              for s in "mv" for name, arr in model.params.items()}
    if opt.keys() != shapes.keys():
        raise InvalidInputError(
            f"{opt_path}: moments {sorted(opt.keys() ^ shapes.keys())} are "
            f"missing or extra; the model's parameters need one m.* and v.* each"
        )
    for key, arr in opt.items():
        if not (arr.dtype == np.float64 and arr.shape == shapes[key]
                and np.all(np.isfinite(arr))):
            raise InvalidInputError(f"{opt_path}: moment {key!r} must be a "
                                    f"finite float64 array of shape "
                                    f"{list(shapes[key])}")
    return TrainState(
        model=model,
        adam=AdamState(m={k[2:]: a for k, a in opt.items() if k[0] == "m"},
                       v={k[2:]: a for k, a in opt.items() if k[0] == "v"},
                       t=meta["adam_t"]),
        epoch=meta["epoch"],
        trace=[(e, s, float(ce)) for e, s, ce in trace],
        rng_state=bitgen.state,
    )


def cmd_train(cfg: ExperimentConfig) -> TrainResult:
    paths = _artifact_paths(cfg)
    train_images = load_split(cfg, "train")
    images = [img for _, img in train_images]
    resume = None
    if cfg.train.resume_from:
        resume = load_checkpoint(Path(cfg.train.resume_from))
        t = cfg.tokenizer
        _check_fit(vars(resume.model), t.K, t.D, t.p, cfg.data.size,
                   f"{Path(cfg.train.resume_from) / 'model'} does not fit "
                   f"tokenizer.K {t.K}, D {t.D} and p {t.p} at data.size "
                   f"{cfg.data.size}")

    # tokenizer sees per-image-normalized channels, like the encoder will
    tok, tok_report = train_tokenizer(
        (normalize_channel(x, channel_stats(x))
         for x in map(split_channels, images)),
        K=cfg.tokenizer.K,
        D=cfg.tokenizer.D,
        p=cfg.tokenizer.p,
        iters=cfg.tokenizer.kmeans_iters,
        seed=cfg.train.seed,
    )
    tok.save(paths["tokenizer"])

    sampler, noise = cfg.train.corruption(cfg.acquisition.rho_c)
    state = train_model(
        images,
        tok,
        cfg.model,
        mask_sampler=sampler,
        epochs=cfg.train.epochs,
        batch_size=cfg.train.batch_size,
        lr=cfg.train.lr,
        seed=cfg.train.seed,
        noise=noise,
        resume=resume,
        on_epoch_end=lambda st: save_checkpoint(st, paths["checkpoint"]),
    )
    state.model.save(paths["model"])

    write_csv(paths["loss_trace"], ["epoch", "step", "token_ce"], state.trace)

    final_ce = float(state.trace[-1][2]) if state.trace else float("nan")
    write_json(paths["train_report"], {
        "final_token_ce": final_ce,
        "epochs": state.epoch,
        "tokenizer": {k: v for k, v in tok_report.items() if k != "kmeans_trace"},
        "n_train_images": len(images),
    })
    return TrainResult(
        tokenizer_path=paths["tokenizer"],
        model_dir=paths["model"],
        loss_trace_path=paths["loss_trace"],
        final_token_ce=final_ce,
        tokenizer_report=tok_report,
    )


def load_artifacts(cfg: ExperimentConfig) -> tuple[Tokenizer, LatentTransformer]:
    paths = _artifact_paths(cfg)
    if not paths["tokenizer"].exists():
        raise ConfigError(f"missing trained tokenizer: {paths['tokenizer']}")
    tokenizer = Tokenizer.load(paths["tokenizer"])
    manifest = read_model_manifest(paths["model"])
    # the model's tensor shapes follow from these, checked by its `load`
    _check_fit(manifest, tokenizer.codebook.K, tokenizer.D, tokenizer.p,
               cfg.data.size, f"{paths['model'] / 'manifest.json'} does not fit "
               f"{paths['tokenizer']} at data.size {cfg.data.size}")
    return tokenizer, LatentTransformer.load(paths["model"], manifest)


def _check_fit(model: dict, K: int, D: int, p: int, size: int, what: str):
    """Raise ConfigError, its message starting with `what`, unless a model's
    `codebook_size`, `latent_dim` and `seq_len` are those of a tokenizer with
    K entries of dimension D on p×p patches of size² images."""
    for name, want in (("codebook_size", K), ("latent_dim", D),
                       ("seq_len", (size // p) ** 2)):
        if model[name] != want:
            raise ConfigError(f"{what}: {name} is {model[name]}, expected {want}")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    metrics_csv: Path
    metrics_json: Path
    curves_csv: Path
    rows: list[dict] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)


def _trajectories(acq: AcquisitionSection, images, policy: str):
    """`policy`'s trajectories, the ones `cmd_run` makes and `cmd_bench`
    times: for each acceleration, seed and test image, in that order,
    `(R, seed, image_id, image, settings)`."""
    for R in acq.accelerations:
        for seed in acq.seeds:
            for idx, (image_id, img) in enumerate(images):
                yield (R, seed, image_id, img, acq.trajectory(
                    policy, R, seed=int(seed) * 1_000_003 + idx))


def _trajectory_records(policy: str, traj: AcquisitionTrajectory) -> str:
    lines = []
    for rec in traj.steps:
        lines.append(json.dumps({
            "step": rec.step,
            "policy": policy,
            "lines": [int(j) for j in rec.lines],
            "score_argmax": (
                None if rec.scores is None else int(np.argmax(rec.scores))
            ),
            "mask_nnz": rec.mask.nnz,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def cmd_run(cfg: ExperimentConfig) -> RunResult:
    tokenizer, model = load_artifacts(cfg)
    images = load_split(cfg, "test")
    res_dir = Path(cfg.out_dir) / "results"
    acq = cfg.acquisition

    metric_rows: list[dict] = []
    curve_rows: list[dict] = []
    summaries: list[dict] = []
    # accumulators keyed by (policy, R)
    group_rows: dict[tuple, list[dict]] = {}

    def eval_one(img, recon):
        return evaluate(np.abs(img), np.abs(recon),
                        psnr_cap=cfg.metrics.psnr_cap)

    for policy in acq.policies:
        if policy == "oracle":
            for image_id, img in images:
                recon = oracle_reconstruct(img, tokenizer)
                row = {"image_id": image_id, "policy": "oracle", "R": None,
                       "T": 0, "seed": None, **eval_one(img, recon)}
                metric_rows.append(row)
                group_rows.setdefault(("oracle", None), []).append(row)
                save_ctns(res_dir / "recon" / "oracle" / f"{image_id}.ctns",
                          recon)
            continue
        for R, seed, image_id, img, settings in _trajectories(acq, images,
                                                              policy):
            tag = f"{policy}_R{R}_seed{seed}"
            traj = run_acquisition(img, settings, model, tokenizer)
            row = {"image_id": image_id, "policy": policy, "R": R,
                   "T": acq.T, "seed": seed,
                   **eval_one(img, traj.reconstruction)}
            metric_rows.append(row)
            group_rows.setdefault((policy, R), []).append(row)
            tdir = res_dir / "trajectories" / tag
            atomic_write_text(tdir / f"{image_id}.jsonl",
                              _trajectory_records(policy, traj))
            save_mask(tdir / f"{image_id}_mask.json", traj.final_mask)
            save_ctns(res_dir / "recon" / tag / f"{image_id}.ctns",
                      traj.reconstruction)
            for rec in traj.steps:
                curve_rows.append({
                    "policy": policy, "R": R, "seed": seed,
                    "image_id": image_id, "steps_done": rec.step - 1,
                    "nmse": rec.nmse_before,
                })
            curve_rows.append({
                "policy": policy, "R": R, "seed": seed,
                "image_id": image_id, "steps_done": len(traj.steps),
                "nmse": traj.final_nmse,
            })

    for (policy, R), rows in group_rows.items():
        summaries.append({
            "image_id": "summary",
            "policy": policy,
            "R": R,
            "T": 0 if policy == "oracle" else acq.T,
            "psnr": float(np.mean([r["psnr"] for r in rows])),
            "ssim": float(np.mean([r["ssim"] for r in rows])),
            "nmse": float(np.mean([r["nmse"] for r in rows])),
        })

    cols = ["image_id", "policy", "R", "T", "psnr", "ssim", "nmse"]
    metrics_csv = res_dir / "metrics.csv"
    write_csv(metrics_csv, cols,
              ([row[c] for c in cols] for row in metric_rows + summaries))

    metrics_json = res_dir / "metrics.json"
    write_json(metrics_json, {
        "rows": metric_rows,
        "summaries": summaries,
        "seeds": list(acq.seeds),
        "accelerations": list(acq.accelerations),
        "policies": list(acq.policies),
    })

    curve_cols = ["policy", "R", "seed", "image_id", "steps_done", "nmse"]
    curves_csv = res_dir / "curves.csv"
    write_csv(curves_csv, curve_cols,
              ([row[c] for c in curve_cols] for row in curve_rows))

    return RunResult(
        metrics_csv=metrics_csv,
        metrics_json=metrics_json,
        curves_csv=curves_csv,
        rows=metric_rows,
        summaries=summaries,
    )


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

@dataclass
class BenchResult:
    report_json: Path
    report_csv: Path
    rows: list[dict] = field(default_factory=list)


def cmd_bench(cfg: ExperimentConfig) -> BenchResult:
    """Per-step latency of LES and GEO, timed on the trajectories `cmd_run`
    makes, in its order, until each policy has `bench.min_steps` steps."""
    tokenizer, model = load_artifacts(cfg)
    images = load_split(cfg, "test")
    acq = cfg.acquisition
    if acq.T < 1:
        raise ConfigError(f"bench needs acquisition.T >= 1, got {acq.T}")
    if not any(acq.trajectory("les", R).plan(cfg.data.size)[1]
               for R in acq.accelerations):
        raise ConfigError(
            f"acquisition.accelerations {acq.accelerations} leave no line "
            f"to acquire on {cfg.data.size}-line images")
    bench_dir = Path(cfg.out_dir) / "bench"
    rows = []
    for policy in ("les", "geo"):
        times: list[float] = []
        for *_, img, settings in _trajectories(acq, images, policy):
            traj = run_acquisition(img, settings, model, tokenizer)
            times.extend(rec.time_ms for rec in traj.steps)
            if len(times) >= cfg.bench.min_steps:
                break
        else:
            raise ConfigError(
                f"bench.min_steps is {cfg.bench.min_steps}, more than the "
                f"{len(times)} steps of {policy}'s trajectories over "
                f"acquisition.accelerations, acquisition.seeds and the "
                f"{len(images)} test images")
        rows.append({
            "policy": policy,
            "steps": len(times),
            "step_ms_mean": float(np.mean(times)),
            "step_ms_std": float(np.std(times)),
            "total_s": sum(times) / 1e3,
        })
    write_json(bench_dir / "latency.json", {"rows": rows})
    cols = ["policy", "steps", "step_ms_mean", "step_ms_std", "total_s"]
    write_csv(bench_dir / "latency.csv", cols,
              ([row[c] for c in cols] for row in rows))
    return BenchResult(
        report_json=bench_dir / "latency.json",
        report_csv=bench_dir / "latency.csv",
        rows=rows,
    )
