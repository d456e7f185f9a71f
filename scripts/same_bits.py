"""Digests of every deterministic output of the bench make-ups.

For each of perfbench's `train`, `run` and `scan` make-ups this generates
the data and trains (`data`, `artifacts`, and `report`: the training report,
which holds the tokenizer fit's `recon_mse` and `quant_distortion` and no
timings), runs random, LES, GEO and the oracle at acquisition noise 0 and
0.05 (`results`), and runs three test images' one-line-per-step random, LES
and GEO trajectories at x8 (`trajectories`). The `run` make-up trains at
training noise 0.05, so the digests also cover the noise draws of
training examples; `train` and `scan` train at noise 0. It prints one
`name sha256` line per group. Two runs print the same lines exactly when
their outputs are byte-identical, so comparing a change with its parent is

    python3 scripts/same_bits.py --out /tmp/new > new.txt
    python3 scripts/same_bits.py --src /path/to/parent/src --out /tmp/old > old.txt
    diff old.txt new.txt

The make-ups and digests come from `perfbench/workloads.py`. Only the
commands, `run_acquisition`, `AcquisitionConfig` and the loaders are
called, so earlier sources run unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
MAKEUPS = ("train", "run", "scan")
POLICIES = ("random", "les", "geo")
SEED = 1            # the acquisition seed, as in the CI bench smoke
NOISE = (0.0, 0.05)
TRAJ_R = 8
TRAJ_IMAGES = 3
TRAIN_NOISE = 0.05  # the `run` make-up's training noise


def trajectory_bytes(traj) -> bytes:
    """Every step's lines, scores, NMSE and mask, then the final mask,
    reconstruction and NMSE."""
    parts = []
    for rec in traj.steps:
        parts.append(np.asarray(rec.lines, dtype=np.int64).tobytes())
        parts.append(b"none" if rec.scores is None
                     else np.asarray(rec.scores, dtype=np.float64).tobytes())
        parts.append(np.float64(rec.nmse_before).tobytes())
        parts.append(np.asarray(rec.mask.flags).tobytes())
    parts.append(np.asarray(traj.final_mask.flags).tobytes())
    parts.append(np.asarray(traj.reconstruction).tobytes())
    parts.append(np.float64(traj.final_nmse).tobytes())
    return b"".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Print a sha256 per group of deterministic outputs.")
    ap.add_argument("--src", type=Path, default=REPO / "src",
                    help="the directory holding the tokmri package to run")
    ap.add_argument("--out", type=Path, required=True,
                    help="where the runs write; each make-up's folder is "
                         "replaced")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(REPO / "perfbench")]

    import tokmri
    from workloads import WORKLOADS, make_config, output_digest

    if Path(tokmri.__file__).resolve().parents[1] != args.src.resolve():
        ap.error(f"tokmri was imported from {tokmri.__file__}, not {args.src}")

    from tokmri.experiment import (
        cmd_gen_data,
        cmd_run,
        cmd_train,
        load_artifacts,
        load_split,
    )
    from tokmri.policies import AcquisitionConfig, run_acquisition

    for name in MAKEUPS:
        out = args.out.resolve() / name
        shutil.rmtree(out, ignore_errors=True)
        cfg = make_config(WORKLOADS[name], out, SEED)
        if name == "run":
            cfg.train.noise_sigma = TRAIN_NOISE
        cmd_gen_data(cfg)
        cmd_train(cfg)
        for folder in ("data", "artifacts"):
            print(f"{name}/{folder}", output_digest(out, folder), flush=True)
        report = (out / "artifacts" / "train_report.json").read_bytes()
        print(f"{name}/report", hashlib.sha256(report).hexdigest(), flush=True)

        cfg.acquisition.policies = [*POLICIES, "oracle"]
        for sigma in NOISE:
            cfg.acquisition.noise_sigma = sigma
            shutil.rmtree(out / "results", ignore_errors=True)
            cmd_run(cfg)
            print(f"{name}/results/noise={sigma}",
                  output_digest(out, "results"), flush=True)

        tokenizer, model = load_artifacts(cfg)
        images = load_split(cfg, "test")[:TRAJ_IMAGES]
        for policy in POLICIES:
            h = hashlib.sha256()
            for idx, (_, img) in enumerate(images):
                # one line per step; the steps stop when the budget is spent
                acq = AcquisitionConfig(
                    R=TRAJ_R, rho_c=cfg.acquisition.rho_c, T=img.shape[0],
                    lines_per_step=1, policy=policy, seed=idx)
                h.update(trajectory_bytes(
                    run_acquisition(img, acq, model, tokenizer)))
            print(f"{name}/trajectories/{policy}", h.hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
