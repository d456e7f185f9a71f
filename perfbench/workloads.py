"""Workload make-up, set-up and the timed rounds.

A run runs rounds in a closed loop until its seconds are spent: each
operation starts when the previous one returns.  An operation is one
command call or one trajectory.  A round sets up (gen-data, plus a short
training where the workload needs a trained model) and holds one pass of
each phase the workload has:

* ``train`` - one ``cmd_train`` call (tokenizer fit, then the training
  epochs with a checkpoint after each).
* ``run``   - one ``cmd_run`` call per policy (random, LES, GEO) on the test
  split at x8 and x16.
* ``scan``  - one ``run_acquisition`` call per policy (LES, GEO) on each scan
  image, one line per step at x8 until the budget is spent.

Every workload reports every end-to-end metric, so each has every phase
its metrics need; the workload's own phase takes most of the time.  After
round 0, the operations of the set-up and of each phase are spread evenly
through the round, so that every median samples the whole run: the host's
speed drifts by 20-30% over a few seconds, even in CPU time.  Each round's
deterministic outputs must equal the first round's byte for byte.

The phantoms and the training are fixed per workload; the seed sets the
acquisition seeds.  With seed-dependent phantoms and training, the barely
trained models of a short run moved ssim_mean by 40% between seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

DATA_SEED, TRAIN_SEED = 1234, 0
RHO_C = 0.04
K, LATENT_D, PATCH, BATCH = 256, 16, 8, 8
RUN_ACCELS = [8, 16]
RUN_STEPS = 4
SCAN_R = 8
SCAN_IMAGES = 8
RUN_POLICIES = ("random", "les", "geo")
SCAN_POLICIES = ("les", "geo")
MIN_ROUNDS = 3        # at least three samples of every median

# Outputs that a repeat must reproduce byte for byte, by folder.  Reports
# and checkpoints may carry timings, so they are left out.
DETERMINISTIC = {
    "data": ("manifest.json", "*/*.ctns"),
    "artifacts": ("tokenizer.json", "loss_trace.csv", "model/*"),
    "results": ("metrics.csv", "curves.csv", "trajectories/*/*.jsonl",
                "trajectories/*/*_mask.json", "recon/*/*.ctns"),
}


@dataclass(frozen=True)
class Makeup:
    size: int            # image side; one line per row
    n_train: int
    n_test: int
    epochs: int
    phases: tuple        # phases of one round, in order
    setups_per_round: int = 1

    @property
    def setup_trains(self) -> bool:
        """Without a train phase, the set-up trains the model the rounds use."""
        return "train" not in self.phases


WORKLOADS = {
    # a gen-data alone takes about 0.25 s: four per round give a steady median
    "train": Makeup(64, 200, 8, 2, ("train", "run", "scan"), setups_per_round=4),
    "run": Makeup(64, 96, 24, 1, ("run", "scan")),
    "scan": Makeup(128, 40, 4, 1, ("scan", "run")),
}


def make_config(makeup: Makeup, out_dir: Path, seed: int):
    """Experiment config of a workload; the seed sets the acquisition seeds."""
    from tokmri.config import ExperimentConfig

    doc = {
        "out_dir": str(out_dir),
        "data": {"size": makeup.size, "n_train": makeup.n_train, "n_val": 0,
                 "n_test": makeup.n_test, "master_seed": DATA_SEED},
        "tokenizer": {"K": K, "D": LATENT_D, "p": PATCH},
        "train": {"epochs": makeup.epochs, "batch_size": BATCH, "seed": TRAIN_SEED},
        "acquisition": {"rho_c": RHO_C, "accelerations": RUN_ACCELS,
                        "T": RUN_STEPS, "seeds": [seed], "policies": ["random"]},
    }
    # one pool worker: the plain single-threaded baseline, while the key exists
    if "workers" in {f.name for f in dataclasses.fields(ExperimentConfig)}:
        doc["workers"] = 1
    return ExperimentConfig.from_dict(doc)


def output_digest(out_dir: Path, *folders: str) -> str:
    """sha256 over the relative path and bytes of each deterministic output
    file of the folders (`DETERMINISTIC`)."""
    h = hashlib.sha256()
    for folder in folders:
        root = out_dir / folder
        paths = {p for pattern in DETERMINISTIC[folder] for p in root.glob(pattern)}
        for path in sorted(p for p in paths if p.is_file()):
            h.update(str(path.relative_to(out_dir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _traj_digest(traj) -> str:
    h = hashlib.sha256()
    for rec in traj.steps:
        h.update(np.asarray(rec.lines, dtype=np.int64).tobytes())
        h.update(np.asarray(rec.scores, dtype=np.float64).tobytes())
    h.update(np.asarray(traj.final_mask.flags).tobytes())
    h.update(np.asarray(traj.reconstruction).tobytes())
    return h.hexdigest()


class Bench:
    """One run of one workload: its operations, timings and outputs."""

    def __init__(self, workload: str, seed: int, seconds: float, out_dir: Path):
        self.makeup = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.out_dir = Path(out_dir)
        self.cfg = make_config(self.makeup, self.out_dir, seed)
        self.attempted = 0
        self.failed = 0
        self.chk = checks.Checks()
        self.setup_s: list[float] = []
        self.train_s: list[float] = []          # timed cmd_train calls
        self.setup_train_s: list[float] = []    # the set-up's cmd_train
        self.round_s: list[float] = []          # op seconds per untraced round
        self.traced_round_s: list[float] = []   # same, traced rounds
        self.traced_setups = 0
        self.ops: list[dict] = []               # every operation's CPU and wall time
        self.run_rate = {p: [] for p in RUN_POLICIES}   # trajectories/s per call
        self.scan_ms = {p: [] for p in SCAN_POLICIES}
        self.nmse: list[float] = []             # first round's LES and GEO
        self.ssim: list[float] = []
        self._first: dict = {}
        self._model = None
        self._images = None

    def op(self, fn, *args, fresh=(), label=None):
        """Run one operation; returns its result and the process CPU seconds
        it took.  A raised exception counts it as failed.  Its wall time is
        kept beside the CPU time in `ops`.

        CPU time, not wall time: on the shared reference host, steal time took
        up to a third of the benchmark's vCPU, and wall-time throughputs of
        the same code spread by 0.4-0.56 (IQR / median) between runs.  The
        program is single-threaded compute, so CPU time is its work; time it
        spends blocked (device I/O, lock waits) shows only in the wall time.

        The `fresh` directories are removed first, outside the timed window,
        so the operation writes new files as a first run does: replacing a
        file on this disk took 0.3-1.2 ms and varied 4x between passes,
        against about 0.1 ms for a new one.
        """
        for d in fresh:
            shutil.rmtree(self.out_dir / d, ignore_errors=True)
        self.attempted += 1
        t0, w0 = time.process_time(), time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, None
        cpu, wall = time.process_time() - t0, time.perf_counter() - w0
        self.ops.append({"op": label or fn.__name__, "cpu_s": cpu, "wall_s": wall})
        return out, cpu

    def _same_as_first(self, key, digest, what) -> None:
        first = self._first.setdefault(key, digest)
        self.chk.expect(first == digest, f"{what} differs from the first round's")

    # -- the loop --------------------------------------------------------------

    def run(self, tracer=None) -> None:
        """Rounds until the seconds are spent.  Round 0 sets up, then runs
        its phases in order; later rounds spread the set-ups and each phase's
        operations evenly through the round, so that every median samples the
        host's speed across the whole run, not in one block of it.
        With a tracer, round 0 is an untraced warm-up and later rounds are
        traced and untraced by turns (odd rounds traced)."""
        start = time.perf_counter()
        n = 0
        while n < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            traced = tracer is not None and n % 2 == 1
            if traced:
                tracer.install()
                self.traced_setups += self.makeup.setups_per_round
            total = 0.0
            for phase, step in self._round_steps(n):
                if traced:
                    tracer.segment = phase
                dt = step()
                if phase != "setup":
                    total += dt
            if traced:
                tracer.uninstall()
            (self.traced_round_s if traced else self.round_s).append(total)
            n += 1
        self.rounds = n
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _round_steps(self, n: int) -> list:
        """(phase, step) pairs of round n, in the order they run.  A step
        runs one operation and returns its seconds (0 when it failed).  Out
        of round 0, the i-th of a phase's k steps sits at (i + 1/2) / k of
        the round, the i-th set-up at i / k.  Round 0 keeps the order of the
        phases, since its later phases read what the set-up and the train
        phase write first."""
        k = self.makeup.setups_per_round
        placed = [(i / k, "setup", self._setup) for i in range(k)]
        for phase in self.makeup.phases:
            steps = getattr(self, f"_{phase}_steps")(n)
            placed += [((i + 0.5) / len(steps), phase, s) for i, s in enumerate(steps)]
        if n > 0:
            placed.sort(key=lambda x: x[0])
        return [(phase, step) for _, phase, step in placed]

    def _setup(self) -> float:
        from tokmri.experiment import cmd_gen_data, cmd_train

        _, gen_s = self.op(cmd_gen_data, self.cfg, fresh=("data",))
        train_s = 0.0
        folders = ["data"]
        if self.makeup.setup_trains:
            _, train_s = self.op(cmd_train, self.cfg, fresh=("artifacts",),
                                 label="setup_cmd_train")
            folders.append("artifacts")
        if gen_s is None or train_s is None:
            raise RuntimeError("set-up failed")
        self.setup_s.append(gen_s + train_s)
        if self.makeup.setup_trains:
            self.setup_train_s.append(train_s)
        self._same_as_first("setup", output_digest(self.out_dir, *folders),
                            "set-up output")
        return gen_s + train_s

    def _train_steps(self, n: int) -> list:
        from tokmri.experiment import cmd_train

        def step() -> float:
            _, dt = self.op(cmd_train, self.cfg, fresh=("artifacts",))
            if dt is None:
                return 0.0
            self.train_s.append(dt)
            self._same_as_first("train", output_digest(self.out_dir, "artifacts"),
                                "training artifacts")
            return dt
        return [step]

    def _run_steps(self, n: int) -> list:
        from tokmri.experiment import cmd_run

        per_call = self.makeup.n_test * len(RUN_ACCELS)

        def step(policy: str) -> float:
            self.cfg.acquisition.policies = [policy]
            _, dt = self.op(cmd_run, self.cfg, fresh=("results",),
                            label=f"cmd_run_{policy}")
            if dt is None:
                return 0.0
            self.run_rate[policy].append(per_call / dt)
            res = self.out_dir / "results"
            text = (res / "metrics.csv").read_text(encoding="utf-8")
            self._same_as_first(("run", policy), text, f"{policy} metrics.csv")
            self._same_as_first(("results", policy),
                                output_digest(self.out_dir, "results"),
                                f"{policy} results")
            if n == 0:
                checks.check_run_call(self.chk, res, dict(self._test_images()), policy,
                                      text, RUN_ACCELS, self.seed, RHO_C)
                if policy in SCAN_POLICIES:
                    rows = [r for r in checks.read_csv(text) if r["image_id"] != "summary"]
                    self.nmse += [float(r["nmse"]) for r in rows]
                    self.ssim += [float(r["ssim"]) for r in rows]
            return dt
        return [functools.partial(step, p) for p in RUN_POLICIES]

    def _scan_steps(self, n: int) -> list:
        from tokmri.model import LatentTransformer
        from tokmri.policies import AcquisitionConfig, run_acquisition
        from tokmri.tokenizer import Tokenizer

        def step(idx: int, policy: str) -> float:
            if self._model is None:
                art = self.out_dir / "artifacts"
                self._tok = Tokenizer.load(art / "tokenizer.json")
                self._model = LatentTransformer.load(art / "model")
            image_id, img = self._test_images()[idx]
            acq = AcquisitionConfig(R=SCAN_R, rho_c=RHO_C,
                                    T=checks.budget(img.shape[0], SCAN_R, RHO_C),
                                    lines_per_step=1, policy=policy,
                                    seed=self.seed * 1000 + idx)
            traj, dt = self.op(run_acquisition, img, acq, self._model, self._tok,
                               label=f"run_acquisition_{policy}")
            if dt is None:
                return 0.0
            self.scan_ms[policy].append(dt * 1e3)
            label = f"scan {policy}/{image_id}"
            self._same_as_first(label, _traj_digest(traj), label)
            if n == 0:
                self.nmse.append(float(traj.final_nmse))
                checks.check_scan(self.chk, label, img, traj, SCAN_R, RHO_C)
            return dt
        return [functools.partial(step, idx, p)
                for idx in range(min(SCAN_IMAGES, self.makeup.n_test))
                for p in SCAN_POLICIES]

    def _test_images(self) -> list:
        if self._images is None:
            self._images = checks.read_split(self.chk, self.out_dir / "data", "test")
        return self._images

    # -- checks and results ----------------------------------------------------

    def check_outputs(self) -> None:
        """Checks outside the timed windows, after every round has run and
        peak memory has been read."""
        from tokmri.experiment import cmd_run

        m = self.makeup
        checks.check_training(self.chk, self.out_dir, m.n_train, m.epochs, BATCH, K)
        self.cfg.acquisition.policies = ["oracle"]
        cmd_run(self.cfg)
        oracle = (self.out_dir / "results" / "metrics.csv").read_text(encoding="utf-8")
        checks.check_oracle(self.chk, oracle, len(self._test_images()),
                            {p: self._first[("run", p)] for p in RUN_POLICIES})

    def end_to_end(self) -> dict:
        """The end-to-end metrics of an untraced run, by name."""
        loss = checks.read_csv(
            (self.out_dir / "artifacts" / "loss_trace.csv").read_text(encoding="utf-8"))
        values = {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "train_s": (statistics.median(self.train_s or self.setup_train_s), "s"),
            "final_token_ce": (float(loss[-1]["token_ce"]), "nats"),
            **{f"{p}_traj_per_s": (statistics.median(r), "1/s")
               for p, r in self.run_rate.items()},
            **{f"{p}_traj_ms_p50": (statistics.median(self.scan_ms[p]), "ms")
               for p in SCAN_POLICIES},
            "nmse_mean": (float(np.mean(self.nmse)), "ratio"),
            "ssim_mean": (float(np.mean(self.ssim)), "ratio"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def weights(self) -> dict[str, float]:
        """Per-segment weights that turn traced totals into figures for one
        set-up plus one round of each phase."""
        rounds = 1.0 / len(self.traced_round_s)
        return {"setup": 1.0 / self.traced_setups,
                **{p: rounds for p in self.makeup.phases}}

    def overhead(self) -> float:
        """Median traced round over median untraced round, the warm-up
        round 0 aside."""
        return (statistics.median(self.traced_round_s)
                / statistics.median(self.round_s[1:]))

    def wall_cpu_ratio(self) -> float:
        """Wall time over CPU time, summed over every operation."""
        return (sum(o["wall_s"] for o in self.ops)
                / sum(o["cpu_s"] for o in self.ops))
