import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tokmri.cli import main
from tokmri.config import ExperimentConfig, default_config
from tokmri.errors import ConfigError
from tokmri.experiment import (
    cmd_bench,
    cmd_gen_data,
    cmd_run,
    cmd_train,
    load_artifacts,
    load_checkpoint,
    load_split,
)
from tokmri.model import LatentTransformer, TransformerConfig, read_model_manifest
from tokmri.phantoms import random_ellipse_phantom
from tokmri.policies import oracle_reconstruct, run_acquisition
from tokmri.storage import load_ctns


# Pieces of config YAML that a property test joins at random: keys of
# every section, YAML syntax and tags, and values of every type.
YAML_PIECES = (
    "\n", " ", "  ", ": ", "- ", "[", "]", "{", "}", ", ", "'", '"', "#",
    "&a ", "*a", "<<: ", "? ", "|\n", ">\n", "---\n", "...\n", "%YAML 1.1\n",
    "!!int ", "!!float ", "!!timestamp ", "!!bool ", "!!str ", "!!binary ",
    "!!set ", "!!omap ", "!!python/object ", "out_dir", "data", "tokenizer",
    "model", "train", "acquisition", "metrics", "bench", "size", "master_seed",
    "K", "p", "layers", "heads", "lr", "seed", "seeds", "noise_seed", "T",
    "accelerations", "policies", "les", "geo", "psnr_cap", "resume_from",
    "0", "1", "7", "-1", "32", "1.5", "1.0e+400", ".nan", ".inf", "~",
    "null", "yes", "0x_", "0b2", "1_0", "1:30", "2020-13-45", "2020-01-01",
    "2001-12-14t21:59:43.10-05:00", "\xe9", "\t",
)


def mini_config(out_dir: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.out_dir = out_dir
    cfg.data.size = 32
    cfg.data.n_train = 12
    cfg.data.n_val = 2
    cfg.data.n_test = 5
    cfg.data.n_ellipses = 4
    cfg.tokenizer.K = 16
    cfg.tokenizer.D = 8
    cfg.tokenizer.p = 8
    cfg.model = TransformerConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64)
    cfg.train.epochs = 2
    cfg.acquisition.accelerations = [4]
    cfg.acquisition.T = 2
    cfg.acquisition.policies = ["random", "les", "geo", "oracle"]
    cfg.acquisition.seeds = [0]
    cfg.bench.min_steps = 6
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    cfg = mini_config(str(out))
    gen = cmd_gen_data(cfg)
    train = cmd_train(cfg)
    run = cmd_run(cfg)
    return cfg, gen, train, run


def _artifact_copy(mini_run, tmp_path):
    """The mini run's data and artifacts copied to `tmp_path / "out"`, and a
    config file that points at the copy."""
    cfg, *_ = mini_run
    out = tmp_path / "out"
    for folder in ("data", "artifacts"):
        shutil.copytree(Path(cfg.out_dir) / folder, out / folder)
    copy = ExperimentConfig.from_dict(cfg.to_dict())
    copy.out_dir = str(out)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(copy.to_yaml())
    return out, cfg_path


def _truncate_blob(path):
    path.write_bytes(path.read_bytes()[:-8])


def _poison_blob(path, value):
    arr = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    arr[arr.size // 2] = value
    path.write_bytes(arr.tobytes())


def _edit_npz(path, edit):
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    np.savez(path, **arrays)


class TestConfig:
    def test_round_trip_through_yaml(self):
        cfg = default_config()
        doc = yaml.safe_load(cfg.to_yaml())
        back = ExperimentConfig.from_dict(doc)
        assert back.to_dict() == cfg.to_dict()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"sections": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"data": {"sizzle": 3}})

    def test_validation_patch_divisibility(self):
        cfg = default_config()
        cfg.data.size = 60
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_validation_policy_names(self):
        cfg = default_config()
        cfg.acquisition.policies = ["les", "greedy"]
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_policy_rejected_without_accelerations(self):
        # no acceleration plans a trajectory, so only the name check sees it
        with pytest.raises(ConfigError, match="acquisition.policies.*'greedy'"):
            ExperimentConfig.from_dict({"acquisition": {
                "policies": ["greedy", "oracle"], "accelerations": []}})

    @pytest.mark.parametrize("text", ["", "# nothing set\n"])
    def test_empty_document_loads_defaults(self, tmp_path, text):
        path = tmp_path / "empty.yaml"
        path.write_text(text)
        assert ExperimentConfig.load(path).to_dict() == default_config().to_dict()

    @pytest.mark.parametrize("text", ["0\n", "false\n", "''\n", "[]\n"])
    def test_falsy_non_mapping_document_rejected(self, tmp_path, text):
        path = tmp_path / "falsy.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="must be a mapping") as exc:
            ExperimentConfig.load(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.load(tmp_path / "nope.yaml")

    @settings(max_examples=150, deadline=None)
    @example(model={"layers": -1, "heads": 1, "embed_dim": 1, "ffn_dim": 1})
    @given(model=st.fixed_dictionaries({
        key: st.integers(-2, 12)
        for key in ("layers", "heads", "embed_dim", "ffn_dim")}))
    def test_model_section_round_trips(self, model):
        """A `model` section either fails to load, naming the section, or
        gives a model that saves and reads back."""
        try:
            cfg = ExperimentConfig.from_dict({"model": model})
        except ConfigError as exc:
            assert str(exc).startswith("model: ")
            return
        net = LatentTransformer.init(cfg.model, latent_dim=3, seq_len=2,
                                     codebook_size=4, seed=0)
        with tempfile.TemporaryDirectory() as tmp:
            net.save(tmp)
            manifest = read_model_manifest(tmp)
            back = LatentTransformer.load(tmp, manifest)
        assert manifest["config"] == cfg.model
        assert back.params.keys() == net.params.keys()
        for name, arr in net.params.items():
            assert back.params[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("value", [0, "3"])
    @pytest.mark.parametrize("key", ["min_steps"])
    def test_validation_bench_at_least_one(self, key, value):
        cfg = default_config()
        setattr(cfg.bench, key, value)
        with pytest.raises(ConfigError, match=f"bench.{key}"):
            cfg.validate()


class TestGenData:
    def test_counts_and_manifest(self, mini_run):
        cfg, gen, _, _ = mini_run
        assert gen.counts == {"train": 12, "val": 2, "test": 5}
        manifest = json.loads(Path(gen.manifest_path).read_text())
        assert len(manifest["splits"]["test"]) == 5
        for entry in manifest["splits"]["test"]:
            assert (Path(cfg.out_dir) / "data" / entry["file"]).exists()

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = mini_config(str(tmp_path / "a"))
        cfg.data.n_train, cfg.data.n_val, cfg.data.n_test = 3, 1, 2
        first = cmd_gen_data(cfg)
        blobs1 = {p.name: p.read_bytes()
                  for p in sorted(Path(cfg.out_dir, "data").rglob("*.ctns"))}
        manifest1 = Path(first.manifest_path).read_bytes()
        second = cmd_gen_data(cfg)
        blobs2 = {p.name: p.read_bytes()
                  for p in sorted(Path(cfg.out_dir, "data").rglob("*.ctns"))}
        assert blobs1 == blobs2
        assert Path(second.manifest_path).read_bytes() == manifest1

    def test_failure_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = mini_config(str(tmp_path / "b"))
        import tokmri.experiment as exp

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(exp, "save_ctns", boom)
        with pytest.raises(OSError):
            cmd_gen_data(cfg)
        assert not (Path(cfg.out_dir) / "data" / "manifest.json").exists()

    def test_loaded_split_images_match_spec_size(self, mini_run):
        cfg, *_ = mini_run
        images = load_split(cfg, "test")
        assert len(images) == 5
        for _, img in images:
            assert img.shape == (32, 32)


class TestTrain:
    def test_artifacts_written(self, mini_run):
        cfg, _, train, _ = mini_run
        assert Path(train.tokenizer_path).exists()
        assert (Path(train.model_dir) / "manifest.json").exists()
        assert math.isfinite(train.final_token_ce)

    def test_loss_trace_rows(self, mini_run):
        cfg, _, train, _ = mini_run
        rows = Path(train.loss_trace_path).read_text().strip().splitlines()
        steps_per_epoch = math.ceil(cfg.data.n_train / cfg.train.batch_size)
        assert len(rows) - 1 == cfg.train.epochs * steps_per_epoch
        assert rows[0] == "epoch,step,token_ce"

    def test_checkpoint_resume_bit_identical(self, mini_run, tmp_path):
        cfg, *_ = mini_run
        # retrain 1 epoch into a fresh dir, resume 1 more, compare with the
        # 2-epoch trace from the fixture run
        alt = mini_config(str(tmp_path / "resume"))
        alt.data.master_seed = cfg.data.master_seed
        cmd_gen_data(alt)
        alt.train.epochs = 1
        cmd_train(alt)
        ckpt_dir = Path(alt.out_dir) / "artifacts" / "checkpoint"
        state = load_checkpoint(ckpt_dir)
        assert state.epoch == 1
        alt.train.epochs = 2
        alt.train.resume_from = str(ckpt_dir)
        result = cmd_train(alt)
        full_trace = (Path(cfg.out_dir) / "artifacts" / "loss_trace.csv").read_text()
        resumed_trace = Path(result.loss_trace_path).read_text()
        assert resumed_trace == full_trace
        for blob in ("head_re.w.bin", "pos.bin", "layer0.attn.wq.bin"):
            assert (Path(result.model_dir) / blob).read_bytes() == \
                (Path(cfg.out_dir) / "artifacts" / "model" / blob).read_bytes()

    def test_missing_data_fails_with_path(self, tmp_path):
        cfg = mini_config(str(tmp_path / "empty"))
        with pytest.raises(ConfigError, match="manifest"):
            cmd_train(cfg)


class TestRun:
    def test_metrics_row_accounting(self, mini_run):
        cfg, _, _, run = mini_run
        # 5 images * 3 policies * 1 accel * 1 seed + 5 oracle + 4 summaries
        with open(run.metrics_csv) as fh:
            rows = list(csv.DictReader(fh))
        per_image = [r for r in rows if r["image_id"] != "summary"]
        summaries = [r for r in rows if r["image_id"] == "summary"]
        assert len(per_image) == 5 * 3 + 5
        assert len(summaries) == 4
        oracle_rows = [r for r in per_image if r["policy"] == "oracle"]
        assert len(oracle_rows) == 5
        assert all(r["R"] == "" for r in oracle_rows)

    def test_summary_is_mean_of_rows(self, mini_run):
        cfg, _, _, run = mini_run
        for summary in run.summaries:
            rows = [r for r in run.rows if r["policy"] == summary["policy"]
                    and r["R"] == summary["R"]]
            assert abs(summary["nmse"] - np.mean([r["nmse"] for r in rows])) < 1e-12

    def test_outputs_exist(self, mini_run):
        cfg, _, _, run = mini_run
        res = Path(cfg.out_dir) / "results"
        assert run.metrics_csv.exists()
        assert run.metrics_json.exists()
        assert run.curves_csv.exists()
        recs = list((res / "trajectories").rglob("*.jsonl"))
        assert len(recs) == 5 * 3  # per policy/R/seed/image
        recon = list((res / "recon").rglob("*.ctns"))
        assert len(recon) == 5 * 3 + 5

    def test_oracle_recon_is_oracle_reconstruct(self, mini_run):
        cfg, *_ = mini_run
        tok, _ = load_artifacts(cfg)
        recon = Path(cfg.out_dir) / "results" / "recon" / "oracle"
        images = load_split(cfg, "test")
        assert len(images) == 5
        for image_id, img in images:
            assert (load_ctns(recon / f"{image_id}.ctns").tobytes()
                    == oracle_reconstruct(img, tok).tobytes())

    def test_trajectory_record_schema(self, mini_run):
        cfg, _, _, run = mini_run
        res = Path(cfg.out_dir) / "results" / "trajectories"
        some = sorted(res.rglob("*.jsonl"))[0]
        for line in some.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"step", "policy", "lines", "score_argmax",
                                "mask_nnz"}

    def test_reconstruction_files_load(self, mini_run):
        cfg, _, _, run = mini_run
        res = Path(cfg.out_dir) / "results" / "recon"
        some = sorted(res.rglob("*.ctns"))[0]
        img = load_ctns(some)
        assert img.shape == (32, 32)

    def test_missing_artifacts_error_names_file(self, tmp_path):
        cfg = mini_config(str(tmp_path / "c"))
        cmd_gen_data(cfg)
        with pytest.raises(ConfigError, match="tokenizer"):
            cmd_run(cfg)

    def test_rerun_byte_identical(self, mini_run):
        cfg, _, _, run = mini_run
        before = run.metrics_csv.read_bytes()
        curves_before = run.curves_csv.read_bytes()
        rerun = cmd_run(cfg)
        assert rerun.metrics_csv.read_bytes() == before
        assert rerun.curves_csv.read_bytes() == curves_before

    def test_metrics_recomputable_from_stored_files(self, mini_run):
        # reported numbers must be exactly reproducible from the CTNS files
        from tokmri.metrics import evaluate

        cfg, _, _, run = mini_run
        data_dir = Path(cfg.out_dir) / "data"
        manifest = json.loads((data_dir / "manifest.json").read_text())
        originals = {e["id"]: load_ctns(data_dir / e["file"])
                     for e in manifest["splits"]["test"]}
        res = Path(cfg.out_dir) / "results"
        for row in run.rows:
            tag = ("oracle" if row["policy"] == "oracle"
                   else f"{row['policy']}_R{row['R']}_seed{row['seed']}")
            recon = load_ctns(res / "recon" / tag / f"{row['image_id']}.ctns")
            redo = evaluate(np.abs(originals[row["image_id"]]), np.abs(recon),
                            psnr_cap=cfg.metrics.psnr_cap)
            assert redo["nmse"] == row["nmse"]
            assert redo["psnr"] == row["psnr"]
            assert redo["ssim"] == row["ssim"]


class TestBench:
    def test_report_rows_and_ordering_fields(self, mini_run):
        cfg, *_ = mini_run
        result = cmd_bench(cfg)
        assert [r["policy"] for r in result.rows] == ["les", "geo"]
        for row in result.rows:
            assert row["steps"] >= cfg.bench.min_steps
            assert row["step_ms_mean"] > 0
            assert row["step_ms_std"] >= 0
        assert result.report_json.exists()
        assert result.report_csv.exists()


class TestCLI:
    def test_show_config_prints_defaults(self, capsys):
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        doc = yaml.safe_load(out)
        assert doc == default_config().to_dict()

    def test_gen_data_cli_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg = mini_config(str(tmp_path / "out"))
        cfg.data.n_train, cfg.data.n_val, cfg.data.n_test = 2, 0, 1
        cfg_path.write_text(cfg.to_yaml())
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "data" / "manifest.json").exists()

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("data:\n  size: 60\n")
        assert main(["gen-data", "--config", str(cfg_path)]) == 1

    def test_missing_config_file_exit_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_run_without_artifacts_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg = mini_config(str(tmp_path / "out2"))
        cfg_path.write_text(cfg.to_yaml())
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_mapping_section_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("data: 5\n")
        assert main(["gen-data", "--config", str(cfg_path)]) == 1
        assert "'data'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ("out_dir: 5\n", "out_dir"),
        ("acquisition:\n  seeds: 3\n", "acquisition.seeds"),
        ("train:\n  epochs: '2'\n", "train.epochs"),
    ])
    def test_wrong_scalar_type_exit_one(self, tmp_path, capsys, doc, key):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(doc)
        assert main(["gen-data", "--config", str(cfg_path)]) == 1
        assert f"config key {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ("data:\n  size: 0\n", "data: size"),
        ("data:\n  n_train: -5\n", "data.n_train"),
        ("data:\n  n_val: -1\n", "data.n_val"),
        ("data:\n  n_test: -1\n", "data.n_test"),
        ("tokenizer:\n  K: 0\n", "tokenizer.K"),
        ("tokenizer:\n  D: 0\n", "tokenizer.D"),
        ("tokenizer:\n  p: 0\n", "tokenizer.p"),
        ("tokenizer:\n  p: -8\n", "tokenizer.p"),
        ("train:\n  epochs: 0\n", "train.epochs"),
        ("train:\n  batch_size: 0\n", "train.batch_size"),
        ("train:\n  lr: .nan\n", "train.lr"),
        ("train:\n  lr: .inf\n", "train.lr"),
        ("train:\n  lr: 0\n", "train.lr"),
        ("train:\n  lr: -1.0e-3\n", "train.lr"),
        ("tokenizer:\n  kmeans_iters: 0\n", "tokenizer.kmeans_iters"),
        ("model:\n  heads: 3\n", "model: embed_dim"),
        ("model:\n  heads: 0\n", "model: heads"),
        ("model:\n  layers: -1\n", "model: layers"),
        ("model:\n  embed_dim: 0\n", "model: embed_dim"),
        ("model:\n  ffn_dim: 0\n", "model: ffn_dim"),
        ("model:\n  ffn_dim: -3\n", "model: ffn_dim"),
        ("data:\n  n_ellipses: 0\n", "data: n_ellipses"),
        ("data:\n  intensity_lo: .nan\n", "data: intensity_lo"),
        ("data:\n  intensity_lo: .inf\n", "data: intensity_lo"),
        ("data:\n  intensity_hi: .inf\n", "data: intensity_hi"),
        ("data:\n  intensity_lo: -1.0e+300\n", "data: intensity_lo"),
        ("data:\n  intensity_lo: 2.0\n  intensity_hi: 1.0\n",
         "data: intensity_hi"),
        ("data:\n  intensity_lo: 0\n  intensity_hi: 0\n", "data: intensity_hi"),
        ("data:\n  intensity_lo: 1.0e+308\n  intensity_hi: 1.7e+308\n",
         "data: n_ellipses"),
        pytest.param("data:\n  n_ellipses: 1" + "0" * 400 + "\n",
                     "data: n_ellipses", id="data.n_ellipses-401-digits"),
        ("bench:\n  accel: 8\n", "unknown config key bench.accel"),
        ("bench:\n  T: 8\n", "unknown config key bench.T"),
        ("train:\n  accel_lo: 0\n", "train: accel_lo"),
        ("train:\n  accel_lo: -1\n", "train: accel_lo"),
        ("train:\n  accel_lo: 30\n", "train: accel_lo"),
        ("train:\n  accel_hi: .nan\n", "train: accel_lo"),
        ("train:\n  noise_sigma: -0.1\n", "train: noise sigma"),
        ("train:\n  noise_sigma: .nan\n", "train: noise sigma"),
        ("train:\n  noise_sigma: .inf\n", "train: noise sigma"),
        ("train:\n  noise_sigma: 1.0e+300\n", "train: noise sigma"),
        ("tokenizer:\n  D: 100\n", "tokenizer.D"),
        ("acquisition:\n  T: -1\n", "acquisition: step count"),
        ("acquisition:\n  lines_per_step: 0\n", "acquisition: lines_per_step"),
        ("acquisition:\n  noise_sigma: -1.0\n", "acquisition: noise sigma"),
        ("acquisition:\n  noise_sigma: .nan\n", "acquisition: noise sigma"),
        ("acquisition:\n  noise_sigma: .inf\n", "acquisition: noise sigma"),
        ("data:\n  size: 32\nacquisition:\n  accelerations: [4]\n"
         "  T: 1\n  lines_per_step: 1\n", "acquisition: 1 steps of 1 lines"),
        ("metrics:\n  psnr_cap: .nan\n", "metrics.psnr_cap"),
        ("metrics:\n  psnr_cap: .inf\n", "metrics.psnr_cap"),
        ("metrics:\n  psnr_cap: 0\n", "metrics.psnr_cap"),
        ("metrics:\n  psnr_cap: -20.0\n", "metrics.psnr_cap"),
        ("acquisition:\n  seeds: [0, 0]\n", "acquisition.seeds"),
        ("acquisition:\n  accelerations: [4, 8, 4]\n",
         "acquisition.accelerations"),
        ("acquisition:\n  policies: [les, random, les]\n",
         "acquisition.policies"),
        ("acquisition:\n  policies: [greedy, oracle]\n  accelerations: []\n",
         "acquisition.policies"),
        ("data:\n  master_seed: -1\n", "data.master_seed"),
        ("train:\n  seed: -1\n", "train.seed"),
        ("acquisition:\n  seeds: [-1]\n", "acquisition.seeds"),
        (f"acquisition:\n  seeds: [{2**64}]\n", "acquisition.seeds"),
        ("acquisition:\n  noise_seed: -1\n", "acquisition.noise_seed"),
        (f"acquisition:\n  noise_seed: {2**32}\n", "acquisition.noise_seed"),
        pytest.param("data:\n  size: 1000000000000\n", "data: size",
                     id="data:\n  size: 1000000000000\n-phantom size"),
        pytest.param("train:\n  lr: 1" + "0" * 400 + "\n", "train.lr",
                     id="train.lr-401-digits"),
    ])
    def test_out_of_range_value_exit_one(self, tmp_path, capsys, doc, key):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(f"out_dir: {tmp_path / 'out'}\n" + doc)
        assert main(["gen-data", "--config", str(cfg_path)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, key", [
        (["--policy", "les", "--policy", "les"], "acquisition.policies"),
        (["--accel", "4", "--accel", "4"], "acquisition.accelerations"),
    ])
    def test_duplicate_flag_exit_one(self, tmp_path, capsys, flags, key):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(mini_config(str(tmp_path / "out")).to_yaml())
        assert main(["run", "--config", str(cfg_path), *flags]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "run", "bench"])
    def test_negative_seed_flag_exit_one(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(mini_config(str(tmp_path / "out")).to_yaml())
        assert main([command, "--config", str(cfg_path), "--seed", "-1"]) == 1
        assert "data.master_seed must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["show-config", "gen-data"])
    @pytest.mark.parametrize("text", [
        "data: {size: 32,\n  n_train: [\n",
        "data:\n  size: 32\n n_test: 4\n",
        "\xff\xfe",
        "out_dir: 2020-13-45\n",
        "out_dir: !!timestamp 2020-13-45\n",
        "out_dir: !!timestamp soon\n",
        "data:\n  size: !!int x\n",
        "data:\n  size: !!int ''\n",
        "train:\n  lr: !!float y\n",
        "train:\n  epochs: 0x_\n",
        "data:\n  phase_mode: !!bool maybe\n",
        pytest.param("[" * 3000, id="3000-nested-brackets"),
    ])
    def test_broken_yaml_exit_one(self, tmp_path, capsys, command, text):
        cfg_path = tmp_path / "broken.yaml"
        cfg_path.write_bytes(text.encode("latin-1"))
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert str(cfg_path) in err and "YAML" in err
        assert "Traceback" not in err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(
        st.text(max_size=80),
        st.lists(st.sampled_from(YAML_PIECES), max_size=24).map("".join)))
    def test_any_text_loads_or_fails_closed(self, tmp_path, text):
        path = tmp_path / "any.yaml"
        path.write_text(text, encoding="utf-8")
        try:
            ExperimentConfig.load(path)
        except ConfigError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(section=st.sampled_from(["train", "acquisition"]),
           sigma=st.floats())
    @example(section="train", sigma=math.nan)
    @example(section="acquisition", sigma=math.inf)
    @example(section="acquisition", sigma=sys.float_info.max)
    @example(section="train", sigma=5e-324)
    def test_any_noise_sigma_loads_or_fails_closed(self, section, sigma):
        # a sigma either fails at load, naming its section, or draws a
        # finite noise field
        try:
            cfg = ExperimentConfig.from_dict({section: {"noise_sigma": sigma}})
        except ConfigError as exc:
            assert str(exc).startswith(f"{section}: ")
            return
        if section == "train":
            noise = cfg.train.corruption(cfg.acquisition.rho_c)[1]
        else:
            noise = cfg.acquisition.trajectory("les", 8).noise
        assert np.all(np.isfinite(noise.draw((4, 4), np.random.default_rng(0))))

    @settings(max_examples=300, deadline=None)
    @given(n_ellipses=st.integers(max_value=20), lo=st.floats(),
           hi=st.floats(), seed=st.integers(0, 2**32 - 1))
    @example(n_ellipses=8, lo=1.0e308, hi=1.7e308, seed=0)
    @example(n_ellipses=3, lo=5.992310449541053e307,
             hi=5.992310449541053e307, seed=14)
    @example(n_ellipses=1, lo=0.0, hi=5e-324, seed=0)
    def test_any_phantom_intensities_load_or_fail_closed(self, n_ellipses,
                                                         lo, hi, seed):
        # overlapping ellipses sum their intensities: a setting either fails
        # at load, naming the data section, or renders a finite phantom
        doc = {"data": {"size": 16, "n_ellipses": n_ellipses,
                        "intensity_lo": lo, "intensity_hi": hi}}
        try:
            cfg = ExperimentConfig.from_dict(doc)
        except ConfigError as exc:
            assert str(exc).startswith("data: ")
            return
        img = random_ellipse_phantom(cfg.data.phantom(seed))
        assert img.shape == (16, 16) and np.all(np.isfinite(img))

    def test_int_accepted_for_float_key(self):
        cfg = ExperimentConfig.from_dict({"train": {"lr": 1}})
        assert cfg.train.lr == 1.0 and isinstance(cfg.train.lr, float)

    def test_manifest_entry_without_file_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg = mini_config(str(tmp_path / "out"))
        cfg.data.n_train, cfg.data.n_val, cfg.data.n_test = 2, 0, 1
        cfg_path.write_text(cfg.to_yaml())
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        manifest_path = tmp_path / "out" / "data" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["splits"]["train"][1]["file"]
        manifest_path.write_text(json.dumps(manifest))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "split 'train' entry 1 has no 'file' key" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        pytest.param(b"{not json", "not a JSON document", id="not-json"),
        pytest.param(b"\xff\xfe", "not a JSON document", id="not-utf8"),
        pytest.param(b"[1, 2]", "expected a JSON object", id="top-level-list"),
        pytest.param(b'{"splits": {"train": {"id": "a"}}}',
                     "split 'train' is not a list", id="split-not-list"),
        pytest.param(b'{"splits": {"train": [{"id": "a", "file": 5}]}}',
                     "entry 0 has no 'file' key with a string value",
                     id="file-not-string"),
    ])
    def test_corrupt_data_manifest_exit_one(self, tmp_path, capsys, text,
                                            named):
        cfg_path = tmp_path / "cfg.yaml"
        cfg = mini_config(str(tmp_path / "out"))
        cfg_path.write_text(cfg.to_yaml())
        manifest_path = tmp_path / "out" / "data" / "manifest.json"
        manifest_path.parent.mkdir(parents=True)
        manifest_path.write_bytes(text)
        assert main(["train", "--config", str(cfg_path)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert str(manifest_path) in lines[0] and named in lines[0]

    def test_removed_workers_key_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "old.yaml"
        cfg_path.write_text(f"out_dir: {tmp_path / 'out'}\nworkers: 2\n")
        assert main(["gen-data", "--config", str(cfg_path)]) == 1
        assert "workers" in capsys.readouterr().err

    @pytest.fixture
    def no_trajectories(self, monkeypatch):
        """Fail the test instead of looping if bench starts a trajectory."""
        import tokmri.experiment as exp

        def refuse(*args, **kwargs):
            raise AssertionError("bench ran a trajectory")

        monkeypatch.setattr(exp, "run_acquisition", refuse)

    def test_bench_zero_steps_exit_one(self, mini_run, tmp_path, capsys,
                                       no_trajectories):
        cfg, *_ = mini_run
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(cfg.to_yaml())
        assert main(["bench", "--config", str(cfg_path), "--steps", "0"]) == 1
        assert "acquisition.T" in capsys.readouterr().err

    def test_bench_accel_without_lines_exit_one(self, mini_run, tmp_path,
                                                capsys, no_trajectories):
        cfg, *_ = mini_run
        bad = ExperimentConfig.from_dict(cfg.to_dict())
        bad.acquisition.accelerations = [64]  # round(32 * 0.96 / 64) == 0 lines
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(bad.to_yaml())
        assert main(["bench", "--config", str(cfg_path)]) == 1
        assert "acquisition.accelerations" in capsys.readouterr().err

    def test_bench_grid_short_of_min_steps_exit_one(self, mini_run, tmp_path,
                                                    capsys):
        out, cfg_path = _artifact_copy(mini_run, tmp_path)
        cfg = ExperimentConfig.load(cfg_path)
        cfg.bench.min_steps = 11  # 5 images × 2 steps at x4
        cfg_path.write_text(cfg.to_yaml())
        assert main(["bench", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "bench.min_steps" in err and "10 steps" in err, err
        assert not (out / "bench").exists()

    def test_bench_times_the_trajectories_run_makes(self, mini_run, tmp_path,
                                                    monkeypatch):
        import tokmri.experiment as exp

        out, cfg_path = _artifact_copy(mini_run, tmp_path)
        cfg = ExperimentConfig.load(cfg_path)
        calls = []

        def record(img, settings, *args):
            calls.append((settings, img.tobytes()))
            return run_acquisition(img, settings, *args)

        monkeypatch.setattr(exp, "run_acquisition", record)
        cmd_run(cfg)
        run_calls = calls[:]
        del calls[:]
        cmd_bench(cfg)
        for policy in ("les", "geo"):
            ran = [c for c in run_calls if c[0].policy == policy]
            timed = [c for c in calls if c[0].policy == policy]
            # 2 steps per trajectory: 3 trajectories reach min_steps 6
            assert len(timed) == 3
            assert timed == ran[:3]

    @pytest.mark.parametrize("corrupt, named", [
        pytest.param(lambda m, d: m["tensors"].pop("pos"),
                     ["manifest.json", "'pos'"], id="tensor-missing"),
        pytest.param(lambda m, d: m["tensors"].update(
                         extra={"file": "pos.bin", "shape": [16, 32]}),
                     ["manifest.json", "'extra'"], id="tensor-extra"),
        pytest.param(lambda m, d: m["tensors"]["head_re.b"].update(shape=[8]),
                     ["manifest.json", "'head_re.b'"], id="shape-differs"),
        pytest.param(lambda m, d: m["tensors"]["input.w"].pop("file"),
                     ["manifest.json", "'input.w'"], id="no-file-name"),
        pytest.param(lambda m, d: m.pop("tensors"),
                     ["manifest.json", "'tensors'"], id="key-missing"),
        pytest.param(lambda m, d: m.pop("config"),
                     ["manifest.json", "'config'"], id="config-missing"),
        pytest.param(lambda m, d: m["config"].update(layers="1"),
                     ["manifest.json", "'config'"], id="config-not-int"),
        pytest.param(lambda m, d: m["config"].update(depth=2),
                     ["manifest.json", "'config'"], id="config-unknown-key"),
        pytest.param(lambda m, d: m["config"].update(heads=0),
                     ["manifest.json", "'config'"], id="config-heads-zero"),
        pytest.param(lambda m, d: m["config"].update(layers=10**9),
                     ["manifest.json", "1000000000 layers"], id="config-huge"),
        pytest.param(lambda m, d: m.update(seq_len="16"),
                     ["manifest.json", "'seq_len'"], id="geometry-not-int"),
        pytest.param(lambda m, d: m.update(tensors=[]),
                     ["manifest.json", "'tensors'"], id="tensors-not-object"),
        pytest.param(lambda m, d: _truncate_blob(d / "pos.bin"),
                     ["pos.bin", "'pos'"], id="blob-truncated"),
        pytest.param(lambda m, d: _poison_blob(d / "layer0.ffn.w1.bin", np.nan),
                     ["layer0.ffn.w1.bin", "'layer0.ffn.w1'"], id="blob-nan"),
        pytest.param(lambda m, d: _poison_blob(d / "head_im.w.bin", -np.inf),
                     ["head_im.w.bin", "'head_im.w'"], id="blob-inf"),
        pytest.param(lambda m, d: m["tensors"]["input.w"].update(
                         file="missing.bin"),
                     ["manifest.json", "'input.w'", "missing.bin"],
                     id="file-missing"),
        pytest.param(lambda m, d: m["tensors"]["head_re.w"].update(
                         file=f"../{d.name}/head_re.w.bin"),
                     ["manifest.json", "'head_re.w'"], id="file-outside"),
        pytest.param(lambda m, d: m["tensors"]["head_im.w"].update(
                         file=str(d / "head_im.w.bin")),
                     ["manifest.json", "'head_im.w'"], id="file-absolute"),
    ])
    def test_corrupt_model_exit_one(self, mini_run, tmp_path, capsys, corrupt,
                                    named):
        out, cfg_path = _artifact_copy(mini_run, tmp_path)
        model_dir = out / "artifacts" / "model"
        manifest_path = model_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        corrupt(manifest, model_dir)
        manifest_path.write_text(json.dumps(manifest))
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        assert "Traceback" not in err
        assert not (out / "results").exists()

    def test_non_ascii_tokenizer_field_exit_one(self, mini_run, tmp_path,
                                                capsys):
        out, cfg_path = _artifact_copy(mini_run, tmp_path)
        path = out / "artifacts" / "tokenizer.json"
        doc = json.loads(path.read_text())
        doc["enc_b"] = "\u00e9" + doc["enc_b"]
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "'enc_b'" in err, err
        assert "Traceback" not in err
        assert not (out / "results").exists()

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "expected a JSON object"),
        ("{not json", "not a JSON document"),
    ])
    def test_model_manifest_not_an_object_exit_one(self, mini_run, tmp_path,
                                                   capsys, text, named):
        out, cfg_path = _artifact_copy(mini_run, tmp_path)
        manifest_path = out / "artifacts" / "model" / "manifest.json"
        manifest_path.write_text(text)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert str(manifest_path) in err and named in err
        assert not (out / "results").exists()

    @pytest.fixture
    def no_training(self, monkeypatch):
        """Fail the test if train starts a training epoch."""
        import tokmri.experiment as exp

        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(exp, "train_model", refuse)

    @pytest.mark.parametrize("corrupt, named", [
        pytest.param(lambda meta, opt: meta.pop("rng_state"),
                     ["meta.json", "'rng_state'"], id="no-rng-state"),
        pytest.param(lambda meta, opt: meta["rng_state"].update(
                         bit_generator="MT19937"),
                     ["meta.json", "'rng_state'"], id="rng-state-not-pcg64"),
        pytest.param(lambda meta, opt: meta.update(adam_t="3"),
                     ["meta.json", "'adam_t'"], id="adam-t-string"),
        pytest.param(lambda meta, opt: meta["trace"].append([0, 1]),
                     ["meta.json", "'trace'"], id="trace-short-row"),
        pytest.param(lambda meta, opt: opt.write_text("not an archive"),
                     ["optimizer.npz"], id="npz-not-npz"),
        pytest.param(lambda meta, opt: _edit_npz(opt, lambda a: a.pop("m.pos")),
                     ["optimizer.npz", "m.pos"], id="moment-missing"),
        pytest.param(lambda meta, opt: _edit_npz(
                         opt, lambda a: a.update({"v.pos": a["v.pos"][:1]})),
                     ["optimizer.npz", "'v.pos'"], id="moment-mis-shaped"),
        pytest.param(lambda meta, opt: _edit_npz(
                         opt, lambda a: a["m.input.b"].fill(np.nan)),
                     ["optimizer.npz", "'m.input.b'"], id="moment-nan"),
    ])
    def test_corrupt_resume_checkpoint_exit_one(self, mini_run, tmp_path,
                                                capsys, no_training, corrupt,
                                                named):
        out, cfg_path = _artifact_copy(mini_run, tmp_path)
        ckpt = out / "artifacts" / "checkpoint"
        meta_path = ckpt / "meta.json"
        meta = json.loads(meta_path.read_text())
        corrupt(meta, ckpt / "optimizer.npz")
        meta_path.write_text(json.dumps(meta))
        cfg = ExperimentConfig.load(cfg_path)
        cfg.train.resume_from = str(ckpt)
        cfg_path.write_text(cfg.to_yaml())
        assert main(["train", "--config", str(cfg_path)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert all(name in lines[0] for name in named), lines

    @pytest.mark.parametrize("section, key, value, named", [
        pytest.param("tokenizer", "K", 12, "codebook_size is 16, expected 12",
                     id="tokenizer-K"),
        pytest.param("tokenizer", "D", 4, "latent_dim is 8, expected 4",
                     id="tokenizer-D"),
        pytest.param("data", "size", 64, "seq_len is 16, expected 64",
                     id="data-size"),
    ])
    def test_resume_checkpoint_misfit_exit_one(self, mini_run, tmp_path,
                                               capsys, no_training, section,
                                               key, value, named):
        out, cfg_path = _artifact_copy(mini_run, tmp_path)
        cfg = ExperimentConfig.load(cfg_path)
        setattr(getattr(cfg, section), key, value)
        cfg.train.resume_from = str(out / "artifacts" / "checkpoint")
        cfg_path.write_text(cfg.to_yaml())
        assert main(["train", "--config", str(cfg_path)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and named in lines[0], lines
        assert str(out / "artifacts" / "checkpoint" / "model") in lines[0]

    @pytest.mark.parametrize("key, value", [
        ("codebook_size", 999), ("latent_dim", 999), ("seq_len", 999)])
    def test_artifact_geometry_mismatch_exit_one(self, mini_run, tmp_path,
                                                 capsys, key, value):
        out, cfg_path = _artifact_copy(mini_run, tmp_path)
        manifest_path = out / "artifacts" / "model" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{key} is {value}" in err
        assert "manifest.json" in err and "tokenizer.json" in err
        assert not (out / "results").exists()

    def test_run_zero_steps_loads(self, tmp_path):
        from tokmri.cli import build_parser, load_config

        cfg_path = tmp_path / "cfg.yaml"
        cfg = mini_config(str(tmp_path / "o"))
        cfg_path.write_text(cfg.to_yaml())
        for command in ("run", "bench"):
            args = build_parser().parse_args(
                [command, "--config", str(cfg_path), "--steps", "0"])
            assert load_config(args).acquisition.T == 0

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg = mini_config(str(tmp_path / "o"))
        cfg_path.write_text(cfg.to_yaml())
        from tokmri.cli import build_parser, load_config

        args = build_parser().parse_args(
            ["run", "--config", str(cfg_path), "--policy", "les",
             "--accel", "8", "--accel", "4", "--steps", "3", "--seed", "7",
             "--out", str(tmp_path / "other")]
        )
        merged = load_config(args)
        assert merged.acquisition.policies == ["les"]
        assert merged.acquisition.accelerations == [8, 4]
        assert merged.acquisition.T == 3
        assert merged.acquisition.seeds == [7]
        assert merged.out_dir == str(tmp_path / "other")
