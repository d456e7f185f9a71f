import os

# Small-matrix float64 work here is faster single-threaded; values are
# identical either way.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from tokmri.config import ExperimentConfig
from tokmri.experiment import cmd_gen_data, cmd_run, cmd_train, load_artifacts, load_split
from tokmri.model import LatentTransformer, TransformerConfig
from tokmri.tokenizer import Codebook, Tokenizer


@pytest.fixture(scope="session")
def toy_setup():
    """Deterministic random-weight tokenizer + 1-layer model on 16x16 images.

    Small enough for exhaustive and finite-difference oracles; no training.
    """
    rng = np.random.default_rng(42)
    p, D, K = 8, 8, 8
    tok = Tokenizer(
        p=p,
        enc_w=rng.normal(size=(D, p * p)) * 0.3,
        enc_b=rng.normal(size=D) * 0.1,
        dec_w=rng.normal(size=(p * p, D)) * 0.3,
        dec_b=rng.normal(size=p * p) * 0.1,
        codebook=Codebook(rng.normal(size=(K, D))),
    )
    cfg = TransformerConfig(layers=1, heads=2, embed_dim=16, ffn_dim=32)
    model = LatentTransformer.init(cfg, latent_dim=D, seq_len=4,
                                   codebook_size=K, seed=7)
    # non-zero heads so the entropy depends on the input
    model.params["head_re.w"] = rng.normal(size=model.params["head_re.w"].shape) * 0.5
    model.params["head_im.w"] = rng.normal(size=model.params["head_im.w"].shape) * 0.5
    return tok, model


def _acceptance_config(tmp: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.out_dir = tmp
    cfg.data.n_train = 600
    cfg.data.n_val = 8
    cfg.data.n_test = 50
    cfg.train.epochs = 60
    cfg.train.lr = 1.5e-3
    cfg.acquisition.accelerations = [4, 8]
    cfg.acquisition.T = 4
    cfg.acquisition.seeds = [0, 1, 2]
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def trained_setup(tmp_path_factory):
    """Full desk-scale artifacts: generated data, trained tokenizer + model.

    Built once per session through the same command functions the CLI uses.
    The spec's 200-image/30-epoch defaults underfit at this scale, so the
    acceptance experiments train on 600 phantoms for 60 epochs.
    """
    out = tmp_path_factory.mktemp("trained")
    cfg = _acceptance_config(str(out))
    cmd_gen_data(cfg)
    cmd_train(cfg)
    tokenizer, model = load_artifacts(cfg)
    test_images = load_split(cfg, "test")
    return {
        "cfg": cfg,
        "tokenizer": tokenizer,
        "model": model,
        "test_images": test_images,
    }


@pytest.fixture(scope="session")
def run_results(trained_setup):
    """One full cmd_run over the default policy/acceleration grid."""
    return cmd_run(trained_setup["cfg"])
