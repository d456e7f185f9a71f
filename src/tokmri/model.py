"""Latent transformer: fuses the two token streams of a (2, L, D) stack and
predicts, for every latent position, the logits of a categorical
distribution over codebook indices for the real and the imaginary stream.

The trunk is a small pre-norm transformer with full bidirectional
self-attention (the task is token in-painting from a corrupted full
sequence, not autoregression) and learned positional embeddings.  Two
linear heads, one per stream, share the trunk.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import (
    ConfigError,
    InvalidInputError,
    NotTrainedError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from .fourier import (
    NoiseSpec,
    SamplingMask,
    acquire,
    make_center_mask,
    sampling_budget,
    zero_fill,
)
from .storage import (
    atomic_write_bytes,
    decode_floats,
    encode_f64,
    is_int,
    read_json,
    write_json,
)
from .tokenizer import (
    ChannelStats,
    Codebook,
    LatentGrid,
    Tokenizer,
    channel_stats,
    denormalize_channel,
    normalize_channel,
    split_channels,
)

STREAMS = ("re", "im")  # the order of the (2, ...) stream axis


@dataclass(frozen=True)
class TransformerConfig:
    layers: int = 2
    heads: int = 4
    embed_dim: int = 64
    ffn_dim: int = 128

    def __post_init__(self):
        for key, least in (("layers", 0), ("heads", 1), ("embed_dim", 1),
                           ("ffn_dim", 1)):
            if getattr(self, key) < least:
                raise ConfigError(
                    f"{key} must be >= {least}, got {getattr(self, key)}")
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )


def predicted_tokens(logits: np.ndarray, cb: Codebook,
                     grid_h: int, grid_w: int) -> LatentGrid:
    """Most probable index per position of (..., L, K) logits -> codebook
    rows.

    The argmax reads the softmax, not the logits: distinct logits can round
    to equal probabilities, and then the lowest index wins.
    """
    if logits.shape[-1] != cb.K:
        raise ShapeMismatchError(
            f"prediction K={logits.shape[-1]} != codebook K={cb.K}"
        )
    indices = np.argmax(ad.softmax(logits), axis=-1)
    return LatentGrid(cb.entries[indices], grid_h, grid_w)


def reconstruct(tokenizer: Tokenizer, q: LatentGrid,
                stats: ChannelStats) -> np.ndarray:
    """Decode the (2, L, D) stream stack and recombine it into a complex
    image.

    Undoes the per-image channel normalization that was applied before
    encoding.
    """
    re, im = denormalize_channel(tokenizer.decode(q), stats)
    return re + 1j * im


@dataclass(frozen=True)
class TokenizedImage:
    """Both channels of one complex image pushed through the tokenizer:
    the snapped (2, L, D) latents, their (2, L) indices and the channels'
    statistics."""

    q: LatentGrid
    idx: np.ndarray
    stats: ChannelStats


def tokenize_image(tokenizer: Tokenizer, img: np.ndarray) -> TokenizedImage:
    """Normalize, encode and quantize the re/im channels of an image."""
    channels = split_channels(img)
    stats = channel_stats(channels)
    idx, q = tokenizer.quantize(tokenizer.encode(
        normalize_channel(channels, stats)))
    return TokenizedImage(q, idx, stats)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def param_spec(cfg: TransformerConfig, latent_dim: int, seq_len: int,
               codebook_size: int) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every parameter's shape and initial fill ("ones", "zeros", "normal"),
    in the order `init_params` draws them."""
    E, F = cfg.embed_dim, cfg.ffn_dim
    spec: dict[str, tuple[tuple[int, ...], str]] = {
        "fuse.gamma": ((latent_dim,), "ones"),
        "fuse.beta": ((latent_dim,), "zeros"),
        "input.w": ((latent_dim, E), "normal"),
        "input.b": ((E,), "zeros"),
        "pos": ((seq_len, E), "normal"),
        "final.gamma": ((E,), "ones"),
        "final.beta": ((E,), "zeros"),
    }
    for stream in STREAMS:
        spec[f"head_{stream}.w"] = ((E, codebook_size), "zeros")
        spec[f"head_{stream}.b"] = ((codebook_size,), "zeros")
    for i in range(cfg.layers):
        pre = f"layer{i}."
        spec[pre + "ln1.gamma"] = ((E,), "ones")
        spec[pre + "ln1.beta"] = ((E,), "zeros")
        for m in "qkvo":
            spec[pre + f"attn.w{m}"] = ((E, E), "normal")
            spec[pre + f"attn.b{m}"] = ((E,), "zeros")
        spec[pre + "ln2.gamma"] = ((E,), "ones")
        spec[pre + "ln2.beta"] = ((E,), "zeros")
        spec[pre + "ffn.w1"] = ((E, F), "normal")
        spec[pre + "ffn.b1"] = ((F,), "zeros")
        spec[pre + "ffn.w2"] = ((F, E), "normal")
        spec[pre + "ffn.b2"] = ((E,), "zeros")
    return spec


def init_params(cfg: TransformerConfig, latent_dim: int, seq_len: int,
                codebook_size: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Fresh parameter set.

    Output heads start at zero so the initial distributions are exactly
    uniform; layer norms start at identity.
    """
    rng = np.random.default_rng(seed)
    fill = {"ones": np.ones, "zeros": np.zeros,
            "normal": lambda shape: rng.normal(scale=0.02, size=shape)}
    return {name: fill[kind](shape) for name, (shape, kind)
            in param_spec(cfg, latent_dim, seq_len, codebook_size).items()}


def build_forward(tape: Tape, pids: dict[str, int], cfg: TransformerConfig,
                  q_id: int) -> tuple[int, ...]:
    """Record the full trunk on the (..., 2, L, D) stream stack `q_id`;
    returns the ids of the (..., L, K) logits of each stream, in `STREAMS`
    order.

    `pids` maps parameter names to tape source ids, so the same builder
    serves parameter gradients (training) and input gradients (line
    scoring).
    """
    summed = ad.t_stream_sum(tape, q_id)
    fused = ad.t_layer_norm(tape, summed, pids["fuse.gamma"],
                            pids["fuse.beta"], name="fuse")
    x = ad.t_affine(tape, fused, pids["input.w"], pids["input.b"],
                    name="input_proj")
    x = ad.t_add(tape, x, pids["pos"], name="pos_add")
    for i in range(cfg.layers):
        pre = f"layer{i}."
        y = ad.t_layer_norm(tape, x, pids[pre + "ln1.gamma"],
                            pids[pre + "ln1.beta"], name=pre + "ln1")
        a = ad.t_attention(
            tape, y,
            pids[pre + "attn.wq"], pids[pre + "attn.bq"],
            pids[pre + "attn.wk"], pids[pre + "attn.bk"],
            pids[pre + "attn.wv"], pids[pre + "attn.bv"],
            pids[pre + "attn.wo"], pids[pre + "attn.bo"],
            heads=cfg.heads, name=pre + "attn",
        )
        x = ad.t_add(tape, x, a, name=pre + "res1")
        z = ad.t_layer_norm(tape, x, pids[pre + "ln2.gamma"],
                            pids[pre + "ln2.beta"], name=pre + "ln2")
        f = ad.t_ffn(tape, z, pids[pre + "ffn.w1"], pids[pre + "ffn.b1"],
                     pids[pre + "ffn.w2"], pids[pre + "ffn.b2"],
                     name=pre + "ffn")
        x = ad.t_add(tape, x, f, name=pre + "res2")
    xf = ad.t_layer_norm(tape, x, pids["final.gamma"], pids["final.beta"],
                         name="final_ln")
    return tuple(ad.t_affine(tape, xf, pids[f"head_{s}.w"], pids[f"head_{s}.b"],
                             name=f"head_{s}") for s in STREAMS)


class LatentTransformer:
    """Trained (or freshly initialized) transformer with its geometry."""

    def __init__(self, cfg: TransformerConfig, params: dict[str, np.ndarray],
                 latent_dim: int, seq_len: int, codebook_size: int):
        self.cfg = cfg
        self.params = params
        self.latent_dim = latent_dim
        self.seq_len = seq_len
        self.codebook_size = codebook_size

    @classmethod
    def init(cls, cfg: TransformerConfig, latent_dim: int, seq_len: int,
             codebook_size: int, seed: int = 0) -> "LatentTransformer":
        params = init_params(cfg, latent_dim, seq_len, codebook_size, seed)
        return cls(cfg, params, latent_dim, seq_len, codebook_size)

    def source_params(self, tape: Tape) -> dict[str, int]:
        return {name: tape.source(val, name) for name, val in self.params.items()}

    def predict(self, q: LatentGrid) -> np.ndarray:
        """(2, L, K) logits of the real and the imaginary stream of the
        (2, L, D) stream stack `q`; deterministic given weights and inputs.

        Runs `build_forward` on a non-recording tape: only the logits are
        needed, so no backward cache is kept.
        """
        expect = (len(STREAMS), self.seq_len, self.latent_dim)
        if q.vectors.shape != expect:
            raise ShapeMismatchError(
                f"model expects streams of shape {expect}; "
                f"got {q.vectors.shape}")
        tape = Tape(record=False)
        pids = self.source_params(tape)
        heads = build_forward(tape, pids, self.cfg, tape.source(q.vectors, "q"))
        return np.stack([tape.val(h) for h in heads])

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "config": asdict(self.cfg),
            "latent_dim": self.latent_dim,
            "seq_len": self.seq_len,
            "codebook_size": self.codebook_size,
            "tensors": {},
        }
        for name in sorted(self.params):
            fname = name.replace("/", "_") + ".bin"
            arr = self.params[name]
            atomic_write_bytes(directory / fname, encode_f64(arr))
            manifest["tensors"][name] = {"file": fname, "shape": list(arr.shape)}
        write_json(directory / "manifest.json", manifest)

    @classmethod
    def load(cls, directory: str | Path,
             manifest: dict | None = None) -> "LatentTransformer":
        """Read a directory written by `save`.  `manifest` is the directory's
        `read_model_manifest`, read here when not given.

        A tensor that is missing from or extra to `param_spec`, a shape that
        differs from it, a "file" that is not the plain name of a file in
        the directory, a blob of the wrong byte length and NaN or Inf values
        raise InvalidInputError naming the file and the tensor.
        """
        directory = Path(directory)
        if manifest is None:
            manifest = read_model_manifest(directory)
        path = directory / "manifest.json"
        geometry = (manifest["latent_dim"], manifest["seq_len"],
                    manifest["codebook_size"])
        spec = param_spec(manifest["config"], *geometry)
        tensors = manifest["tensors"]
        for name in spec:
            if name not in tensors:
                raise InvalidInputError(f"{path}: tensor {name!r} is missing")
        for name in tensors:
            if name not in spec:
                raise InvalidInputError(f"{path}: unexpected tensor {name!r}")
        params = {}
        for name, meta in tensors.items():
            shape = spec[name][0]
            if not (isinstance(meta, dict) and isinstance(meta.get("file"), str)):
                raise InvalidInputError(f"{path}: tensor {name!r} names no file")
            if meta.get("shape") != list(shape):
                raise InvalidInputError(f"{path}: tensor {name!r} has shape "
                                        f"{meta.get('shape')!r}, expected "
                                        f"{list(shape)}")
            fname = meta["file"]
            blob = directory / fname
            if Path(fname).name != fname or not blob.is_file():
                raise InvalidInputError(f"{path}: tensor {name!r} names "
                                        f"{fname!r}, not a file in {directory}")
            params[name] = decode_floats(blob.read_bytes(), shape,
                                         f"{blob}: tensor {name!r}")
        return cls(manifest["config"], params, *geometry)


def read_model_manifest(directory: str | Path) -> dict:
    """The `manifest.json` of a model directory, checked: a JSON object with
    every key `save` writes, integer geometry >= 1, a "config" that
    `TransformerConfig` accepts (returned built) and a "tensors" object.
    A problem raises InvalidInputError naming the file and the key.
    """
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise NotTrainedError(f"missing model manifest: {path}")
    manifest = read_json(path)
    for key in ("config", "latent_dim", "seq_len", "codebook_size", "tensors"):
        if key not in manifest:
            raise InvalidInputError(f"{path}: key {key!r} is missing")
    for key in ("latent_dim", "seq_len", "codebook_size"):
        if not is_int(manifest[key]) or manifest[key] < 1:
            raise InvalidInputError(f"{path}: key {key!r} must be an integer "
                                    f">= 1, got {manifest[key]!r}")
    config = manifest["config"]
    if not (isinstance(config, dict)
            and all(is_int(v) and v >= 0 for v in config.values())):
        raise InvalidInputError(f"{path}: key 'config' must map settings to "
                                f"integers >= 0, got {config!r}")
    try:
        cfg = TransformerConfig(**config)
    except (TypeError, ConfigError) as exc:
        raise InvalidInputError(f"{path}: key 'config': {exc}") from None
    tensors = manifest["tensors"]
    if not isinstance(tensors, dict):
        raise InvalidInputError(f"{path}: key 'tensors' must be a JSON object")
    # every layer has tensors; checked before `param_spec` loops over layers
    if cfg.layers > len(tensors):
        raise InvalidInputError(f"{path}: key 'config' gives {cfg.layers} "
                                f"layers, more than the {len(tensors)} tensors")
    return {**manifest, "config": cfg}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class RandomMaskSampler:
    """Cartesian masks with the center block plus a random non-center set.

    The acceleration is drawn log-uniformly from [accel_lo, accel_hi] for
    each sample: the range covers every corruption level a trajectory
    visits (center-only up to near-full), while keeping enough lightly
    corrupted examples for the model to learn input conditioning rather
    than collapsing to the marginal token distribution.
    """

    rho_c: float = 0.04
    accel_lo: float = 1.2
    accel_hi: float = 24.0

    def __post_init__(self):
        lo, hi = self.accel_lo, self.accel_hi
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
            raise ConfigError(
                f"accel_lo and accel_hi must be finite with "
                f"0 < accel_lo <= accel_hi, got {lo} and {hi}"
            )

    def __call__(self, rng: np.random.Generator, num_lines: int) -> SamplingMask:
        R = float(np.exp(rng.uniform(np.log(self.accel_lo),
                                     np.log(self.accel_hi))))
        budget = sampling_budget(num_lines, R, self.rho_c)
        mask = make_center_mask(num_lines, self.rho_c)
        free = mask.free_indices()
        take = min(budget, free.size)
        if take > 0:
            chosen = rng.choice(free, size=take, replace=False)
            mask = mask.with_lines(chosen)
        return mask


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


@dataclass
class TrainState:
    """Everything needed to continue training deterministically."""

    model: LatentTransformer
    adam: AdamState
    epoch: int
    trace: list = field(default_factory=list)  # (epoch, step, mean token CE)
    rng_state: dict | None = None


def _adam_step(params, grads, state: AdamState, lr, beta1=0.9, beta2=0.999,
               eps=1e-8):
    """One Adam update of `params`, `state.m` and `state.v`, in place.

    Each in-place operation is the one the textbook formula
    p - lr * mhat / (sqrt(vhat) + eps) evaluates, in the same order, so the
    result has the same bits.
    """
    state.t += 1
    t = state.t
    for name, g in grads.items():
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        step = m / (1 - beta1**t)
        step *= lr
        vhat = v / (1 - beta2**t)
        np.sqrt(vhat, out=vhat)
        vhat += eps
        step /= vhat
        params[name] -= step


def batch_loss_and_grads(model: LatentTransformer, q: np.ndarray,
                         idx: np.ndarray
                         ) -> tuple[float, dict[str, np.ndarray]]:
    """Summed stream cross-entropies and parameter gradients.

    Inputs may be a single example's stream stack (2, L, D) and indices
    (2, L), or a batch of them (B, 2, L, D)/(B, 2, L); each stream's loss
    is its per-token mean either way.
    """
    tape = Tape()
    pids = model.source_params(tape)
    heads = build_forward(tape, pids, model.cfg, tape.source(q, "q"))
    idx = np.asarray(idx)
    ce = [ad.t_cross_entropy(tape, logits, idx[..., k, :], name=f"ce_{s}")
          for k, (s, logits) in enumerate(zip(STREAMS, heads))]
    loss_id = ad.t_add(tape, *ce, name="loss")
    loss = float(tape.val(loss_id))
    grads = tape.backward(loss_id, seed=np.float64(1.0),
                          wrt=tuple(pids.values()))
    return loss, {name: grads[pid] for name, pid in pids.items()}


def train_model(
    dataset,
    tokenizer: Tokenizer,
    cfg: TransformerConfig,
    mask_sampler=None,
    epochs: int = 30,
    batch_size: int = 8,
    lr: float = 1e-3,
    seed: int = 0,
    noise: NoiseSpec = NoiseSpec(),
    resume: TrainState | None = None,
    on_epoch_end=None,
) -> TrainState:
    """Offline training against randomly undersampled acquisitions.

    Every example in every epoch draws a fresh random mask (and, when
    `noise.sigma > 0`, a fresh noise field) from the training generator,
    acquires, zero-fills, tokenizes both channels, and minimizes the summed
    token cross-entropy of both streams against the fully sampled image's
    token indices.  The tokenizer stays frozen.
    A `resume` state is continued in place and returned.
    """
    if not dataset:
        raise ConfigError("training dataset is empty")
    if mask_sampler is None:
        mask_sampler = RandomMaskSampler()
    images = [np.asarray(img, dtype=np.complex128) for img in dataset]
    num_lines = images[0].shape[0]

    # fully-sampled token targets are fixed; compute once
    targets = [tokenize_image(tokenizer, img) for img in images]
    seq_len = targets[0].q.L

    state = resume
    if state is None:
        model = LatentTransformer.init(
            cfg, tokenizer.D, seq_len, tokenizer.codebook.K, seed=seed
        )
        state = TrainState(model=model, epoch=0, adam=AdamState(
            m={k: np.zeros_like(v) for k, v in model.params.items()},
            v={k: np.zeros_like(v) for k, v in model.params.items()},
        ))
    model, adam = state.model, state.adam
    rng = np.random.default_rng(seed)
    if state.rng_state is not None:
        rng.bit_generator.state = state.rng_state

    for epoch in range(state.epoch, epochs):
        order = rng.permutation(len(images))
        step = 0
        for lo in range(0, len(order), batch_size):
            batch = order[lo : lo + batch_size]
            qs, idxs = [], []
            for i in batch:
                img = images[int(i)]
                mask = mask_sampler(rng, num_lines)
                eta = noise.draw(img.shape, rng)
                zf = tokenize_image(
                    tokenizer, zero_fill(acquire(img, mask, noise_field=eta))
                )
                qs.append(zf.q.vectors)
                idxs.append(targets[int(i)].idx)
            loss, pgrads = batch_loss_and_grads(model, np.stack(qs),
                                                np.stack(idxs))
            mean_token_ce = loss / 2.0
            if not np.isfinite(mean_token_ce):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}, step {step}",
                    checkpoint=state,
                )
            _adam_step(model.params, pgrads, adam, lr)
            state.trace.append((epoch, step, mean_token_ce))
            step += 1
        state.epoch = epoch + 1
        state.rng_state = rng.bit_generator.state
        if on_epoch_end is not None:
            on_epoch_end(state)
    return state
