"""Toy encoder-decoder transformer with bottleneck adapters.

A pre-norm transformer whose backbone (embeddings, attention, FFN) is
typically frozen; adapter modules sit after the self-attention and FFN
blocks of every encoder layer and after the self-attention, cross-attention,
and FFN blocks of every decoder layer. Layer-norm parameters stay trainable
alongside the adapters. The output projection is tied to the token
embedding.

Forward and backward passes are written directly in numpy; gradients are
exact, which lets tests pin them against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .errors import ConfigurationError, NumericError
from .params import NamedParamSet, ParamTensor, load_param_set, save_param_set

ADAPTER_LEAVES = ("down.weight", "down.bias", "up.weight", "up.bias")
PRUNING_STRATEGIES = ("all", "input_end", "middle", "output_end")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 0  # bound to the corpus vocabulary at run time
    model_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 512
    enc_layers: int = 3
    dec_layers: int = 3
    adapter_bottleneck: int = 4
    max_seq_len: int = 48
    adapter_nonlinearity: str = "relu"
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.model_dim % self.num_heads:
            raise ConfigurationError("model_dim must be divisible by num_heads")
        if self.model_dim % 2:
            raise ConfigurationError("model_dim must be even")
        if self.adapter_bottleneck < 1:
            raise ConfigurationError("adapter_bottleneck must be >= 1")
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ConfigurationError("need at least one encoder and one decoder layer")
        if self.adapter_nonlinearity not in nn.ACTIVATIONS:
            raise ConfigurationError(f"unknown nonlinearity {self.adapter_nonlinearity!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigurationError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


@dataclass(frozen=True)
class AdapterSite:
    side: str  # encoder | decoder
    layer: int
    slot: str  # attn | cross | ffn

    @property
    def prefix(self) -> str:
        stack = "enc" if self.side == "encoder" else "dec"
        return f"{stack}.layer{self.layer}.{self.slot}_adapter"


def adapter_sites(config: ModelConfig) -> tuple[AdapterSite, ...]:
    """Placement rule: 2 adapters per encoder layer, 3 per decoder layer."""
    sites = []
    for i in range(config.enc_layers):
        sites.append(AdapterSite("encoder", i, "attn"))
        sites.append(AdapterSite("encoder", i, "ffn"))
    for i in range(config.dec_layers):
        sites.append(AdapterSite("decoder", i, "attn"))
        sites.append(AdapterSite("decoder", i, "cross"))
        sites.append(AdapterSite("decoder", i, "ffn"))
    return tuple(sites)


@dataclass(frozen=True)
class Batch:
    """One padded batch. Gold targets are the decoder inputs shifted by one;
    pad positions are excluded from the loss via tgt_mask."""

    src: np.ndarray        # [B, S] int token ids
    src_mask: np.ndarray   # [B, S] bool, True at real tokens
    tgt_in: np.ndarray     # [B, T] decoder input (BOS + sentence)
    tgt_gold: np.ndarray   # [B, T] gold output (sentence + EOS)
    tgt_mask: np.ndarray   # [B, T] bool
    lengths: np.ndarray    # [B] gold token counts

    @property
    def size(self) -> int:
        return int(self.src.shape[0])

    @property
    def token_count(self) -> int:
        return int(self.tgt_mask.sum())


def merge_batches(batches: list[Batch]) -> Batch:
    """Concatenate batches, re-padding to the widest sequence."""
    if len(batches) == 1:
        return batches[0]
    s = max(b.src.shape[1] for b in batches)
    t = max(b.tgt_in.shape[1] for b in batches)

    def pad(a: np.ndarray, width: int, value=0) -> np.ndarray:
        return np.pad(a, ((0, 0), (0, width - a.shape[1])), constant_values=value)

    return Batch(
        src=np.concatenate([pad(b.src, s) for b in batches]),
        src_mask=np.concatenate([pad(b.src_mask, s, False) for b in batches]),
        tgt_in=np.concatenate([pad(b.tgt_in, t) for b in batches]),
        tgt_gold=np.concatenate([pad(b.tgt_gold, t) for b in batches]),
        tgt_mask=np.concatenate([pad(b.tgt_mask, t, False) for b in batches]),
        lengths=np.concatenate([b.lengths for b in batches]),
    )


@dataclass
class ToyModel:
    config: ModelConfig
    params: NamedParamSet
    adapter_mask: dict[str, bool] = field(default_factory=dict)  # site prefix -> active

    @property
    def has_adapters(self) -> bool:
        return bool(self.adapter_mask)

    def active_sites(self) -> list[AdapterSite]:
        return [s for s in adapter_sites(self.config) if self.adapter_mask.get(s.prefix, False)]

    def with_params(self, params: NamedParamSet) -> "ToyModel":
        return ToyModel(self.config, params, dict(self.adapter_mask))

    def trainable_names(self) -> list[str]:
        return [t.name for t in self.params if t.trainable]


# ---------------------------------------------------------------------------
# construction


def _backbone_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str, str]]:
    """(name, shape, side, kind) for every backbone tensor. kind in
    {embedding, weight, bias, ln_weight, ln_bias}."""
    d, f = config.model_dim, config.ffn_dim
    out: list[tuple[str, tuple[int, ...], str, str]] = []
    out.append(("emb.token.weight", (config.vocab_size, d), "shared", "embedding"))
    for i in range(config.enc_layers):
        p = f"enc.layer{i}"
        for proj in ("q", "k", "v", "out"):
            out.append((f"{p}.self_attn.{proj}.weight", (d, d), "encoder", "weight"))
            out.append((f"{p}.self_attn.{proj}.bias", (d,), "encoder", "bias"))
        for ln in ("ln1", "ln2"):
            out.append((f"{p}.{ln}.weight", (d,), "encoder", "ln_weight"))
            out.append((f"{p}.{ln}.bias", (d,), "encoder", "ln_bias"))
        out.append((f"{p}.ffn.fc1.weight", (d, f), "encoder", "weight"))
        out.append((f"{p}.ffn.fc1.bias", (f,), "encoder", "bias"))
        out.append((f"{p}.ffn.fc2.weight", (f, d), "encoder", "weight"))
        out.append((f"{p}.ffn.fc2.bias", (d,), "encoder", "bias"))
    for i in range(config.dec_layers):
        p = f"dec.layer{i}"
        for attn in ("self_attn", "cross_attn"):
            for proj in ("q", "k", "v", "out"):
                out.append((f"{p}.{attn}.{proj}.weight", (d, d), "decoder", "weight"))
                out.append((f"{p}.{attn}.{proj}.bias", (d,), "decoder", "bias"))
        for ln in ("ln1", "ln2", "ln3"):
            out.append((f"{p}.{ln}.weight", (d,), "decoder", "ln_weight"))
            out.append((f"{p}.{ln}.bias", (d,), "decoder", "ln_bias"))
        out.append((f"{p}.ffn.fc1.weight", (d, f), "decoder", "weight"))
        out.append((f"{p}.ffn.fc1.bias", (f,), "decoder", "bias"))
        out.append((f"{p}.ffn.fc2.weight", (f, d), "decoder", "weight"))
        out.append((f"{p}.ffn.fc2.bias", (d,), "decoder", "bias"))
    out.append(("enc.final_ln.weight", (d,), "encoder", "ln_weight"))
    out.append(("enc.final_ln.bias", (d,), "encoder", "ln_bias"))
    out.append(("dec.final_ln.weight", (d,), "decoder", "ln_weight"))
    out.append(("dec.final_ln.bias", (d,), "decoder", "ln_bias"))
    return out


def _init_backbone_values(config: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    dtype = config.np_dtype
    values: dict[str, np.ndarray] = {}
    for name, shape, _, kind in _backbone_layout(config):
        if kind == "embedding":
            v = rng.normal(0.0, config.model_dim**-0.5, size=shape)
        elif kind == "weight":
            v = rng.normal(0.0, np.sqrt(2.0 / (shape[0] + shape[1])), size=shape)
        elif kind == "bias" or kind == "ln_bias":
            v = np.zeros(shape)
        elif kind == "ln_weight":
            v = np.ones(shape)
        else:  # pragma: no cover
            raise AssertionError(kind)
        values[name] = v.astype(dtype)
    return values


def build_model(
    config: ModelConfig,
    rng_seed: int,
    with_adapters: bool = True,
    freeze_backbone: bool = True,
    backbone: NamedParamSet | None = None,
) -> ToyModel:
    """Construct a model deterministically from a seed.

    The backbone stream is drawn before (and independently of) the adapter
    stream, so the same seed yields an identical backbone with or without
    adapters. Adapter up-projections start at zero, making every adapter an
    identity residual at initialization. When ``backbone`` is given its
    values replace the random backbone (shapes must match).
    """
    backbone_ss, adapter_ss = np.random.SeedSequence(rng_seed).spawn(2)
    values = _init_backbone_values(config, np.random.default_rng(backbone_ss))
    if backbone is not None:
        for name in values:
            if name not in backbone:
                raise ConfigurationError(f"backbone checkpoint is missing tensor {name!r}")
            given = backbone.values(name)
            if given.shape != values[name].shape:
                raise ConfigurationError(
                    f"backbone tensor {name!r} has shape {given.shape}, "
                    f"expected {values[name].shape}"
                )
            values[name] = given.astype(config.np_dtype)

    tensors = []
    for name, _, side, kind in _backbone_layout(config):
        trainable = not freeze_backbone or kind in ("ln_weight", "ln_bias")
        tensors.append(ParamTensor(name, values[name], trainable, side))

    mask: dict[str, bool] = {}
    if with_adapters:
        d, b = config.model_dim, config.adapter_bottleneck
        dtype = config.np_dtype
        rng = np.random.default_rng(adapter_ss)
        for site in adapter_sites(config):
            p = site.prefix
            down_w = rng.normal(0.0, np.sqrt(2.0 / (d + b)), size=(d, b)).astype(dtype)
            tensors.append(ParamTensor(f"{p}.down.weight", down_w, True, site.side))
            tensors.append(ParamTensor(f"{p}.down.bias", np.zeros(b, dtype=dtype), True, site.side))
            tensors.append(ParamTensor(f"{p}.up.weight", np.zeros((b, d), dtype=dtype), True, site.side))
            tensors.append(ParamTensor(f"{p}.up.bias", np.zeros(d, dtype=dtype), True, site.side))
            mask[p] = True
    return ToyModel(config, NamedParamSet(tensors), mask)


# ---------------------------------------------------------------------------
# forward / backward


def _attn_params(p: NamedParamSet, key: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {
        proj: (p.values(f"{key}.{proj}.weight"), p.values(f"{key}.{proj}.bias"))
        for proj in ("q", "k", "v", "out")
    }


def _adapter_params(p: NamedParamSet, key: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {
        "down": (p.values(f"{key}.down.weight"), p.values(f"{key}.down.bias")),
        "up": (p.values(f"{key}.up.weight"), p.values(f"{key}.up.bias")),
    }


def _ffn_fwd(x, p: NamedParamSet, key: str):
    h1, c1 = nn.linear_fwd(x, p.values(f"{key}.fc1.weight"), p.values(f"{key}.fc1.bias"))
    a, ca = nn.gelu_fwd(h1)
    out, c2 = nn.linear_fwd(a, p.values(f"{key}.fc2.weight"), p.values(f"{key}.fc2.bias"))
    return out, (c1, ca, c2)


def _ffn_bwd(dy, cache, key: str, grads, want):
    c1, ca, c2 = cache
    da = nn.linear_bwd(dy, c2, f"{key}.fc2", grads, want)
    dh1 = nn.gelu_bwd(da, ca)
    return nn.linear_bwd(dh1, c1, f"{key}.fc1", grads, want)


def _maybe_adapter_fwd(model: ToyModel, h, prefix: str):
    if model.adapter_mask.get(prefix, False):
        return nn.adapter_fwd(h, _adapter_params(model.params, prefix), model.config.adapter_nonlinearity)
    return h, None


def _maybe_adapter_bwd(dh, cache, prefix: str, grads, want):
    if cache is None:
        return dh
    return nn.adapter_bwd(dh, cache, prefix, grads, want)


def _embed(model: ToyModel, ids: np.ndarray):
    cfg = model.config
    if ids.shape[1] > cfg.max_seq_len:
        raise ConfigurationError(
            f"sequence length {ids.shape[1]} exceeds max_seq_len={cfg.max_seq_len}"
        )
    emb = model.params.values("emb.token.weight")
    scale = np.asarray(np.sqrt(cfg.model_dim), dtype=cfg.np_dtype)
    pos = nn.sinusoidal_positions(cfg.max_seq_len, cfg.model_dim, cfg.np_dtype)
    return emb[ids] * scale + pos[: ids.shape[1]], scale


def encode(model: ToyModel, src: np.ndarray, src_mask: np.ndarray):
    """Encoder stack output plus cache."""
    cfg = model.config
    p = model.params
    src_key_mask = src_mask[:, None, None, :]  # [B,1,1,S]
    x, scale = _embed(model, src)
    enc_caches = []
    for i in range(cfg.enc_layers):
        key = f"enc.layer{i}"
        h1, ln1_c = nn.layer_norm_fwd(x, p.values(f"{key}.ln1.weight"), p.values(f"{key}.ln1.bias"))
        attn_out, attn_c = nn.attention_fwd(
            h1, h1, _attn_params(p, f"{key}.self_attn"), src_key_mask, cfg.num_heads
        )
        x = x + attn_out
        x, ad1_c = _maybe_adapter_fwd(model, x, f"{key}.attn_adapter")
        h2, ln2_c = nn.layer_norm_fwd(x, p.values(f"{key}.ln2.weight"), p.values(f"{key}.ln2.bias"))
        ffn_out, ffn_c = _ffn_fwd(h2, p, f"{key}.ffn")
        x = x + ffn_out
        x, ad2_c = _maybe_adapter_fwd(model, x, f"{key}.ffn_adapter")
        enc_caches.append((ln1_c, attn_c, ad1_c, ln2_c, ffn_c, ad2_c))
    enc_out, enc_fln_c = nn.layer_norm_fwd(
        x, p.values("enc.final_ln.weight"), p.values("enc.final_ln.bias")
    )
    return enc_out, {"layers": enc_caches, "final_ln": enc_fln_c, "scale": scale}


def decode_logits(
    model: ToyModel,
    enc_out: np.ndarray,
    src_mask: np.ndarray,
    tgt_in: np.ndarray,
    tgt_mask: np.ndarray,
):
    """Decoder stack over a (possibly partial) target prefix."""
    cfg = model.config
    p = model.params
    t_len = tgt_in.shape[1]
    src_key_mask = src_mask[:, None, None, :]
    causal = np.tril(np.ones((t_len, t_len), dtype=bool))[None, None]
    tgt_self_mask = causal & tgt_mask[:, None, None, :]

    y, scale = _embed(model, tgt_in)
    dec_caches = []
    for i in range(cfg.dec_layers):
        key = f"dec.layer{i}"
        h1, ln1_c = nn.layer_norm_fwd(y, p.values(f"{key}.ln1.weight"), p.values(f"{key}.ln1.bias"))
        sa_out, sa_c = nn.attention_fwd(
            h1, h1, _attn_params(p, f"{key}.self_attn"), tgt_self_mask, cfg.num_heads
        )
        y = y + sa_out
        y, ad1_c = _maybe_adapter_fwd(model, y, f"{key}.attn_adapter")
        h2, ln2_c = nn.layer_norm_fwd(y, p.values(f"{key}.ln2.weight"), p.values(f"{key}.ln2.bias"))
        ca_out, ca_c = nn.attention_fwd(
            h2, enc_out, _attn_params(p, f"{key}.cross_attn"), src_key_mask, cfg.num_heads
        )
        y = y + ca_out
        y, ad2_c = _maybe_adapter_fwd(model, y, f"{key}.cross_adapter")
        h3, ln3_c = nn.layer_norm_fwd(y, p.values(f"{key}.ln3.weight"), p.values(f"{key}.ln3.bias"))
        ffn_out, ffn_c = _ffn_fwd(h3, p, f"{key}.ffn")
        y = y + ffn_out
        y, ad3_c = _maybe_adapter_fwd(model, y, f"{key}.ffn_adapter")
        dec_caches.append((ln1_c, sa_c, ad1_c, ln2_c, ca_c, ad2_c, ln3_c, ffn_c, ad3_c))
    dec_out, dec_fln_c = nn.layer_norm_fwd(
        y, p.values("dec.final_ln.weight"), p.values("dec.final_ln.bias")
    )
    logits = dec_out @ p.values("emb.token.weight").T
    cache = {"layers": dec_caches, "final_ln": dec_fln_c, "dec_out": dec_out, "scale": scale}
    return logits, cache


def forward(model: ToyModel, batch: Batch):
    """Logits [B, T, V] plus the cache needed for backward."""
    enc_out, enc_cache = encode(model, batch.src, batch.src_mask)
    logits, dec_cache = decode_logits(
        model, enc_out, batch.src_mask, batch.tgt_in, batch.tgt_mask
    )
    cache = {
        "enc": enc_cache["layers"],
        "enc_fln": enc_cache["final_ln"],
        "enc_out": enc_out,
        "dec": dec_cache["layers"],
        "dec_fln": dec_cache["final_ln"],
        "dec_out": dec_cache["dec_out"],
        "scale": enc_cache["scale"],
    }
    return logits, cache


def backward(model: ToyModel, batch: Batch, cache, dlogits: np.ndarray, needed: set[str] | None = None):
    """Gradients of the loss wrt parameters, given d(loss)/d(logits).

    ``needed`` limits which parameter gradients are materialized (None = all);
    activation gradients always propagate fully.
    """
    cfg = model.config
    p = model.params
    emb = p.values("emb.token.weight")
    grads: dict[str, np.ndarray] = {}
    want = (lambda _name: True) if needed is None else (lambda name: name in needed)
    want_emb = want("emb.token.weight")

    dec_out = cache["dec_out"]
    d_emb = None
    if want_emb:
        d_emb = np.einsum("btv,btd->vd", dlogits, dec_out)
    dy = dlogits @ emb

    dy = nn.layer_norm_bwd(dy, cache["dec_fln"], "dec.final_ln", grads, want)
    d_enc_out = np.zeros_like(cache["enc_out"])
    for i in reversed(range(cfg.dec_layers)):
        key = f"dec.layer{i}"
        ln1_c, sa_c, ad1_c, ln2_c, ca_c, ad2_c, ln3_c, ffn_c, ad3_c = cache["dec"][i]
        dy = _maybe_adapter_bwd(dy, ad3_c, f"{key}.ffn_adapter", grads, want)
        dh3 = _ffn_bwd(dy, ffn_c, f"{key}.ffn", grads, want)
        dy = dy + nn.layer_norm_bwd(dh3, ln3_c, f"{key}.ln3", grads, want)
        dy = _maybe_adapter_bwd(dy, ad2_c, f"{key}.cross_adapter", grads, want)
        dh2, denc = nn.attention_bwd(dy, ca_c, f"{key}.cross_attn", grads, want)
        d_enc_out += denc
        dy = dy + nn.layer_norm_bwd(dh2, ln2_c, f"{key}.ln2", grads, want)
        dy = _maybe_adapter_bwd(dy, ad1_c, f"{key}.attn_adapter", grads, want)
        dh1q, dh1kv = nn.attention_bwd(dy, sa_c, f"{key}.self_attn", grads, want)
        dy = dy + nn.layer_norm_bwd(dh1q + dh1kv, ln1_c, f"{key}.ln1", grads, want)
    if want_emb:
        scale = cache["scale"]
        np.add.at(d_emb, batch.tgt_in.reshape(-1), (dy * scale).reshape(-1, cfg.model_dim))

    dx = nn.layer_norm_bwd(d_enc_out, cache["enc_fln"], "enc.final_ln", grads, want)
    for i in reversed(range(cfg.enc_layers)):
        key = f"enc.layer{i}"
        ln1_c, attn_c, ad1_c, ln2_c, ffn_c, ad2_c = cache["enc"][i]
        dx = _maybe_adapter_bwd(dx, ad2_c, f"{key}.ffn_adapter", grads, want)
        dh2 = _ffn_bwd(dx, ffn_c, f"{key}.ffn", grads, want)
        dx = dx + nn.layer_norm_bwd(dh2, ln2_c, f"{key}.ln2", grads, want)
        dx = _maybe_adapter_bwd(dx, ad1_c, f"{key}.attn_adapter", grads, want)
        dh1q, dh1kv = nn.attention_bwd(dx, attn_c, f"{key}.self_attn", grads, want)
        dx = dx + nn.layer_norm_bwd(dh1q + dh1kv, ln1_c, f"{key}.ln1", grads, want)
    if want_emb:
        scale = cache["scale"]
        np.add.at(d_emb, batch.src.reshape(-1), (dx * scale).reshape(-1, cfg.model_dim))
        grads["emb.token.weight"] = d_emb
    return grads


# ---------------------------------------------------------------------------
# loss and gradients


@dataclass(frozen=True)
class LossResult:
    total: float       # summed negative log-likelihood over non-pad positions
    token_mean: float
    token_count: int


def _cross_entropy(logits: np.ndarray, batch: Batch, need_grad: bool = True):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(sums)
    b_idx, t_idx = np.indices(batch.tgt_gold.shape)
    gold_lp = log_probs[b_idx, t_idx, batch.tgt_gold]
    total = -(gold_lp * batch.tgt_mask).sum()
    count = batch.token_count
    if not need_grad:
        return float(total), count, None
    dlogits = exps / sums
    dlogits[b_idx, t_idx, batch.tgt_gold] -= 1.0
    dlogits *= batch.tgt_mask[:, :, None]
    return float(total), count, dlogits


def _check_batch(model: ToyModel, batch: Batch) -> None:
    if batch.size == 0 or batch.token_count == 0:
        raise ValueError("cannot score an empty batch")
    high = max(int(batch.src.max(initial=0)), int(batch.tgt_in.max(initial=0)),
               int(batch.tgt_gold.max(initial=0)))
    if high >= model.config.vocab_size:
        raise ConfigurationError("batch contains token ids outside the vocabulary")


def loss(model: ToyModel, batch: Batch) -> LossResult:
    _check_batch(model, batch)
    logits, _ = forward(model, batch)
    total, count, _ = _cross_entropy(logits, batch, need_grad=False)
    if not np.isfinite(total):
        raise NumericError("non-finite loss")
    return LossResult(total, total / count, count)


def grad(model: ToyModel, batch: Batch, needed: set[str] | None = None):
    """Loss plus analytic gradients of the *summed* loss over trainable tensors."""
    _check_batch(model, batch)
    logits, cache = forward(model, batch)
    total, count, dlogits = _cross_entropy(logits, batch)
    if not np.isfinite(total):
        raise NumericError("non-finite loss")
    if needed is None:
        needed = {t.name for t in model.params if t.trainable}
    grads = backward(model, batch, cache, dlogits, needed)
    grads = {name: g for name, g in grads.items() if name in needed}
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name!r}")
    return LossResult(total, total / count, count), grads


# ---------------------------------------------------------------------------
# greedy decoding


def decode_greedy(model: ToyModel, src: np.ndarray, src_mask: np.ndarray,
                  bos_id: int, eos_id: int, max_len: int) -> list[list[int]]:
    """Greedy decoding; returns token ids per sentence without BOS/EOS.

    The encoder runs once; the decoder recomputes the whole prefix each
    step (no KV cache, fine at toy scale)."""
    bsz = src.shape[0]
    enc_out, _ = encode(model, src, src_mask)
    tgt = np.full((bsz, 1), bos_id, dtype=src.dtype)
    finished = np.zeros(bsz, dtype=bool)
    outputs: list[list[int]] = [[] for _ in range(bsz)]
    for _ in range(max_len):
        logits, _ = decode_logits(
            model, enc_out, src_mask, tgt, np.ones_like(tgt, dtype=bool)
        )
        nxt = logits[:, -1, :].argmax(axis=-1).astype(src.dtype)
        for j in range(bsz):
            if not finished[j]:
                if int(nxt[j]) == eos_id:
                    finished[j] = True
                else:
                    outputs[j].append(int(nxt[j]))
        if finished.all():
            break
        tgt = np.concatenate([tgt, nxt[:, None]], axis=1)
    return outputs


# ---------------------------------------------------------------------------
# adapter pruning


def apply_pruning(model: ToyModel, strategy: str) -> ToyModel:
    """Keep only one third of the adapter layers active and trainable.

    Thirds are taken over layer indices, independently for the encoder and
    the decoder stacks; pruned adapters become frozen identity residuals.
    """
    if strategy not in PRUNING_STRATEGIES:
        raise ConfigurationError(f"unknown pruning strategy {strategy!r}")
    if not model.has_adapters:
        raise ConfigurationError("model has no adapters to prune")
    cfg = model.config
    if strategy != "all" and (cfg.enc_layers % 3 or cfg.dec_layers % 3):
        raise ConfigurationError(
            "pruning thirds require enc_layers and dec_layers divisible by 3"
        )

    def selected(layer: int, total: int) -> bool:
        third = total // 3
        if strategy == "all":
            return True
        if strategy == "input_end":
            return layer < third
        if strategy == "middle":
            return third <= layer < 2 * third
        return layer >= 2 * third  # output_end

    mask = {}
    for site in adapter_sites(cfg):
        total = cfg.enc_layers if site.side == "encoder" else cfg.dec_layers
        mask[site.prefix] = selected(site.layer, total)

    def retag(t: ParamTensor) -> ParamTensor:
        for prefix, active in mask.items():
            if t.name.startswith(prefix + "."):
                return t.with_trainable(active)
        return t

    return ToyModel(cfg, NamedParamSet(retag(t) for t in model.params), mask)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: ToyModel, path_prefix: str | Path) -> None:
    """Binary parameter file plus a key=value metadata sidecar."""
    prefix = Path(path_prefix)
    save_param_set(model.params, prefix.parent / (prefix.name + ".params"))
    lines = []
    for key in ("vocab_size", "model_dim", "num_heads", "ffn_dim", "enc_layers",
                "dec_layers", "adapter_bottleneck", "max_seq_len",
                "adapter_nonlinearity", "dtype"):
        lines.append(f"{key}={getattr(model.config, key)}")
    for prefix_name in sorted(model.adapter_mask):
        lines.append(f"adapter.{prefix_name}={int(model.adapter_mask[prefix_name])}")
    meta_path = prefix.parent / (prefix.name + ".meta")
    meta_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_checkpoint(path_prefix: str | Path) -> ToyModel:
    prefix = Path(path_prefix)
    meta: dict[str, str] = {}
    mask: dict[str, bool] = {}
    meta_path = prefix.parent / (prefix.name + ".meta")
    for line in meta_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        if key.startswith("adapter."):
            mask[key[len("adapter."):]] = bool(int(value))
        else:
            meta[key] = value
    config = ModelConfig(
        vocab_size=int(meta["vocab_size"]),
        model_dim=int(meta["model_dim"]),
        num_heads=int(meta["num_heads"]),
        ffn_dim=int(meta["ffn_dim"]),
        enc_layers=int(meta["enc_layers"]),
        dec_layers=int(meta["dec_layers"]),
        adapter_bottleneck=int(meta["adapter_bottleneck"]),
        max_seq_len=int(meta["max_seq_len"]),
        adapter_nonlinearity=meta["adapter_nonlinearity"],
        dtype=meta["dtype"],
    )
    params_path = prefix.parent / (prefix.name + ".params")
    params = load_param_set(params_path, dtype=config.np_dtype)
    return ToyModel(config, params, mask)
