"""Toy encoder-decoder transformer with bottleneck adapters.

A pre-norm transformer whose backbone (embeddings, attention, FFN) is
typically frozen. Its layer structure is stated once, in the sublayer tables
``ENCODER_SUBLAYERS`` and ``DECODER_SUBLAYERS``: every sublayer is a layer
norm, a block whose output is added to the residual stream, and a bottleneck
adapter after that residual. The parameter layout, the adapter sites,
pruning, the forward and backward passes and the reference-scale arithmetic
in ``presets`` all read these tables. A site's adapter exists exactly when
the parameter set holds its tensors: a pruned site holds none, and the
forward skips it. Layer-norm parameters stay trainable alongside the
adapters. The output projection is tied to the token embedding. The module
reads and writes no file: ``fedmt.reporting`` saves and loads checkpoints.

Forward and backward passes are written directly in numpy; gradients are
exact, which lets tests pin them against central finite differences. They
run on packed rows: each stack gathers the real (non-pad) positions of its
batch once, every position-wise op (embedding, layer norms, FFN, adapters,
the tied logits and the cross-entropy) sees only those [N_real, d] rows, and
attention places them on the padded grid only for its score, softmax and
context products. Pad keys are masked and pad positions carry no loss, so
pad rows contribute exactly zero; packing changes only the order of sums.
Greedy decoding feeds one new position per step through the same sublayer
loop, reading earlier keys and values from a KV cache.

A forward takes a ``want`` predicate over tensor names and is the one place
that decides which parameter gradients its pass computes: it names a layer
(``_tensors``) when ``want`` holds for its weight or bias, and the backward
writes the gradients of exactly the layers its caches name. A forward keeps
only what that backward reads: ``loss`` and greedy decoding keep no cache,
and a linear keeps its input only when it is named, so a frozen backbone
holds no inputs for its weights.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import nn
from .errors import ConfigurationError, NumericError
from .params import NamedParamSet

# One pre-norm sublayer computes x <- adapter(x + block(layer_norm(x))).
# Entries are (layer norm, block, adapter slot); the adapter after the
# sublayer is named "{slot}_adapter".
ENCODER_SUBLAYERS = (("ln1", "self_attn", "attn"), ("ln2", "ffn", "ffn"))
DECODER_SUBLAYERS = (("ln1", "self_attn", "attn"), ("ln2", "cross_attn", "cross"),
                     ("ln3", "ffn", "ffn"))
STACK_NAMES = {"encoder": "enc", "decoder": "dec"}
ATTN_PROJECTIONS = ("q", "k", "v", "out")

# pruning strategy -> the third of each stack's layers whose adapters stay
THIRDS = {"input_end": 0, "middle": 1, "output_end": 2}
PRUNING_STRATEGIES = ("all", *THIRDS)

WantFn = Callable[[str], bool]


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
        if self.num_heads < 1:
            raise ConfigurationError("num_heads must be >= 1")
        if self.model_dim < 2:
            raise ConfigurationError("model_dim must be >= 2")
        if self.ffn_dim < 1:
            raise ConfigurationError("ffn_dim must be >= 1")
        if self.model_dim % self.num_heads:
            raise ConfigurationError("model_dim must be divisible by num_heads")
        if self.model_dim % 2:
            raise ConfigurationError("model_dim must be even")
        if self.adapter_bottleneck < 1:
            raise ConfigurationError("adapter_bottleneck must be >= 1")
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ConfigurationError("need at least one encoder and one decoder layer")
        if self.max_seq_len < 3:  # the shortest sentence plus its two special tokens
            raise ConfigurationError("max_seq_len must be >= 3")
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
    def layer_key(self) -> str:
        return f"{STACK_NAMES[self.side]}.layer{self.layer}"

    @property
    def prefix(self) -> str:
        return f"{self.layer_key}.{self.slot}_adapter"


def _sublayers(config: ModelConfig, side: str) -> list[tuple[str, str, AdapterSite]]:
    """(layer norm, block, adapter site) of every sublayer of one stack, in
    forward order."""
    if side == "encoder":
        layers, table = config.enc_layers, ENCODER_SUBLAYERS
    else:
        layers, table = config.dec_layers, DECODER_SUBLAYERS
    return [(ln, block, AdapterSite(side, i, slot))
            for i in range(layers) for ln, block, slot in table]


def adapter_sites(config: ModelConfig) -> tuple[AdapterSite, ...]:
    """Placement rule: one adapter after every sublayer of both stacks."""
    return tuple(site for side in STACK_NAMES for _, _, site in _sublayers(config, side))


class TensorSpec(NamedTuple):
    name: str
    shape: tuple[int, ...]
    side: str
    kind: str  # embedding | weight | zero_weight | bias | ln_weight | ln_bias
    site: AdapterSite | None  # the adapter holding the tensor; None in the backbone


def param_layout(config: ModelConfig) -> list[TensorSpec]:
    """Every tensor of the model with an adapter at every site: the token
    embedding (a decoder tensor: it is also the tied output projection),
    then per sublayer its layer norm, block and adapter, then the final
    layer norm of each stack. Shapes only; nothing is allocated."""
    d, f, b = config.model_dim, config.ffn_dim, config.adapter_bottleneck
    attn = [(proj, (d, d), "weight") for proj in ATTN_PROJECTIONS]
    linears = {  # block -> (name, weight shape, weight kind) of its linear maps
        "self_attn": attn,
        "cross_attn": attn,
        "ffn": [("fc1", (d, f), "weight"), ("fc2", (f, d), "weight")],
        "adapter": [("down", (d, b), "weight"), ("up", (b, d), "zero_weight")],
    }
    out = [TensorSpec("emb.token.weight", (config.vocab_size, d), "decoder", "embedding", None)]

    def add_norm(key: str, side: str) -> None:
        out.append(TensorSpec(f"{key}.weight", (d,), side, "ln_weight", None))
        out.append(TensorSpec(f"{key}.bias", (d,), side, "ln_bias", None))

    def add_linears(key: str, block: str, side: str, site: AdapterSite | None) -> None:
        for name, shape, kind in linears[block]:
            out.append(TensorSpec(f"{key}.{name}.weight", shape, side, kind, site))
            out.append(TensorSpec(f"{key}.{name}.bias", shape[1:], side, "bias", site))

    for side in STACK_NAMES:
        for ln, block, site in _sublayers(config, side):
            add_norm(f"{site.layer_key}.{ln}", side)
            add_linears(f"{site.layer_key}.{block}", block, side, None)
            add_linears(site.prefix, "adapter", side, site)
    for side, stack in STACK_NAMES.items():
        add_norm(f"{stack}.final_ln", side)
    return out


def pruning_mask(config: ModelConfig, strategy: str) -> dict[str, bool]:
    """Site prefix -> kept, when only one third of the adapter layers stays.

    Thirds are taken over layer indices, independently for the encoder and
    the decoder stacks; ``all`` keeps every adapter.
    """
    mask = {}
    for site in adapter_sites(config):
        third = (config.enc_layers if site.side == "encoder" else config.dec_layers) // 3
        mask[site.prefix] = strategy == "all" or site.layer // third == THIRDS[strategy]
    return mask


@dataclass(frozen=True)
class Batch:
    """One padded batch. Gold targets are the decoder inputs shifted by one;
    the masks mark the real positions, the only ones the model computes."""

    src: np.ndarray        # [B, S] int token ids
    src_mask: np.ndarray   # [B, S] bool, True at real tokens
    tgt_in: np.ndarray     # [B, T] decoder input (BOS + sentence)
    tgt_gold: np.ndarray   # [B, T] gold output (sentence + EOS)
    tgt_mask: np.ndarray   # [B, T] bool

    @property
    def size(self) -> int:
        return int(self.src.shape[0])

    @property
    def token_count(self) -> int:
        return int(self.tgt_mask.sum())

    def take(self, rows: np.ndarray) -> Batch:
        """The given rows, trimmed to their own widest source and target
        rows: bitwise what encoding those rows alone gives."""
        s_len = int(self.src_mask[rows].sum(axis=1).max())
        t_len = int(self.tgt_mask[rows].sum(axis=1).max())
        return Batch(self.src[rows, :s_len], self.src_mask[rows, :s_len],
                     self.tgt_in[rows, :t_len], self.tgt_gold[rows, :t_len],
                     self.tgt_mask[rows, :t_len])


def merge_batches(batches: list[Batch]) -> Batch:
    """Concatenate batches, re-padding to the widest sequence."""
    if len(batches) == 1:
        return batches[0]

    def stack(arrays: list[np.ndarray]) -> np.ndarray:
        # one zero (PAD, False) array, each batch copied into its rows
        out = np.zeros((sum(a.shape[0] for a in arrays), max(a.shape[1] for a in arrays)),
                       dtype=np.result_type(*arrays))
        row = 0
        for a in arrays:
            out[row:row + a.shape[0], :a.shape[1]] = a
            row += a.shape[0]
        return out

    return Batch(**{f.name: stack([getattr(b, f.name) for b in batches])
                    for f in dataclasses.fields(Batch)})


def _holds(params: NamedParamSet, site: AdapterSite) -> bool:
    return f"{site.prefix}.down.weight" in params


@dataclass
class ToyModel:
    config: ModelConfig
    params: NamedParamSet

    def active_sites(self) -> list[AdapterSite]:
        """The adapter sites whose tensors the parameter set holds."""
        return [s for s in adapter_sites(self.config) if _holds(self.params, s)]

    def with_params(self, params: NamedParamSet) -> "ToyModel":
        return ToyModel(self.config, params)

    def trainable_names(self) -> list[str]:
        """The tensors that train, in name order: a model that holds
        adapters trains them and every layer norm on a frozen backbone, a
        model without adapters trains every tensor."""
        if not self.active_sites():
            return list(self.params.names)
        layout = {s.name: s for s in param_layout(self.config)}
        return [n for n in self.params.names
                if layout[n].site is not None or layout[n].kind in ("ln_weight", "ln_bias")]

    def trainable_by_side(self) -> dict[str, list[str]]:
        """:meth:`trainable_names` by the side ``param_layout`` gives each:
        ``encoder`` or ``decoder``."""
        sides = {s.name: s.side for s in param_layout(self.config)}
        by_side: dict[str, list[str]] = {side: [] for side in STACK_NAMES}
        for name in self.trainable_names():
            by_side[sides[name]].append(name)
        return by_side


# ---------------------------------------------------------------------------
# construction


def _init_value(spec: TensorSpec, config: ModelConfig, rng: np.random.Generator) -> np.ndarray:
    shape = spec.shape
    if spec.kind == "embedding":
        v = rng.normal(0.0, config.model_dim**-0.5, size=shape)
    elif spec.kind == "weight":
        v = rng.normal(0.0, np.sqrt(2.0 / (shape[0] + shape[1])), size=shape)
    elif spec.kind == "ln_weight":
        v = np.ones(shape)
    else:  # bias, ln_bias, zero_weight
        v = np.zeros(shape)
    return v.astype(config.np_dtype)


def build_model(
    config: ModelConfig,
    rng_seed: int,
    adapters: str | None = "all",
    backbone: NamedParamSet | None = None,
) -> ToyModel:
    """Construct a model deterministically from a seed.

    ``adapters`` None builds the backbone alone. A pruning strategy builds
    the adapters ``pruning_mask`` keeps on the backbone
    (``ToyModel.trainable_names`` says what trains).

    The backbone stream is drawn before (and independently of) the adapter
    stream, and every site draws its adapter, kept or not, so the same seed
    yields an identical backbone with or without adapters and identical
    values at a kept site under every strategy. Adapter up-projections start
    at zero, making every adapter an identity residual at initialization.
    When ``backbone`` is given its values replace the random backbone
    (shapes must match); the model holds its arrays themselves when their
    dtype is the config's, so every model built on one backbone shares it.
    """
    kept = None if adapters is None else pruning_mask(config, adapters)
    backbone_ss, adapter_ss = np.random.SeedSequence(rng_seed).spawn(2)
    backbone_rng = np.random.default_rng(backbone_ss)
    adapter_rng = np.random.default_rng(adapter_ss)
    tensors = {}
    for spec in param_layout(config):
        if spec.site is not None:
            if kept is not None:
                value = _init_value(spec, config, adapter_rng)
                if kept[spec.site.prefix]:
                    tensors[spec.name] = value
        elif backbone is None:
            tensors[spec.name] = _init_value(spec, config, backbone_rng)
        else:
            tensors[spec.name] = backbone.values(spec.name).astype(config.np_dtype, copy=False)
    return ToyModel(config, NamedParamSet(tensors))


# ---------------------------------------------------------------------------
# forward / backward


def _tensors(p: NamedParamSet, key: str, want: WantFn | None):
    """Layer ``key`` as the ``(weight, bias, name)`` an ``nn`` forward takes:
    the name is ``key`` when ``want`` holds for its weight or bias, so the
    pass computes both, and None when the pass computes neither."""
    weight, bias = f"{key}.weight", f"{key}.bias"
    named = want is not None and (want(weight) or want(bias))
    return p.values(weight), p.values(bias), key if named else None


def _ffn_fwd(x, p: NamedParamSet, key: str, want: WantFn | None):
    h1, c1 = nn.linear_fwd(x, *_tensors(p, f"{key}.fc1", want))
    a, ca = nn.gelu_fwd(h1, want is not None)
    out, c2 = nn.linear_fwd(a, *_tensors(p, f"{key}.fc2", want))
    return out, (c1, ca, c2)


def _ffn_bwd(dy, cache, grads):
    c1, ca, c2 = cache
    da = nn.linear_bwd(dy, c2, grads)
    dh1 = nn.gelu_bwd(da, ca)
    return nn.linear_bwd(dh1, c1, grads)


def _embed(model: ToyModel, ids: np.ndarray, rows: nn.Rows, offset: int):
    """Scaled embeddings plus positions of the packed token ids ``ids``; the
    grid's first column is position ``offset``."""
    cfg = model.config
    if offset + rows.length > cfg.max_seq_len:
        raise ConfigurationError(
            f"sequence length {offset + rows.length} exceeds max_seq_len={cfg.max_seq_len}"
        )
    emb = model.params.values("emb.token.weight")
    scale = np.asarray(np.sqrt(cfg.model_dim), dtype=cfg.np_dtype)
    pos = nn.sinusoidal_positions(cfg.max_seq_len, cfg.model_dim, cfg.np_dtype)
    return emb[ids] * scale + pos[rows.index % rows.length + offset], scale


def _stack_fwd(model: ToyModel, side: str, ids: np.ndarray, mask: np.ndarray,
               self_bias: np.ndarray, want: WantFn | None, memory=None,
               kv_cache: dict | None = None):
    """One stack over the real tokens of ``ids`` (``mask`` True there):
    embedding, every sublayer, final layer norm, each on the packed rows
    [N, d].

    Self-attention attends under ``self_bias``, the key-major mask of
    ``nn.attention_bias`` built once for every layer; when its Tk exceeds
    Tq the grid continues a prefix of Tk - Tq earlier positions.
    Cross-attention reads ``memory``, the encoder's (packed output, rows,
    key bias). ``kv_cache`` maps each attention block to its keys and
    values: self-attention appends its new ones, cross-attention computes
    them once. Returns the packed output and the cache that ``_stack_bwd``
    takes.

    ``want`` names the tensors whose gradients the backward computes (see
    ``_tensors``). With ``want`` None (inference) no sublayer cache is kept,
    so each sublayer's activations are freed as the next one runs, and the
    cache is None. Each sublayer's cache records its block kind, so the
    backward walks the caches alone.
    """
    cfg, p = model.config, model.params
    rows = nn.Rows.of(mask)
    x, scale = _embed(model, ids.reshape(-1)[rows.index], rows,
                      self_bias.shape[0] - rows.length)
    caches = [] if want is not None else None
    for ln, block, site in _sublayers(cfg, side):
        h, ln_c = nn.layer_norm_fwd(x, *_tensors(p, f"{site.layer_key}.{ln}", want))
        key = f"{site.layer_key}.{block}"
        if block == "ffn":
            out, block_c = _ffn_fwd(h, p, key, want)
        else:
            kv_in, kv_rows, kv_bias = (h, rows, self_bias) if block == "self_attn" else memory
            past = None if kv_cache is None else kv_cache.get(key)
            if block == "cross_attn" and past is not None:
                kv_in = None  # the memory's keys and values do not change
            projections = {proj: _tensors(p, f"{key}.{proj}", want) for proj in ATTN_PROJECTIONS}
            out, block_c = nn.attention_fwd(h, kv_in, projections, kv_bias, cfg.num_heads,
                                            rows, kv_rows, past)
            if kv_cache is not None:
                kv_cache[key] = (block_c.k, block_c.v)
        x = x + out
        ad_c = None
        if _holds(p, site):
            adapter = {part: _tensors(p, f"{site.prefix}.{part}", want) for part in ("down", "up")}
            x, ad_c = nn.adapter_fwd(x, adapter, cfg.adapter_nonlinearity, want is not None)
        if caches is not None:
            caches.append((ln_c, block, block_c, ad_c))
        del h, ln_c, out, block_c, ad_c  # an inference pass frees them before the next sublayer
    out, final_c = nn.layer_norm_fwd(x, *_tensors(p, f"{STACK_NAMES[side]}.final_ln", want))
    if caches is None:
        return out, None
    return out, {"sublayers": caches, "final_ln": final_c, "out": out, "scale": scale}


def _stack_bwd(dout: np.ndarray, cache, grads, d_memory: np.ndarray | None = None) -> np.ndarray:
    """Gradient through one stack, from its output back to its scaled
    embedding input. Cross-attention adds its memory gradient into
    ``d_memory`` in place. The walk pops each sublayer's cache from
    ``cache``, so its activations are freed once its backward has run."""
    dx = nn.layer_norm_bwd(dout, cache.pop("final_ln"), grads)
    sublayers = cache.pop("sublayers")
    while sublayers:
        ln_c, block, block_c, ad_c = sublayers.pop()
        if ad_c is not None:
            dx = nn.adapter_bwd(dx, ad_c, grads)
        if block == "ffn":
            dh = _ffn_bwd(dx, block_c, grads)
        else:
            dq, dkv = nn.attention_bwd(dx, block_c, grads)
            if block == "self_attn":
                dh = dq + dkv
            else:
                d_memory += dkv
                dh = dq
        dx = dx + nn.layer_norm_bwd(dh, ln_c, grads)
    return dx


def encode(model: ToyModel, src: np.ndarray, src_mask: np.ndarray, want: WantFn | None):
    """Encoder output at the real source positions [N_src, d], plus the
    cache for ``want`` (None with ``want`` None; see ``_stack_fwd``)."""
    bias = nn.attention_bias(src_mask, model.config.np_dtype)
    return _stack_fwd(model, "encoder", src, src_mask, bias, want)


def decode_logits(
    model: ToyModel,
    enc_out: np.ndarray,
    src_mask: np.ndarray,
    tgt_in: np.ndarray,
    tgt_mask: np.ndarray,
    want: WantFn | None,
    kv_cache: dict | None = None,
):
    """Logits [N_tgt, V] at the real positions of ``tgt_in`` (row-major),
    plus the cache for ``want`` (see ``_stack_fwd``), given the packed
    encoder output ``enc_out``.

    Without ``kv_cache`` ``tgt_in`` is a whole target prefix. With it (an
    empty dict at the first step), ``tgt_in`` continues the prefix the cache
    holds, and the cache is extended in place: the prefix's key mask under
    ``"mask"``, the encoder memory (rows and key bias of ``src_mask``, built
    at the first step) under ``"memory"`` and each attention block's keys
    and values under its name. A call with ``kv_cache`` is an inference
    pass: ``want`` is None.
    """
    dtype = model.config.np_dtype
    if kv_cache:
        key_mask = np.concatenate([kv_cache["mask"], tgt_mask], axis=1)
        memory = kv_cache["memory"]
    else:
        key_mask = tgt_mask
        memory = (enc_out, nn.Rows.of(src_mask), nn.attention_bias(src_mask, dtype))
    self_bias = nn.attention_bias(key_mask, dtype, q_len=tgt_in.shape[1])
    dec_out, cache = _stack_fwd(model, "decoder", tgt_in, tgt_mask, self_bias, want, memory,
                                kv_cache)
    if kv_cache is not None:
        kv_cache["mask"] = key_mask
        kv_cache["memory"] = memory
    return dec_out @ model.params.values("emb.token.weight").T, cache


def forward(model: ToyModel, batch: Batch, want: WantFn | None):
    """Logits [N_real, V] at the real target positions, row-major (the order
    of ``batch.tgt_gold[batch.tgt_mask]``), plus the cache that ``backward``
    takes. ``want`` decides which parameter gradients that backward
    computes; ``want`` None is an inference pass, which returns no cache."""
    enc_out, enc_cache = encode(model, batch.src, batch.src_mask, want)
    logits, dec_cache = decode_logits(
        model, enc_out, batch.src_mask, batch.tgt_in, batch.tgt_mask, want
    )
    if want is None:
        return logits, None
    return logits, {"enc": enc_cache, "dec": dec_cache, "emb": want("emb.token.weight")}


def backward(model: ToyModel, batch: Batch, cache, dlogits: np.ndarray):
    """Gradients of the loss wrt parameters, given d(loss)/d(logits) [N_real, V]:
    those of every layer the forward named in ``cache``, and the embedding's
    when the forward wanted it. Activation gradients always propagate fully.
    The walk consumes ``cache`` (see ``_stack_bwd``), so it runs once.
    """
    emb = model.params.values("emb.token.weight")
    grads: dict[str, np.ndarray] = {}
    enc, dec = cache["enc"], cache["dec"]
    d_enc_out = np.zeros_like(enc["out"])
    dy = _stack_bwd(dlogits @ emb, dec, grads, d_enc_out)
    dx = _stack_bwd(d_enc_out, enc, grads)
    if cache["emb"]:
        d_emb = dlogits.T @ dec["out"]
        for ids, mask, d_in, stack in ((batch.tgt_in, batch.tgt_mask, dy, dec),
                                       (batch.src, batch.src_mask, dx, enc)):
            np.add.at(d_emb, ids[mask], d_in * stack["scale"])
        grads["emb.token.weight"] = d_emb
    return grads


# ---------------------------------------------------------------------------
# loss and gradients


@dataclass(frozen=True)
class LossResult:
    total: float       # summed negative log-likelihood over non-pad positions
    token_count: int


def _cross_entropy(logits: np.ndarray, batch: Batch, need_grad: bool = True):
    """Summed loss of packed logits [N_real, V] against the real gold ids."""
    gold = batch.tgt_gold[batch.tgt_mask]
    rows = np.arange(gold.size)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=-1, keepdims=True)
    total = -(shifted[rows, gold] - np.log(sums[:, 0])).sum()
    count = batch.token_count
    if not need_grad:
        return float(total), count, None
    dlogits = exps / sums
    dlogits[rows, gold] -= 1.0
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
    logits, _ = forward(model, batch, want=None)
    total, count, _ = _cross_entropy(logits, batch, need_grad=False)
    if not np.isfinite(total):
        raise NumericError("non-finite loss")
    return LossResult(total, count)


def grad(model: ToyModel, batch: Batch, names: Sequence[str]):
    """Loss plus the analytic gradient of the *summed* loss over the tensors
    ``names``, exactly those: one vector in the model's dtype, each tensor
    raveled and concatenated in the order given."""
    _check_batch(model, batch)
    logits, cache = forward(model, batch, set(names).__contains__)
    total, count, dlogits = _cross_entropy(logits, batch)
    if not np.isfinite(total):
        raise NumericError("non-finite loss")
    grads = backward(model, batch, cache, dlogits)
    vector = np.concatenate([grads[name].ravel() for name in names])
    if not np.isfinite(vector).all():
        name = next(n for n in names if not np.isfinite(grads[n]).all())
        raise NumericError(f"non-finite gradient for {name!r}")
    return LossResult(total, count), vector


# ---------------------------------------------------------------------------
# greedy decoding


def decode_greedy(model: ToyModel, src: np.ndarray, src_mask: np.ndarray,
                  bos_id: int, eos_id: int, max_len: int) -> list[list[int]]:
    """Greedy decoding; returns token ids per sentence without BOS/EOS.

    The encoder runs once. Each step feeds only the newest token to
    ``decode_logits`` with a KV cache: every decoder layer computes its
    cross-attention keys and values from the encoder output once and
    appends one self-attention key and value per step."""
    bsz = src.shape[0]
    enc_out, _ = encode(model, src, src_mask, want=None)
    tgt = np.full((bsz, 1), bos_id, dtype=src.dtype)
    step_mask = np.ones((bsz, 1), dtype=bool)
    kv_cache: dict = {}
    finished = np.zeros(bsz, dtype=bool)
    outputs: list[list[int]] = [[] for _ in range(bsz)]
    for _ in range(max_len):
        logits, _ = decode_logits(model, enc_out, src_mask, tgt, step_mask, want=None,
                                  kv_cache=kv_cache)
        nxt = logits.argmax(axis=-1).astype(src.dtype)
        for j in range(bsz):
            if not finished[j]:
                if int(nxt[j]) == eos_id:
                    finished[j] = True
                else:
                    outputs[j].append(int(nxt[j]))
        if finished.all():
            break
        tgt = nxt[:, None]
    return outputs

