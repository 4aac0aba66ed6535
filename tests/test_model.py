"""Model construction, adapters, loss, and the naive-forward oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from fedmt.errors import ConfigurationError
from fedmt.model import (
    Batch,
    ModelConfig,
    ToyModel,
    _cross_entropy,
    adapter_sites,
    backward,
    build_model,
    decode_greedy,
    forward,
    grad,
    loss,
    merge_batches,
)
from fedmt.nn import adapter_fwd, sinusoidal_positions

from test_federation import params_equal
from test_grad import by_name

TINY = ModelConfig(vocab_size=23, model_dim=16, num_heads=2, ffn_dim=32,
                   enc_layers=2, dec_layers=2, adapter_bottleneck=4,
                   max_seq_len=16, dtype="float64")


def random_batch(config, seed=0, bsz=3, s_len=6, t_len=5):
    rng = np.random.default_rng(seed)
    src = rng.integers(4, config.vocab_size, size=(bsz, s_len))
    src_mask = np.ones((bsz, s_len), bool)
    src_mask[0, s_len - 2:] = False
    tgt_in = rng.integers(4, config.vocab_size, size=(bsz, t_len))
    tgt_in[:, 0] = 1
    tgt_gold = rng.integers(4, config.vocab_size, size=(bsz, t_len))
    tgt_mask = np.ones((bsz, t_len), bool)
    tgt_mask[1, t_len - 1:] = False
    return Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask)


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(TINY, 42)
        b = build_model(TINY, 42)
        assert params_equal(a.params, b.params)

    def test_different_seed_differs(self):
        a = build_model(TINY, 42)
        b = build_model(TINY, 43)
        assert not params_equal(a.params, b.params)

    def test_identity_at_init(self):
        # zero-init up-projections: logits equal the adapter-free backbone's
        adapted = build_model(TINY, 7)
        backbone_only = build_model(TINY, 7, adapters=None)
        batch = random_batch(TINY)
        la, _ = forward(adapted, batch, lambda _: True)
        lb, _ = forward(backbone_only, batch, lambda _: True)
        assert np.array_equal(la, lb)

    def test_adapter_count_placement_rule(self):
        config = ModelConfig(vocab_size=20, model_dim=32, num_heads=2, ffn_dim=64,
                             enc_layers=2, dec_layers=2, adapter_bottleneck=8)
        assert len(adapter_sites(config)) == 2 * 2 + 3 * 2 == 10

    def test_backbone_frozen_adapters_and_norms_trainable(self):
        model = build_model(TINY, 0)
        trainable = set(model.trainable_names())
        for name in model.params.names:
            if "_adapter." in name or ".ln" in name or "final_ln" in name:
                assert name in trainable, name
            else:
                assert name not in trainable, name
        assert model.trainable_names() == sorted(trainable)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(vocab_size=10, model_dim=30, num_heads=4)


class TestAdapterApply:
    def test_zero_up_projection_is_identity(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 8))
        p = {"down": (rng.normal(size=(8, 3)), np.zeros(3)),
             "up": (np.zeros((3, 8)), np.zeros(8))}
        out, _ = adapter_fwd(h, p, "relu")
        assert np.array_equal(out, h)

    def test_hand_computed_case(self):
        # d=2, b=1: down=[1,0], relu, up=[1,1], h=[2,3] -> [4,5]
        h = np.array([[2.0, 3.0]])
        p = {"down": (np.array([[1.0], [0.0]]), np.zeros(1)),
             "up": (np.array([[1.0, 1.0]]), np.zeros(2))}
        out, _ = adapter_fwd(h, p, "relu")
        assert out.tolist() == [[4.0, 5.0]]

    def test_pruned_adapter_is_identity(self):
        # a site whose tensors the model does not hold is skipped: the model
        # computes exactly what zero up-projections compute, and exactly
        # the adapter-free backbone
        model = build_model(TINY, 7)
        rng = np.random.default_rng(1)
        noisy = model.params.replace_values({
            name: rng.normal(size=model.params.values(name).shape)
            for name in model.params.names if "_adapter." in name
        })
        pruned = model.with_params(noisy.filter(lambda name: "_adapter." not in name))
        zero_up = model.with_params(noisy.replace_values({
            name: np.zeros(noisy.values(name).shape)
            for name in noisy.names if "_adapter.up." in name
        }))
        backbone = build_model(TINY, 7, adapters=None)
        assert pruned.active_sites() == [] and len(zero_up.active_sites()) == 10
        batch = random_batch(TINY)
        logits = forward(pruned, batch, lambda _: True)[0]
        assert np.array_equal(logits, forward(zero_up, batch, lambda _: True)[0])
        assert np.array_equal(logits, forward(backbone, batch, lambda _: True)[0])


class TestLoss:
    def test_uniform_logits_give_log_vocab(self):
        # zero embeddings make the tied output head produce all-zero logits
        model = build_model(TINY, 3)
        zeroed = model.with_params(model.params.replace_values(
            {"emb.token.weight": np.zeros((TINY.vocab_size, TINY.model_dim))}
        ))
        batch = random_batch(TINY)
        assert loss(zeroed, batch) / batch.token_count == pytest.approx(
            math.log(TINY.vocab_size), abs=1e-9)

    def test_sharp_correct_logits_drive_loss_to_zero(self):
        model = build_model(TINY, 3)
        batch = random_batch(TINY)
        logits, _ = forward(model, batch, lambda _: True)
        # emulate a perfectly confident model via the cross-entropy path
        # logits are packed [N_real, V], in the order of tgt_gold[tgt_mask]
        sharp = np.full_like(logits, -1e4)
        gold = batch.tgt_gold[batch.tgt_mask]
        sharp[np.arange(gold.size), gold] = 1e4
        total, _ = _cross_entropy(sharp, batch, need_grad=False)
        assert total / batch.token_count == pytest.approx(0.0, abs=1e-9)

    def test_empty_batch_rejected(self):
        model = build_model(TINY, 3)
        batch = random_batch(TINY)
        empty = Batch(batch.src, batch.src_mask, batch.tgt_in, batch.tgt_gold,
                      np.zeros_like(batch.tgt_mask))
        with pytest.raises(ValueError):
            loss(model, empty)

    def test_out_of_vocab_rejected(self):
        model = build_model(TINY, 3)
        batch = random_batch(TINY)
        bad = Batch(batch.src + TINY.vocab_size, batch.src_mask, batch.tgt_in,
                    batch.tgt_gold, batch.tgt_mask)
        with pytest.raises(ConfigurationError):
            loss(model, bad)

    def test_matches_naive_reimplementation(self):
        model = build_model(TINY, 11)
        # randomize up-projections so adapters actually act
        rng = np.random.default_rng(5)
        model = model.with_params(model.params.replace_values({
            name: rng.normal(0, 0.2, model.params.values(name).shape)
            for name in model.params.names if name.endswith("up.weight")
        }))
        batch = random_batch(TINY, seed=9)
        expected = naive_loss(model, batch)
        assert loss(model, batch) == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# independent straightforward forward pass: per-sentence, per-position loops,
# no batching, no fused ops


def naive_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    return g * (x - mu) / math.sqrt(var + eps) + b


def naive_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def naive_attention(queries, keys, values, allowed, p, num_heads):
    d = queries.shape[1]
    dh = d // num_heads
    q = queries @ p["q"][0] + p["q"][1]
    k = keys @ p["k"][0] + p["k"][1]
    v = values @ p["v"][0] + p["v"][1]
    out = np.zeros_like(q)
    for h in range(num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(q.shape[0]):
            scores = np.array([
                q[i, sl] @ k[j, sl] / math.sqrt(dh) if allowed[i, j] else -1e9
                for j in range(k.shape[0])
            ])
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            out[i, sl] = sum(weights[j] * v[j, sl] for j in range(v.shape[0]))
    return out @ p["out"][0] + p["out"][1]


def naive_adapter(x, p, nonlinearity="relu"):
    z = x @ p["down"][0] + p["down"][1]
    a = np.maximum(z, 0) if nonlinearity == "relu" else naive_gelu(z)
    return x + a @ p["up"][0] + p["up"][1]


def naive_loss(model: ToyModel, batch: Batch) -> float:
    cfg = model.config
    p = model.params
    emb = p.values("emb.token.weight")
    pos = sinusoidal_positions(cfg.max_seq_len, cfg.model_dim, np.float64)
    get_attn = lambda key: {k: (p.values(f"{key}.{k}.weight"), p.values(f"{key}.{k}.bias"))
                            for k in ("q", "k", "v", "out")}
    get_ad = lambda key: {k: (p.values(f"{key}.{k}.weight"), p.values(f"{key}.{k}.bias"))
                          for k in ("down", "up")}
    ln = lambda key, rows: np.stack([
        naive_layer_norm(row, p.values(f"{key}.weight"), p.values(f"{key}.bias"))
        for row in rows
    ])
    total = 0.0
    for j in range(batch.size):
        s_keep = batch.src_mask[j]
        src = batch.src[j][s_keep]
        x = emb[src] * math.sqrt(cfg.model_dim) + pos[: len(src)]
        full = np.ones((len(src), len(src)), bool)
        for i in range(cfg.enc_layers):
            key = f"enc.layer{i}"
            x = x + naive_attention(ln(f"{key}.ln1", x), ln(f"{key}.ln1", x),
                                    ln(f"{key}.ln1", x), full,
                                    get_attn(f"{key}.self_attn"), cfg.num_heads)
            x = naive_adapter(x, get_ad(f"{key}.attn_adapter"), cfg.adapter_nonlinearity)
            h = ln(f"{key}.ln2", x)
            h = naive_gelu(h @ p.values(f"{key}.ffn.fc1.weight") + p.values(f"{key}.ffn.fc1.bias"))
            x = x + (h @ p.values(f"{key}.ffn.fc2.weight") + p.values(f"{key}.ffn.fc2.bias"))
            x = naive_adapter(x, get_ad(f"{key}.ffn_adapter"), cfg.adapter_nonlinearity)
        enc = ln("enc.final_ln", x)

        t_len = int(batch.tgt_mask[j].sum())
        tgt_in = batch.tgt_in[j][:t_len]
        y = emb[tgt_in] * math.sqrt(cfg.model_dim) + pos[:t_len]
        causal = np.tril(np.ones((t_len, t_len), bool))
        cross = np.ones((t_len, len(src)), bool)
        for i in range(cfg.dec_layers):
            key = f"dec.layer{i}"
            y = y + naive_attention(ln(f"{key}.ln1", y), ln(f"{key}.ln1", y),
                                    ln(f"{key}.ln1", y), causal,
                                    get_attn(f"{key}.self_attn"), cfg.num_heads)
            y = naive_adapter(y, get_ad(f"{key}.attn_adapter"), cfg.adapter_nonlinearity)
            y = y + naive_attention(ln(f"{key}.ln2", y), enc, enc, cross,
                                    get_attn(f"{key}.cross_attn"), cfg.num_heads)
            y = naive_adapter(y, get_ad(f"{key}.cross_adapter"), cfg.adapter_nonlinearity)
            h = ln(f"{key}.ln3", y)
            h = naive_gelu(h @ p.values(f"{key}.ffn.fc1.weight") + p.values(f"{key}.ffn.fc1.bias"))
            y = y + (h @ p.values(f"{key}.ffn.fc2.weight") + p.values(f"{key}.ffn.fc2.bias"))
            y = naive_adapter(y, get_ad(f"{key}.ffn_adapter"), cfg.adapter_nonlinearity)
        y = ln("dec.final_ln", y)
        logits = y @ emb.T
        for t in range(t_len):
            row = logits[t] - logits[t].max()
            log_z = math.log(np.exp(row).sum())
            total -= row[batch.tgt_gold[j, t]] - log_z
    return total


class TestMergeBatches:
    def test_merge_repads_and_concatenates(self):
        b1 = random_batch(TINY, seed=1, bsz=2, s_len=4, t_len=4)
        b2 = random_batch(TINY, seed=2, bsz=3, s_len=6, t_len=5)
        merged = merge_batches([b1, b2])
        assert merged.size == 5
        assert merged.src.shape[1] == 6
        assert merged.token_count == b1.token_count + b2.token_count
        model = build_model(TINY, 0)
        assert loss(model, merged) == pytest.approx(loss(model, b1) + loss(model, b2), rel=1e-9)

    def test_merge_equals_padding_each_batch(self):
        batches = [random_batch(TINY, seed=1, bsz=2, s_len=4, t_len=5),
                   random_batch(TINY, seed=2, bsz=3, s_len=6, t_len=3)]
        merged = merge_batches(batches)
        for name in ("src", "src_mask", "tgt_in", "tgt_gold", "tgt_mask"):
            parts = [getattr(b, name) for b in batches]
            if parts[0].ndim == 2:
                width = max(a.shape[1] for a in parts)
                parts = [np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in parts]
            expected = np.concatenate(parts)
            assert getattr(merged, name).dtype == expected.dtype, name
            assert np.array_equal(getattr(merged, name), expected), name


def probe_batch(vocab_size=90, size=64, width=14):
    """A ragged batch of 64 sentences: 5 to 14 real tokens per row."""
    rng = np.random.default_rng(0)
    src_len, tgt_len = rng.integers(5, width + 1, size=(2, size))
    src_mask = np.arange(width) < src_len[:, None]
    tgt_mask = np.arange(width) < tgt_len[:, None]
    src, tgt_in, tgt_gold = rng.integers(3, vocab_size, size=(3, size, width))
    tgt_in[:, 0] = 1
    return Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask)


def traced_peak(fn):
    """The most memory ``fn`` held at once, in bytes, as tracemalloc counts
    it (numpy reports its buffers), and what ``fn`` returned."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


class TestWhatAPassKeeps:
    """A forward keeps only what its own backward reads."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_inference_pass_holds_a_fraction_of_a_kept_forward(self, dtype):
        config = ModelConfig(vocab_size=90, dtype=dtype)
        model, batch = build_model(config, 0), probe_batch()
        loss(model, batch)  # warm the shared position table
        loss_peak, summed = traced_peak(lambda: loss(model, batch))
        kept_peak, (kept_logits, kept_cache) = traced_peak(lambda: forward(model, batch, lambda _: True))
        assert loss_peak < 0.25 * kept_peak
        # Each sublayer's activations are freed before the next one runs. The
        # widest sublayer is the FFN: GELU holds its input and one more
        # [N, ffn_dim] array, its tanh turned into its output. Everything else
        # alive then (residual stream, layer-norm output, encoder memory,
        # logits) is model_dim or vocab wide, under one more such array at
        # ffn_dim = 8 * model_dim. A third GELU buffer goes past three.
        n = max(int(batch.src_mask.sum()), int(batch.tgt_mask.sum()))
        assert loss_peak < 3 * n * config.ffn_dim * config.np_dtype.itemsize
        logits, cache = forward(model, batch, want=None)
        assert cache is None and kept_cache is not None
        assert np.array_equal(logits, kept_logits)
        assert summed == grad(model, batch, model.params.names)[0]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_decoding_holds_what_an_inference_pass_holds(self, dtype):
        # A short decode, so the KV cache stays small and the encoder pass
        # over the whole batch sets the peak: the same three-array bound as
        # ``loss``. It read 3.5 units while GELU held three arrays.
        config = ModelConfig(vocab_size=90, dtype=dtype)
        model, batch = build_model(config, 0), probe_batch()
        loss(model, batch)  # warm the shared position table
        peak, outs = traced_peak(lambda: decode_greedy(model, batch.src, batch.src_mask,
                                                       bos_id=1, eos_id=2, max_len=8))
        assert len(outs) == batch.size
        n = max(int(batch.src_mask.sum()), int(batch.tgt_mask.sum()))
        assert peak < 3 * n * config.ffn_dim * config.np_dtype.itemsize

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_adapter_gradient_holds_less_than_a_full_one(self, dtype):
        config = ModelConfig(vocab_size=90, dtype=dtype)
        model, batch = build_model(config, 0), probe_batch()
        every = model.params.names
        needed = [n for n in model.trainable_names() if n.startswith("enc.layer1.ffn_adapter.")]
        assert len(needed) == 4
        narrow_peak, (_, narrow) = traced_peak(lambda: grad(model, batch, needed))
        full_peak, (_, everything) = traced_peak(lambda: grad(model, batch, every))
        assert narrow_peak < 0.8 * full_peak
        everything = by_name(model, every, everything)
        for name, g in by_name(model, needed, narrow).items():
            assert np.array_equal(g, everything[name]), name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_gradient_pass_keeps_one_array_per_gelu(self, dtype):
        # In units of one [N, ffn_dim] array. Keeping GELU's input and tanh
        # read 26.0 (first encoder adapter) and 38.5 (every tensor) units;
        # keeping only its derivative is one array fewer in each of the six
        # FFNs. Each bound was that reading minus six, plus two units of slack.
        # A backward that frees each sublayer's cache as it walks, with GELU's
        # gradient written into its cache, took every tensor's from 30.7 to
        # 27.7 units; its bound is that reading plus one unit and a bit.
        config = ModelConfig(vocab_size=90, dtype=dtype)
        model, batch = build_model(config, 0), probe_batch()
        every = model.params.names
        n = max(int(batch.src_mask.sum()), int(batch.tgt_mask.sum()))
        unit = n * config.ffn_dim * config.np_dtype.itemsize
        needed = [name for name in model.trainable_names()
                  if name.startswith("enc.layer0.attn_adapter.")]
        assert len(needed) == 4
        grad(model, batch, needed)  # warm the shared position table
        adapter_peak, (_, adapter) = traced_peak(lambda: grad(model, batch, needed))
        full_peak, (_, everything) = traced_peak(lambda: grad(model, batch, every))
        assert adapter_peak < 22 * unit
        assert full_peak < 29 * unit
        everything = by_name(model, every, everything)
        for name, g in by_name(model, needed, adapter).items():
            assert np.array_equal(g, everything[name]), name

    def test_the_forward_alone_decides_what_a_backward_writes(self):
        # the backward takes no predicate: it writes the gradients of exactly
        # the layers its forward named, each bitwise a full gradient's
        rng = np.random.default_rng(1)
        model = build_model(TINY, 0)
        adapters = {name for name in model.params.names if "_adapter." in name}
        model = model.with_params(model.params.replace_values({
            name: rng.normal(0, 0.3, model.params.values(name).shape) for name in sorted(adapters)
        }))
        batch = random_batch(TINY)
        logits, cache = forward(model, batch, want=lambda name: "adapter" in name)
        grads = backward(model, batch, cache, _cross_entropy(logits, batch)[1])
        _, everything = grad(model, batch, model.params.names)
        everything = by_name(model, model.params.names, everything)
        assert len(adapters) == 4 * len(adapter_sites(TINY))
        assert set(grads) == adapters
        for name in adapters:
            assert np.array_equal(grads[name], everything[name]), name


def scripted_decode(monkeypatch, script, max_len):
    """``decode_greedy`` over two rows with ``decode_logits`` stubbed so that
    the argmax of its call k is ``script[k]``: the outputs, and the ids each
    call was fed."""
    model = build_model(TINY, 5)
    batch = random_batch(TINY, bsz=2)
    fed = []

    def scripted(model, enc_out, src_mask, tgt_in, tgt_mask, want, kv_cache=None):
        ids = script[len(fed)]
        fed.append(tgt_in[:, 0].tolist())
        logits = np.zeros((len(ids), TINY.vocab_size))
        logits[np.arange(len(ids)), ids] = 1.0
        return logits, None

    monkeypatch.setattr("fedmt.model.decode_logits", scripted)
    return decode_greedy(model, batch.src, batch.src_mask, bos_id=1, eos_id=2,
                         max_len=max_len), fed


class TestDecodeGreedy:
    def test_decoding_stops_once_every_row_holds_an_eos(self, monkeypatch):
        # row 0 emits EOS at step 1, row 1 at step 3; what row 0 emits after
        # its EOS is dropped, and no fourth step runs
        script = [[2, 5], [7, 6], [8, 2], [9, 9], [9, 9], [9, 9]]
        outs, fed = scripted_decode(monkeypatch, script, max_len=6)
        assert outs == [[], [5, 6]]
        assert fed == [[1, 1], [2, 5], [7, 6]]

    def test_a_row_without_eos_runs_to_max_len(self, monkeypatch):
        script = [[4, 5], [2, 6], [7, 8], [9, 10]]
        outs, fed = scripted_decode(monkeypatch, script, max_len=4)
        assert outs == [[4], [5, 6, 8, 10]]
        assert len(fed) == 4

    def test_decode_stops_at_eos_and_strips_specials(self):
        model = build_model(TINY, 5)
        batch = random_batch(TINY)
        outs = decode_greedy(model, batch.src, batch.src_mask, bos_id=1, eos_id=2, max_len=6)
        assert len(outs) == batch.size
        for ids in outs:
            assert len(ids) <= 6
            assert 2 not in ids
