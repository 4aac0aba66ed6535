"""Model construction, adapters, loss, and the naive-forward oracle."""

import math

import numpy as np
import pytest

from fedmt.errors import ConfigurationError
from fedmt.model import (
    Batch,
    ModelConfig,
    ToyModel,
    adapter_sites,
    build_model,
    decode_greedy,
    forward,
    loss,
    merge_batches,
)
from fedmt.nn import adapter_fwd, sinusoidal_positions

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
    return Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask, tgt_mask.sum(1))


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(TINY, 42)
        b = build_model(TINY, 42)
        assert a.params.equals(b.params)

    def test_different_seed_differs(self):
        a = build_model(TINY, 42)
        b = build_model(TINY, 43)
        assert not a.params.equals(b.params)

    def test_identity_at_init(self):
        # zero-init up-projections: logits equal the adapter-free backbone's
        with_adapters = build_model(TINY, 7)
        backbone_only = build_model(TINY, 7, with_adapters=False)
        batch = random_batch(TINY)
        la, _ = forward(with_adapters, batch)
        lb, _ = forward(backbone_only, batch)
        assert np.array_equal(la, lb)

    def test_adapter_count_placement_rule(self):
        config = ModelConfig(vocab_size=20, model_dim=32, num_heads=2, ffn_dim=64,
                             enc_layers=2, dec_layers=2, adapter_bottleneck=8)
        assert len(adapter_sites(config)) == 2 * 2 + 3 * 2 == 10

    def test_backbone_frozen_adapters_and_norms_trainable(self):
        model = build_model(TINY, 0)
        for t in model.params:
            if "_adapter." in t.name or ".ln" in t.name or "final_ln" in t.name:
                assert t.trainable, t.name
            else:
                assert not t.trainable, t.name

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
        # an inactive adapter is skipped whatever its weights: the model
        # computes exactly the adapter-free backbone
        model = build_model(TINY, 7)
        rng = np.random.default_rng(1)
        noisy = model.params.replace_values({
            t.name: rng.normal(size=t.shape) for t in model.params if "_adapter." in t.name
        })
        pruned = ToyModel(TINY, noisy, {prefix: False for prefix in model.adapter_mask})
        backbone = build_model(TINY, 7, with_adapters=False)
        batch = random_batch(TINY)
        assert np.array_equal(forward(pruned, batch)[0], forward(backbone, batch)[0])


class TestLoss:
    def test_uniform_logits_give_log_vocab(self):
        # zero embeddings make the tied output head produce all-zero logits
        model = build_model(TINY, 3)
        zeroed = model.with_params(model.params.replace_values(
            {"emb.token.weight": np.zeros((TINY.vocab_size, TINY.model_dim))}
        ))
        batch = random_batch(TINY)
        result = loss(zeroed, batch)
        assert result.token_mean == pytest.approx(math.log(TINY.vocab_size), abs=1e-9)

    def test_sharp_correct_logits_drive_loss_to_zero(self):
        model = build_model(TINY, 3)
        batch = random_batch(TINY)
        logits, _ = forward(model, batch)
        # emulate a perfectly confident model via the cross-entropy path
        from fedmt.model import _cross_entropy
        sharp = np.full_like(logits, -1e4)
        b_idx, t_idx = np.indices(batch.tgt_gold.shape)
        sharp[b_idx, t_idx, batch.tgt_gold] = 1e4
        total, count, _ = _cross_entropy(sharp, batch, need_grad=False)
        assert total / count == pytest.approx(0.0, abs=1e-9)

    def test_empty_batch_rejected(self):
        model = build_model(TINY, 3)
        batch = random_batch(TINY)
        empty = Batch(batch.src, batch.src_mask, batch.tgt_in, batch.tgt_gold,
                      np.zeros_like(batch.tgt_mask), np.zeros_like(batch.lengths))
        with pytest.raises(ValueError):
            loss(model, empty)

    def test_out_of_vocab_rejected(self):
        model = build_model(TINY, 3)
        batch = random_batch(TINY)
        bad = Batch(batch.src + TINY.vocab_size, batch.src_mask, batch.tgt_in,
                    batch.tgt_gold, batch.tgt_mask, batch.lengths)
        with pytest.raises(ConfigurationError):
            loss(model, bad)

    def test_matches_naive_reimplementation(self):
        model = build_model(TINY, 11)
        # randomize up-projections so adapters actually act
        rng = np.random.default_rng(5)
        model = model.with_params(model.params.replace_values({
            t.name: rng.normal(0, 0.2, t.values.shape)
            for t in model.params if t.name.endswith("up.weight")
        }))
        batch = random_batch(TINY, seed=9)
        expected = naive_loss(model, batch)
        got = loss(model, batch)
        assert got.total == pytest.approx(expected, rel=1e-6)


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

        t_len = int(batch.lengths[j])
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
        assert loss(model, merged).total == pytest.approx(
            loss(model, b1).total + loss(model, b2).total, rel=1e-9
        )


class TestDecodeGreedy:
    def test_decode_stops_at_eos_and_strips_specials(self):
        model = build_model(TINY, 5)
        batch = random_batch(TINY)
        outs = decode_greedy(model, batch.src, batch.src_mask, bos_id=1, eos_id=2, max_len=6)
        assert len(outs) == batch.size
        for ids in outs:
            assert len(ids) <= 6
            assert 2 not in ids
