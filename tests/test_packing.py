"""Oracles for the packed-row model and the KV-cached greedy decoder.

The model runs every position-wise op on the real tokens only and decodes
one new position per step from a KV cache. The references here do neither:
a padded forward/backward that runs every op on the whole [B, T] grid, and a
greedy loop that re-runs ``decode_logits`` over the full prefix each step.
"""

import math

import numpy as np
import pytest

from fedmt.data import DataConfig, build_vocab, make_batch
from fedmt.federation import train_epochs
from fedmt.model import (
    ATTN_PROJECTIONS,
    DECODER_SUBLAYERS,
    ENCODER_SUBLAYERS,
    Batch,
    ModelConfig,
    build_model,
    decode_greedy,
    decode_logits,
    encode,
    grad,
    merge_batches,
)
from fedmt.nn import (
    Rows,
    adapter_bwd,
    adapter_fwd,
    attention_bias,
    attention_bwd,
    attention_fwd,
    gelu_bwd,
    gelu_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    linear_bwd,
    linear_fwd,
    sinusoidal_positions,
)
from fedmt.presets import make_clients

from test_grad import by_name

CONFIG = ModelConfig(vocab_size=29, model_dim=16, num_heads=2, ffn_dim=32,
                     enc_layers=3, dec_layers=3, adapter_bottleneck=4,
                     max_seq_len=16, dtype="float64")


def ragged_batch(config, seed):
    """Four rows of different lengths; pad slots hold random ids, so a pad
    that leaks into the result changes it."""
    rng = np.random.default_rng(seed)
    src_len, tgt_len = np.array([9, 3, 6, 1]), np.array([2, 8, 5, 1])
    src_mask = np.arange(9) < src_len[:, None]
    tgt_mask = np.arange(8) < tgt_len[:, None]
    src = rng.integers(3, config.vocab_size, size=src_mask.shape)
    tgt_in = rng.integers(3, config.vocab_size, size=tgt_mask.shape)
    tgt_in[:, 0] = 1
    tgt_gold = rng.integers(3, config.vocab_size, size=tgt_mask.shape)
    return Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask)


def with_random_adapters(model, seed=1):
    rng = np.random.default_rng(seed)
    return model.with_params(model.params.replace_values({
        name: rng.normal(0, 0.3, model.params.values(name).shape)
        for name in model.params.names if "_adapter." in name
    }))


# ---------------------------------------------------------------------------
# padded reference: every op on every grid position, pads included


def padded_loss_and_grads(model, batch):
    """Summed loss and the gradient of every tensor, computed on the padded
    grid: pad keys are masked in attention and pad positions in the loss."""
    cfg, p = model.config, model.params
    emb = p.values("emb.token.weight")
    pos = sinusoidal_positions(cfg.max_seq_len, cfg.model_dim, np.float64)
    scale = math.sqrt(cfg.model_dim)
    named = lambda key, name: (p.values(f"{key}.{name}.weight"), p.values(f"{key}.{name}.bias"),
                               f"{key}.{name}")

    def sublayers(stack, layers, table):
        return [(f"{stack}.layer{i}", ln, block, f"{stack}.layer{i}.{slot}_adapter")
                for i in range(layers) for ln, block, slot in table]

    def stack_fwd(stack, layers, table, ids, self_mask, memory=None):
        bsz, length = ids.shape
        rows = Rows(np.arange(bsz * length), bsz, length)
        x = (emb[ids] * scale + pos[:length]).reshape(bsz * length, -1)
        caches = []
        for layer, ln, block, adapter in sublayers(stack, layers, table):
            h, ln_c = layer_norm_fwd(x, *named(layer, ln))
            key = f"{layer}.{block}"
            if block == "ffn":
                h1, c1 = linear_fwd(h, *named(key, "fc1"))
                a, ca = gelu_fwd(h1)
                out, c2 = linear_fwd(a, *named(key, "fc2"))
                block_c = (c1, ca, c2)
            else:
                attn_p = {proj: named(key, proj) for proj in ATTN_PROJECTIONS}
                kv, kv_rows, mask = (h, rows, self_mask) if block == "self_attn" else memory
                out, block_c = attention_fwd(h, kv, attn_p, mask, cfg.num_heads, rows, kv_rows)
            x = x + out
            ad_c = None
            if f"{adapter}.down.weight" in p:  # a pruned site holds no tensors
                ad_p = {name: named(adapter, name) for name in ("down", "up")}
                x, ad_c = adapter_fwd(x, ad_p, cfg.adapter_nonlinearity)
            caches.append((ln_c, block_c, ad_c))
        out, final_c = layer_norm_fwd(x, *named(stack, "final_ln"))
        return out, rows, caches, final_c

    def stack_bwd(stack, layers, table, dout, caches, final_c, grads, d_memory=None):
        dx = layer_norm_bwd(dout, final_c, grads)
        for (_, _, block, _), (ln_c, block_c, ad_c) in zip(
                reversed(sublayers(stack, layers, table)), reversed(caches)):
            if ad_c is not None:
                dx = adapter_bwd(dx, ad_c, grads)
            if block == "ffn":
                c1, ca, c2 = block_c
                dh = linear_bwd(gelu_bwd(linear_bwd(dx, c2, grads), ca), c1, grads)
            else:
                dq, dkv = attention_bwd(dx, block_c, grads)
                if block == "self_attn":
                    dh = dq + dkv
                else:
                    d_memory += dkv
                    dh = dq
            dx = dx + layer_norm_bwd(dh, ln_c, grads)
        return dx

    grads = {}
    src_bias = attention_bias(batch.src_mask, np.float64)
    enc_out, enc_rows, enc_caches, enc_final = stack_fwd(
        "enc", cfg.enc_layers, ENCODER_SUBLAYERS, batch.src, src_bias)
    tgt_bias = attention_bias(batch.tgt_mask, np.float64, q_len=batch.tgt_in.shape[1])
    dec_out, _, dec_caches, dec_final = stack_fwd(
        "dec", cfg.dec_layers, DECODER_SUBLAYERS, batch.tgt_in, tgt_bias,
        (enc_out, enc_rows, src_bias))

    logits = dec_out @ emb.T
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    gold = batch.tgt_gold.reshape(-1)
    real = batch.tgt_mask.reshape(-1)
    everywhere = np.arange(gold.size)
    total = -(np.log(probs[everywhere, gold]) * real).sum()
    dlogits = probs.copy()
    dlogits[everywhere, gold] -= 1.0
    dlogits *= real[:, None]

    d_enc_out = np.zeros_like(enc_out)
    dy = stack_bwd("dec", cfg.dec_layers, DECODER_SUBLAYERS, dlogits @ emb, dec_caches,
                   dec_final, grads, d_enc_out)
    dx = stack_bwd("enc", cfg.enc_layers, ENCODER_SUBLAYERS, d_enc_out, enc_caches,
                   enc_final, grads)
    d_emb = dlogits.T @ dec_out
    np.add.at(d_emb, batch.tgt_in.reshape(-1), dy * scale)
    np.add.at(d_emb, batch.src.reshape(-1), dx * scale)
    grads["emb.token.weight"] = d_emb
    return total, grads


def adapter_model(nonlinearity="relu", seed=11, adapters="all"):
    config = ModelConfig(**{**CONFIG.__dict__, "adapter_nonlinearity": nonlinearity})
    return with_random_adapters(build_model(config, seed, adapters))


# case -> (model, the tensors whose gradients are taken)
PACKING_CASES = {
    "relu-adapters": lambda: trained_tensors(adapter_model("relu")),
    "gelu-adapters": lambda: trained_tensors(adapter_model("gelu")),
    "pruning-middle": lambda: trained_tensors(adapter_model("relu", adapters="middle")),
    "fully-trainable": lambda: every_tensor(with_random_adapters(build_model(CONFIG, 5))),
}


def trained_tensors(model):
    return model, model.trainable_names()


def every_tensor(model):
    return model, model.params.names


def is_key_bias(name):
    """Attention key biases: softmax ignores a shift of a query's scores
    shared by every key, so their gradient is zero in exact arithmetic and
    each path returns only its own rounding noise."""
    return name.endswith("attn.k.bias")


@pytest.mark.parametrize("case", sorted(PACKING_CASES))
def test_packed_loss_and_gradients_match_the_padded_grid(case):
    model, needed = PACKING_CASES[case]()
    batch = ragged_batch(model.config, seed=3)
    summed, vector = grad(model, batch, needed)
    total, expected = padded_loss_and_grads(model, batch)
    assert summed == pytest.approx(total, rel=1e-10)
    for name, g in by_name(model, needed, vector).items():
        if is_key_bias(name):
            np.testing.assert_allclose(g, 0.0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(expected[name], 0.0, atol=1e-12, err_msg=name)
        else:
            np.testing.assert_allclose(g, expected[name], rtol=1e-10, err_msg=name)


# ---------------------------------------------------------------------------
# KV-cached greedy decoding against the full-prefix recompute


def full_prefix_greedy(model, src, src_mask, bos_id, eos_id, max_len):
    """Greedy decoding that re-runs the decoder over the whole prefix at
    every step and reads the newest position's logits."""
    bsz = src.shape[0]
    enc_out, _ = encode(model, src, src_mask, lambda _: True)
    tgt = np.full((bsz, 1), bos_id, dtype=src.dtype)
    finished = np.zeros(bsz, dtype=bool)
    outputs = [[] for _ in range(bsz)]
    for _ in range(max_len):
        logits, _ = decode_logits(model, enc_out, src_mask, tgt, np.ones_like(tgt, dtype=bool),
                                  lambda _: True)
        nxt = logits.reshape(bsz, tgt.shape[1], -1)[:, -1].argmax(axis=-1).astype(src.dtype)
        for j in range(bsz):
            if not finished[j]:
                if nxt[j] == eos_id:
                    finished[j] = True
                else:
                    outputs[j].append(int(nxt[j]))
        if finished.all():
            break
        tgt = np.concatenate([tgt, nxt[:, None]], axis=1)
    return outputs


def test_kv_cached_decoding_matches_the_full_prefix_recompute():
    languages, clients = make_clients("m2m", 2, DataConfig(scale=1 / 64, length_range=(4, 10)))
    vocab = build_vocab(languages)
    config = ModelConfig(vocab_size=len(vocab), model_dim=32, num_heads=4, ffn_dim=64,
                         enc_layers=2, dec_layers=2, max_seq_len=24, dtype="float64")
    # a few epochs of backbone training, so that decodes stop at EOS, then
    # one of adapter training on it, so that decodes run through adapters
    # that act (their up-projections start at zero)
    corpus = merge_batches([make_batch([(c.data.train, c.tgt.code)], vocab) for c in clients])
    backbone, _ = train_epochs(build_model(config, 4, adapters=None), corpus,
                               [1, 2, 3], 8, 1, 1e-2)
    model, _ = train_epochs(build_model(config, 4, backbone=backbone.params), corpus,
                            [4], 8, 1, 1e-2)
    assert all(np.abs(model.params.values(name)).max() > 0.01
               for name in model.params.names if "_adapter.up.weight" in name)
    lengths = []
    for client in clients:
        batch = make_batch([(client.data.test, client.tgt.code)], vocab)
        got = decode_greedy(model, batch.src, batch.src_mask, bos_id=1, eos_id=2, max_len=14)
        want = full_prefix_greedy(model, batch.src, batch.src_mask, 1, 2, 14)
        assert got == want, client.id
        lengths.extend(len(ids) for ids in got)
    # the decodes are not trivial: some stop early, some run to the cap
    assert min(lengths) < 14 and max(lengths) == 14
