"""Oracles for the attention, layer-norm and GELU kernels.

The kernels hold attention scores key-major, take an additive key-major
mask and compute layer-norm row statistics as products with a 1/d vector.
The references here are the straightforward formulas they replaced: scores
query-major with a boolean mask applied by ``np.where``, max and sum along
the last axis, and ``mean``-based layer norm. Both run in float64; the
kernels reorder sums, so they must agree within rtol 1e-10 (atol 0).

Attention also runs in float32 against the float64 reference on the same
inputs. float32 keeps about seven digits, and the large-scores case scales
the rounding of its scores by their magnitude, near 10^3, before the softmax
sees them; so the float32 kernel must agree within rtol 1e-3, with atol 1e-3
times the largest magnitude of the reference array. A wrong layout or a
misplaced product is off by order one.

GELU's forward keeps its derivative instead of its input and tanh; it keeps
every operation of the backward it replaced, so it must match that
backward bitwise, in float32 and float64.
"""

import math

import numpy as np
import pytest

from fedmt.nn import (
    Rows,
    attention_bias,
    attention_bwd,
    attention_fwd,
    gelu_bwd,
    gelu_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    sinusoidal_positions,
)

RTOL = 1e-10
RTOL32 = 1e-3
GELU_C = math.sqrt(2.0 / math.pi)
D, HEADS = 16, 2
PROJECTIONS = ("q", "k", "v", "out")

# ---------------------------------------------------------------------------
# references: the formulas the kernels replaced


def ref_layer_norm_fwd(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def ref_layer_norm_bwd(dy, cache):
    xhat, inv, g = cache
    d = xhat.shape[-1]
    grads = {"weight": (dy * xhat).reshape(-1, d).sum(axis=0),
             "bias": dy.reshape(-1, d).sum(axis=0)}
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), grads


def ref_gelu_fwd(x):
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= x
    t *= GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, (x, t)


def ref_gelu_bwd(dy, cache):
    x, t = cache
    du_dx = x * x
    du_dx *= 3 * 0.044715
    du_dx += 1.0
    du_dx *= GELU_C
    du_dx *= 1.0 - t * t
    du_dx *= x
    du_dx += 1.0 + t
    du_dx *= 0.5
    du_dx *= dy
    return du_dx


def split_heads(rows, x):
    grid = np.zeros((rows.batch * rows.length, x.shape[-1]))
    grid[rows.index] = x
    return grid.reshape(rows.batch, rows.length, HEADS, -1).transpose(0, 2, 1, 3)


def merge_heads(rows, x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b * t, h * dh)[rows.index]


def ref_attention_fwd(q_in, kv_in, p, allowed, q_rows, kv_rows, past=None):
    """``allowed`` is boolean, broadcastable to [B, 1, Tq, Tk]; ``past``
    holds keys and values [B, H, Tp, dh]."""
    q = split_heads(q_rows, q_in @ p["q"][0] + p["q"][1])
    k = split_heads(kv_rows, kv_in @ p["k"][0] + p["k"][1])
    v = split_heads(kv_rows, kv_in @ p["v"][0] + p["v"][1])
    if past is not None:
        k = np.concatenate([past[0], k], axis=2)
        v = np.concatenate([past[1], v], axis=2)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    scores = np.where(allowed, scores, -1e9)
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    attn = exps / exps.sum(axis=-1, keepdims=True)
    ctx = merge_heads(q_rows, attn @ v)
    return ctx @ p["out"][0] + p["out"][1], (q_in, kv_in, ctx, q, k, v, attn, scale)


def ref_attention_bwd(dout, cache, p, q_rows, kv_rows):
    q_in, kv_in, ctx, q, k, v, attn, scale = cache
    grads = {"out.weight": ctx.T @ dout, "out.bias": dout.sum(axis=0)}
    dctx = split_heads(q_rows, dout @ p["out"][0].T)
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True)) * scale
    dq, dk = dscores @ k, dscores.swapaxes(-1, -2) @ q
    d_in = {}
    for proj, rows, x, dy in (("q", q_rows, q_in, dq), ("k", kv_rows, kv_in, dk),
                              ("v", kv_rows, kv_in, dv)):
        dy = merge_heads(rows, dy)
        grads[f"{proj}.weight"] = x.T @ dy
        grads[f"{proj}.bias"] = dy.sum(axis=0)
        d_in[proj] = dy @ p[proj][0].T
    return d_in["q"], d_in["k"] + d_in["v"], grads


# ---------------------------------------------------------------------------
# cases


def attention_params(rng, weight_scale=0.5):
    return {proj: (rng.normal(0, weight_scale, (D, D)), rng.normal(0, 0.1, D))
            for proj in PROJECTIONS}


def ragged(lengths, width):
    return np.arange(width) < np.asarray(lengths)[:, None]


def causal(key_mask, q_len):
    k_len = key_mask.shape[1]
    visible = np.arange(k_len) <= np.arange(k_len - q_len, k_len)[:, None]
    return visible[None, None] & key_mask[:, None, None, :]


def self_attention(rng, weight_scale=0.5):
    """Encoder self-attention over ragged rows; pad query rows are dropped."""
    mask = ragged([7, 3, 5, 1], 7)
    rows = Rows.of(mask)
    x = rng.normal(size=(rows.index.size, D))
    return (x, x, attention_params(rng, weight_scale), rows, rows,
            attention_bias(mask, np.float64), mask[:, None, None, :])


def causal_self_attention(rng):
    mask = ragged([2, 6, 4, 1], 6)
    rows = Rows.of(mask)
    x = rng.normal(size=(rows.index.size, D))
    return (x, x, attention_params(rng), rows, rows,
            attention_bias(mask, np.float64, q_len=6), causal(mask, 6))


def cross_attention(rng):
    q_rows, kv_rows = Rows.of(ragged([2, 6, 4, 1], 6)), Rows.of(ragged([7, 3, 5, 2], 7))
    src_mask = ragged([7, 3, 5, 2], 7)
    q_in = rng.normal(size=(q_rows.index.size, D))
    kv_in = rng.normal(size=(kv_rows.index.size, D))
    return (q_in, kv_in, attention_params(rng), q_rows, kv_rows,
            attention_bias(src_mask, np.float64), src_mask[:, None, None, :])


ATTENTION_CASES = {
    "ragged-self": self_attention,
    "causal-self": causal_self_attention,
    "cross": cross_attention,
    # weights large enough that scores reach hundreds: -1e9 + s no longer
    # rounds to -1e9, and the softmax saturates
    "large-scores": lambda rng: self_attention(rng, weight_scale=4.0),
}


def is_key_bias(name):
    """Softmax ignores a shift shared by all of a query's scores, so the
    key-bias gradient is zero in exact arithmetic: each path returns only
    its own rounding noise."""
    return name == "k.bias"


def assert_matches(got, want, err_msg=""):
    """The stated tolerance of ``got``'s dtype against a float64 reference."""
    if got.dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0, err_msg=err_msg)
    else:
        np.testing.assert_allclose(got, want, rtol=RTOL32, atol=RTOL32 * np.abs(want).max(),
                                   err_msg=err_msg)


def check_attention(case, dtype):
    rng = np.random.default_rng(7)
    q_in, kv_in, p, q_rows, kv_rows, bias, allowed = ATTENTION_CASES[case](rng)
    # the kernel runs in ``dtype``; the reference in float64 on the same values
    q_in, kv_in, bias = q_in.astype(dtype), kv_in.astype(dtype), bias.astype(dtype)
    p = {proj: tuple(a.astype(dtype) for a in p[proj]) for proj in PROJECTIONS}
    ref_p = {proj: tuple(a.astype(np.float64) for a in p[proj]) for proj in PROJECTIONS}
    named = {proj: (*p[proj], f"attn.{proj}") for proj in PROJECTIONS}
    out, cache = attention_fwd(q_in, kv_in, named, bias, HEADS, q_rows, kv_rows)
    ref_out, ref_cache = ref_attention_fwd(q_in.astype(np.float64), kv_in.astype(np.float64),
                                           ref_p, allowed, q_rows, kv_rows)
    assert out.dtype == dtype
    assert_matches(out, ref_out)

    dout = rng.normal(size=out.shape).astype(dtype)
    grads = {}
    dq_in, dkv_in = attention_bwd(dout, cache, grads)
    ref_dq, ref_dkv, ref_grads = ref_attention_bwd(dout.astype(np.float64), ref_cache, ref_p,
                                                   q_rows, kv_rows)
    for got in (out, dq_in, dkv_in, *grads.values()):
        assert got.dtype == dtype and np.all(np.isfinite(got))
    assert_matches(dq_in, ref_dq)
    assert_matches(dkv_in, ref_dkv)
    assert sorted(grads) == sorted(f"attn.{name}" for name in ref_grads)
    # the key-bias gradient is rounding noise at the scale of the key gradients
    noise = 1e-12 if dtype == np.float64 else RTOL32 * np.abs(ref_grads["k.weight"]).max()
    for name, want in ref_grads.items():
        if is_key_bias(name):
            np.testing.assert_allclose(grads[f"attn.{name}"], 0.0, atol=noise)
            np.testing.assert_allclose(want, 0.0, atol=1e-12)
        else:
            assert_matches(grads[f"attn.{name}"], want, err_msg=name)


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_matches_the_query_major_reference(case):
    check_attention(case, np.float64)


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_float32_attention_matches_the_float64_reference(case):
    check_attention(case, np.float32)


def test_large_scores_do_reach_the_masked_range():
    """The large-scores case is what it claims: scores beyond 32 in
    magnitude, where adding -1e9 no longer rounds to -1e9 in float32."""
    q_in, _, p, rows, _, _, _ = ATTENTION_CASES["large-scores"](np.random.default_rng(7))
    q = split_heads(rows, q_in @ p["q"][0] + p["q"][1])
    k = split_heads(rows, q_in @ p["k"][0] + p["k"][1])
    scores = (q @ k.swapaxes(-1, -2)) / math.sqrt(D // HEADS)
    assert np.abs(scores).max() > 32
    assert np.float32(-1e9) + np.float32(np.abs(scores).max()) != np.float32(-1e9)


def test_kv_cached_step_matches_the_reference():
    """One decoder step: a single new query per row attends to four cached
    positions plus its own; the cache comes back with the new key appended."""
    rng = np.random.default_rng(3)
    bsz, past_len, dh = 3, 4, D // HEADS
    p = attention_params(rng)
    past_k, past_v = rng.normal(size=(2, bsz, HEADS, past_len, dh))
    rows = Rows.of(np.ones((bsz, 1), bool))
    x = rng.normal(size=(bsz, D))
    key_mask = np.ones((bsz, past_len + 1), bool)
    out, cache = attention_fwd(x, x, p, attention_bias(key_mask, np.float64, q_len=1), HEADS,
                               rows, rows, (past_k, past_v))
    ref_out, ref_cache = ref_attention_fwd(x, x, p, causal(key_mask, 1), rows, rows,
                                           (past_k, past_v))
    np.testing.assert_allclose(out, ref_out, rtol=RTOL, atol=0)
    np.testing.assert_array_equal(cache.k, ref_cache[4])
    np.testing.assert_array_equal(cache.v, ref_cache[5])


@pytest.mark.parametrize("shape", [(37, D)])
def test_layer_norm_matches_the_mean_based_reference(shape):
    rng = np.random.default_rng(5)
    x = rng.normal(1.0, 3.0, size=shape)
    g, b = rng.normal(1.0, 0.2, D), rng.normal(0.0, 0.2, D)
    y, cache = layer_norm_fwd(x, g, b, "ln")
    ref_y, ref_cache = ref_layer_norm_fwd(x, g, b)
    np.testing.assert_allclose(y, ref_y, rtol=RTOL, atol=0)
    dy = rng.normal(size=shape)
    grads = {}
    dx = layer_norm_bwd(dy, cache, grads)
    ref_dx, ref_grads = ref_layer_norm_bwd(dy, ref_cache)
    np.testing.assert_allclose(dx, ref_dx, rtol=RTOL, atol=0)
    for name, want in ref_grads.items():
        np.testing.assert_allclose(grads[f"ln.{name}"], want, rtol=RTOL, atol=0, err_msg=name)


def test_position_table_is_built_once_and_read_only():
    table = sinusoidal_positions(24, 16, np.float32)
    assert sinusoidal_positions(24, 16, np.float32) is table
    np.testing.assert_array_equal(table, sinusoidal_positions.__wrapped__(24, 16, np.float32))
    assert table.dtype == np.float32
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_matches_the_input_and_tanh_reference_bitwise(dtype):
    rng = np.random.default_rng(6)
    edges = [0.0, 1e-4, -1e-4, 3.0, -3.0, 12.0, -12.0]  # 12: tanh saturates
    x = np.concatenate([edges, rng.normal(0.0, 2.0, size=37 * 8 - len(edges))])
    x = x.astype(dtype).reshape(37, 8)
    dy = rng.normal(size=x.shape).astype(dtype)
    out, cache = gelu_fwd(x)
    ref_out, ref_cache = ref_gelu_fwd(x)
    assert out.dtype == dtype and np.array_equal(out, ref_out)
    dx = gelu_bwd(dy, cache)
    assert dx.dtype == dtype and np.array_equal(dx, ref_gelu_bwd(dy, ref_cache))
    inference_out, no_cache = gelu_fwd(x, keep=False)
    assert no_cache is None and np.array_equal(inference_out, ref_out)
