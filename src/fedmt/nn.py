"""Dense-layer primitives with explicit forward/backward passes.

Each ``*_fwd`` returns ``(output, cache)``; the matching ``*_bwd`` takes the
upstream gradient plus the cache and returns input gradients and, where the
layer has parameters, a dict of parameter gradients keyed by local name
(``"q.weight"``, ``"bias"``, ...). Callers prefix these keys to full tensor
paths. Gradient computation for a parameter can be skipped by passing a
``want`` predicate that returns False for its key.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_NEG_INF = -1e9

WantFn = Callable[[str], bool]


def _want_all(_: str) -> bool:
    return True


# ---------------------------------------------------------------------------
# linear / activations / layer norm


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    y = x @ w
    y += b
    return y, (x, w)


def linear_bwd(dy: np.ndarray, cache, key: str, grads: dict, want: WantFn = _want_all):
    x, w = cache
    dx = dy @ w.T
    if want(f"{key}.weight"):
        x2 = x.reshape(-1, x.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        grads[f"{key}.weight"] = x2.T @ dy2
    if want(f"{key}.bias"):
        grads[f"{key}.bias"] = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    return dx


def relu_fwd(x: np.ndarray):
    return np.maximum(x, 0.0), (x > 0.0)


def relu_bwd(dy: np.ndarray, cache) -> np.ndarray:
    return dy * cache


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_fwd(x: np.ndarray):
    # tanh approximation; smooth everywhere, which keeps finite-difference
    # checks meaningful. Written with in-place ops: these arrays are the
    # per-batch hot path and extra temporaries blow the cache.
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, (x, t)


def gelu_bwd(dy: np.ndarray, cache) -> np.ndarray:
    x, t = cache
    du_dx = x * x
    du_dx *= 3 * 0.044715
    du_dx += 1.0
    du_dx *= _GELU_C
    du_dx *= 1.0 - t * t
    du_dx *= x
    du_dx += 1.0 + t
    du_dx *= 0.5
    du_dx *= dy
    return du_dx


ACTIVATIONS = {"relu": (relu_fwd, relu_bwd), "gelu": (gelu_fwd, gelu_bwd)}


def layer_norm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_bwd(dy: np.ndarray, cache, key: str, grads: dict, want: WantFn = _want_all):
    xhat, inv, g = cache
    if want(f"{key}.weight"):
        grads[f"{key}.weight"] = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    if want(f"{key}.bias"):
        grads[f"{key}.bias"] = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


# ---------------------------------------------------------------------------
# multi-head attention


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, s, d = x.shape
    return x.reshape(b, s, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def attention_fwd(
    q_in: np.ndarray,
    kv_in: np.ndarray,
    p: dict[str, tuple[np.ndarray, np.ndarray]],
    mask: np.ndarray,
    num_heads: int,
):
    """Multi-head attention; ``mask`` is boolean, True where keys may be attended,
    broadcastable to [B, 1, Sq, Sk]."""
    q_flat, q_cache = linear_fwd(q_in, *p["q"])
    k_flat, k_cache = linear_fwd(kv_in, *p["k"])
    v_flat, v_cache = linear_fwd(kv_in, *p["v"])
    q = _split_heads(q_flat, num_heads)
    k = _split_heads(k_flat, num_heads)
    v = _split_heads(v_flat, num_heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    scores = np.where(mask, scores, _NEG_INF)
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    attn = exps / exps.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(attn @ v)
    out, o_cache = linear_fwd(ctx, *p["out"])
    cache = (q_cache, k_cache, v_cache, o_cache, q, k, v, attn, scale, num_heads)
    return out, cache


def attention_bwd(dout: np.ndarray, cache, key: str, grads: dict, want: WantFn = _want_all):
    q_cache, k_cache, v_cache, o_cache, q, k, v, attn, scale, num_heads = cache
    dctx = linear_bwd(dout, o_cache, f"{key}.out", grads, want)
    dctx = _split_heads(dctx, num_heads)
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    # softmax backward; masked entries have attn == 0, so their gradient vanishes
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores *= scale
    dq = dscores @ k
    dk = dscores.swapaxes(-1, -2) @ q
    dq_in = linear_bwd(_merge_heads(dq), q_cache, f"{key}.q", grads, want)
    dkv_in = linear_bwd(_merge_heads(dk), k_cache, f"{key}.k", grads, want)
    dkv_in += linear_bwd(_merge_heads(dv), v_cache, f"{key}.v", grads, want)
    return dq_in, dkv_in


# ---------------------------------------------------------------------------
# bottleneck adapter


def adapter_fwd(h: np.ndarray, p: dict[str, tuple[np.ndarray, np.ndarray]], nonlinearity: str):
    """Residual bottleneck h + up(act(down(h))); the model skips pruned adapters."""
    act_fwd, _ = ACTIVATIONS[nonlinearity]
    z, down_cache = linear_fwd(h, *p["down"])
    a, act_cache = act_fwd(z)
    delta, up_cache = linear_fwd(a, *p["up"])
    return h + delta, (down_cache, act_cache, up_cache, nonlinearity)


def adapter_bwd(dout: np.ndarray, cache, key: str, grads: dict, want: WantFn = _want_all):
    down_cache, act_cache, up_cache, nonlinearity = cache
    _, act_bwd = ACTIVATIONS[nonlinearity]
    da = linear_bwd(dout, up_cache, f"{key}.up", grads, want)
    dz = act_bwd(da, act_cache)
    dh = linear_bwd(dz, down_cache, f"{key}.down", grads, want)
    return dout + dh


# ---------------------------------------------------------------------------
# positional encoding


def sinusoidal_positions(max_len: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed sinusoidal position table [max_len, dim]; never trained."""
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    angles = positions * freqs[None, :]
    table = np.zeros((max_len, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim - half])
    return table.astype(dtype)
