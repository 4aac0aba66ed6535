"""Dense-layer primitives with explicit forward/backward passes.

Each ``*_fwd`` returns ``(output, cache)``; the matching ``*_bwd`` takes the
upstream gradient plus the cache and returns input gradients and, where the
layer has parameters, a dict of parameter gradients keyed by local name
(``"q.weight"``, ``"bias"``, ...). Callers prefix these keys to full tensor
paths. Gradient computation for a parameter can be skipped by passing a
``want`` predicate that returns False for its key.

The model passes packed rows [N, d] of real tokens. Position-wise primitives
do not care; attention takes each input's ``Rows`` and places the rows on
the padded [B, T] grid only around its score, softmax and context products.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

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
# packed rows and multi-head attention


class Rows(NamedTuple):
    """Where packed rows sit in a [batch, length] grid: ``index`` holds the
    flat position b * length + t of every real token, in row-major order."""

    index: np.ndarray
    batch: int
    length: int

    @classmethod
    def of(cls, mask: np.ndarray) -> "Rows":
        """The real positions of a [batch, length] boolean mask."""
        return cls(np.flatnonzero(mask), *mask.shape)

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """Packed rows [N, d] onto the grid [batch, length, d], zero at pads."""
        grid = np.zeros((self.batch * self.length, x.shape[-1]), dtype=x.dtype)
        grid[self.index] = x
        return grid.reshape(self.batch, self.length, -1)

    def gather(self, grid: np.ndarray) -> np.ndarray:
        """The packed rows [N, d] of a grid [batch, length, d]."""
        return grid.reshape(self.batch * self.length, -1)[self.index]


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, s, d = x.shape
    return x.reshape(b, s, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


class AttentionCache(NamedTuple):
    q_lin: tuple
    k_lin: tuple | None  # None when every key came from ``past``
    v_lin: tuple | None
    out_lin: tuple
    q: np.ndarray  # [B, H, Tq, dh]
    k: np.ndarray  # [B, H, Tk, dh], past keys included
    v: np.ndarray
    attn: np.ndarray
    scale: float
    q_rows: Rows
    kv_rows: Rows | None


def attention_fwd(
    q_in: np.ndarray,
    kv_in: np.ndarray | None,
    p: dict[str, tuple[np.ndarray, np.ndarray]],
    mask: np.ndarray,
    num_heads: int,
    q_rows: Rows,
    kv_rows: Rows | None,
    past: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Multi-head attention over packed rows.

    ``q_in`` [Nq, d] and ``kv_in`` [Nk, d] are the real rows of the query
    and key grids, placed by ``q_rows`` and ``kv_rows``. The projections run
    on the packed rows; only the score, softmax and context products run on
    the grid. ``mask`` is boolean, True where keys may be attended,
    broadcastable to [B, 1, Tq, Tk]. ``past`` holds head-split keys and
    values [B, H, Tp, dh] of earlier positions, placed before the keys of
    ``kv_in``; ``kv_in`` may then be None. The cache's ``k`` and ``v`` hold
    every key and value, ``past`` included.
    """
    q_flat, q_cache = linear_fwd(q_in, *p["q"])
    q = _split_heads(q_rows.scatter(q_flat), num_heads)
    k_cache = v_cache = None
    if kv_in is None:
        k, v = past
    else:
        k_flat, k_cache = linear_fwd(kv_in, *p["k"])
        v_flat, v_cache = linear_fwd(kv_in, *p["v"])
        k = _split_heads(kv_rows.scatter(k_flat), num_heads)
        v = _split_heads(kv_rows.scatter(v_flat), num_heads)
        if past is not None:
            k = np.concatenate([past[0], k], axis=2)
            v = np.concatenate([past[1], v], axis=2)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    scores = np.where(mask, scores, _NEG_INF)
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    attn = exps / exps.sum(axis=-1, keepdims=True)
    ctx = q_rows.gather(_merge_heads(attn @ v))
    out, o_cache = linear_fwd(ctx, *p["out"])
    return out, AttentionCache(q_cache, k_cache, v_cache, o_cache, q, k, v, attn, scale,
                               q_rows, kv_rows)


def attention_bwd(dout: np.ndarray, cache: AttentionCache, key: str, grads: dict,
                  want: WantFn = _want_all):
    """Gradients of the packed query and key rows; ``past`` is not supported."""
    c = cache
    dctx = linear_bwd(dout, c.out_lin, f"{key}.out", grads, want)
    dctx = _split_heads(c.q_rows.scatter(dctx), c.q.shape[1])
    dattn = dctx @ c.v.swapaxes(-1, -2)
    dv = c.attn.swapaxes(-1, -2) @ dctx
    # softmax backward; masked entries have attn == 0, so their gradient vanishes
    dscores = c.attn * (dattn - (dattn * c.attn).sum(axis=-1, keepdims=True))
    dscores *= c.scale
    dq = dscores @ c.k
    dk = dscores.swapaxes(-1, -2) @ c.q
    dq_in = linear_bwd(c.q_rows.gather(_merge_heads(dq)), c.q_lin, f"{key}.q", grads, want)
    dkv_in = linear_bwd(c.kv_rows.gather(_merge_heads(dk)), c.k_lin, f"{key}.k", grads, want)
    dkv_in += linear_bwd(c.kv_rows.gather(_merge_heads(dv)), c.v_lin, f"{key}.v", grads, want)
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
