"""Dense-layer primitives with explicit forward/backward passes.

Each ``*_fwd`` returns ``(output, cache)``; the matching ``*_bwd(dy, cache,
grads)`` returns only input gradients. A layer with parameters (a linear map
or a layer norm) arrives as ``(weight, bias, name)``: ``name`` is its tensor
path (``"enc.layer0.ffn.fc1"``) when this pass computes its gradients, and
None when it does not. The forward records the name in its cache, and the
backward writes ``f"{name}.weight"`` and ``f"{name}.bias"`` into ``grads``
exactly when it is set. A plain ``(weight, bias)`` pair is a frozen layer.

So the forward alone decides what a pass computes: a linear keeps its
input, which only its weight gradient reads, only when it is named. An
activation's ``keep`` flag says whether a backward will run: GELU then
keeps its derivative, ReLU its mask; without it they keep nothing.

The model passes packed rows [N, d] of real tokens, and the linear and
layer-norm backward passes take exactly these 2-D rows. Attention takes
each input's ``Rows`` and places the rows on the padded [B, T] grid only
around its score, softmax and context products.
It holds queries, keys and values alike, as head-major views [B, H, T, dh]
of that grid, and its softmax weights key-major, [Tk, B, H, Tq].
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

_NEG_INF = -1e9


# ---------------------------------------------------------------------------
# linear / activations / layer norm


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray, name: str | None = None):
    y = x @ w
    y += b
    return y, (x if name is not None else None, w, name)


def linear_bwd(dy: np.ndarray, cache, grads: dict):
    x, w, name = cache
    dx = dy @ w.T
    if name is not None:
        grads[f"{name}.weight"] = x.T @ dy
        grads[f"{name}.bias"] = dy.sum(axis=0)
    return dx


def relu_fwd(x: np.ndarray, keep: bool = True):
    return np.maximum(x, 0.0), (x > 0.0) if keep else None


def relu_bwd(dy: np.ndarray, cache) -> np.ndarray:
    return dy * cache


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_fwd(x: np.ndarray, keep: bool = True):
    """tanh-approximated GELU (smooth, so finite-difference checks stay
    meaningful), written in place: this is the per-batch hot path. With
    ``keep`` the cache is the derivative 0.5·(x·C(1 + 3a·x²)(1 − t²) + 1 + t),
    so the backward is one product, written into the cache; without ``keep``
    the tanh buffer becomes the output. Tests pin the operation order bitwise."""
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0 if keep else np.add(t, 1.0, out=t)
    deriv = None
    if keep:
        deriv = x * x
        deriv *= 3 * 0.044715
        deriv += 1.0
        deriv *= _GELU_C
        t *= t
        deriv *= np.subtract(1.0, t, out=t)
        deriv *= x
        deriv += out  # still 1 + t
        deriv *= 0.5
    out *= x
    out *= 0.5
    return out, deriv


def gelu_bwd(dy: np.ndarray, cache) -> np.ndarray:
    return np.multiply(cache, dy, out=cache)


ACTIVATIONS = {"relu": (relu_fwd, relu_bwd), "gelu": (gelu_fwd, gelu_bwd)}


LAYER_NORM_EPS = 1e-5


def layer_norm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray, name: str | None = None):
    # Row statistics as products with a 1/d vector: a gemv reduces the short
    # feature axis far faster than ``mean(axis=-1)``.
    avg = np.full(x.shape[-1], 1.0 / x.shape[-1], dtype=x.dtype)
    xhat = x - (x @ avg)[..., None]
    inv = 1.0 / np.sqrt((xhat * xhat) @ avg + LAYER_NORM_EPS)
    xhat *= inv[..., None]
    y = xhat * g
    y += b
    return y, (xhat, inv, g, name)


def layer_norm_bwd(dy: np.ndarray, cache, grads: dict):
    xhat, inv, g, name = cache
    d = xhat.shape[-1]
    dy_xhat = dy * xhat
    if name is not None:
        grads[f"{name}.weight"] = dy_xhat.sum(axis=0)
        grads[f"{name}.bias"] = dy.sum(axis=0)
    # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = dy * g
    g_avg = g / d
    m1, m2 = dy @ g_avg, dy_xhat @ g_avg
    dx = dy * g
    dx -= m1[..., None]
    dx -= np.multiply(xhat, m2[..., None], out=dy_xhat)
    dx *= inv[..., None]
    return dx


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

    def heads(self, x: np.ndarray, num_heads: int) -> np.ndarray:
        """Packed rows [N, H * dh] as a head-major view [batch, H, length, dh]
        of a zero grid [batch, length, H, dh]."""
        grid = np.zeros((self.batch * self.length, x.shape[-1]), dtype=x.dtype)
        grid[self.index] = x
        return grid.reshape(self.batch, self.length, num_heads, -1).transpose(0, 2, 1, 3)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The packed rows [N, H * dh] of the head-major product ``a @ b``
        [batch, H, length, dh], written straight into the row layout."""
        grid = np.empty((self.batch, self.length, a.shape[1], b.shape[-1]), dtype=b.dtype)
        np.matmul(a, b, out=grid.transpose(0, 2, 1, 3))
        return grid.reshape(self.batch * self.length, -1)[self.index]


def attention_bias(key_mask: np.ndarray, dtype, q_len: int | None = None) -> np.ndarray:
    """The additive mask ``attention_fwd`` takes: 0 where a key may be
    attended and -1e9 where not, key-major.

    ``key_mask`` [B, Tk] is True at real keys; the bias is [Tk, B, 1, 1].
    With ``q_len`` the queries are the last ``q_len`` positions of the key
    sequence and each sees only keys up to its own (causal): [Tk, B, 1, Tq].
    """
    allowed = key_mask.T[:, :, None, None]
    if q_len is not None:
        k_len = key_mask.shape[1]
        causal = np.arange(k_len)[:, None] <= np.arange(k_len - q_len, k_len)
        allowed = allowed & causal[:, None, None, :]
    return np.where(allowed, 0.0, _NEG_INF).astype(dtype)


class AttentionCache(NamedTuple):
    q_lin: tuple
    k_lin: tuple | None  # None when every key came from ``past``
    v_lin: tuple | None
    out_lin: tuple
    q: np.ndarray  # scaled queries [B, H, Tq, dh]
    k: np.ndarray  # keys [B, H, Tk, dh], past keys included
    v: np.ndarray  # values [B, H, Tk, dh], past values included
    attn: np.ndarray  # key-major softmax weights [Tk, B, H, Tq]
    scale: float
    q_rows: Rows
    kv_rows: Rows | None


def attention_fwd(
    q_in: np.ndarray,
    kv_in: np.ndarray | None,
    p: dict[str, tuple],
    bias: np.ndarray,
    num_heads: int,
    q_rows: Rows,
    kv_rows: Rows | None,
    past: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Multi-head attention over packed rows.

    ``q_in`` [Nq, d] and ``kv_in`` [Nk, d] are the real rows of the query
    and key grids, placed by ``q_rows`` and ``kv_rows``. The projections run
    on the packed rows; only the score, softmax and context products run on
    the grid. ``bias`` is the additive key-major mask of
    :func:`attention_bias`, broadcastable to [Tk, B, 1, Tq]. ``past`` holds
    the keys and the values [B, H, Tp, dh] of earlier positions, placed
    before those of ``kv_in``; ``kv_in`` may then be None. The cache's ``k``
    and ``v`` hold every key and value, ``past`` included. ``p`` maps each
    projection (``q``, ``k``, ``v``, ``out``) to its ``(weight, bias[, name])``.

    The softmax weights are held key-major, so its max and sum reduce over
    the leading axis, vectorised across batch, heads and queries. The scores
    and their gradient are written straight into that layout as key-major
    products ``k @ q^T`` and ``v @ dctx^T``.
    """
    q_flat, q_cache = linear_fwd(q_in, *p["q"])
    scale = 1.0 / math.sqrt(q_flat.shape[-1] // num_heads)
    q_flat *= scale  # scaled here, on [Nq, d] rather than on the scores
    q = q_rows.heads(q_flat, num_heads)
    k_cache = v_cache = None
    if kv_in is None:
        k, v = past
    else:
        k_flat, k_cache = linear_fwd(kv_in, *p["k"])
        v_flat, v_cache = linear_fwd(kv_in, *p["v"])
        k = kv_rows.heads(k_flat, num_heads)
        v = kv_rows.heads(v_flat, num_heads)
        if past is not None:
            k = np.concatenate([past[0], k], axis=2)
            v = np.concatenate([past[1], v], axis=2)
    b, h, q_len, _ = q.shape
    attn = np.empty((k.shape[2], b, h, q_len), dtype=q.dtype)
    np.matmul(k, q.swapaxes(-1, -2), out=attn.transpose(1, 2, 0, 3))
    attn += bias
    attn -= attn.max(axis=0)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=0)
    ctx = q_rows.matmul(attn.transpose(1, 2, 3, 0), v)
    out, o_cache = linear_fwd(ctx, *p["out"])
    return out, AttentionCache(q_cache, k_cache, v_cache, o_cache, q, k, v, attn, scale,
                               q_rows, kv_rows)


def attention_bwd(dout: np.ndarray, cache: AttentionCache, grads: dict):
    """Gradients of the packed query and key rows; ``past`` is not supported."""
    c = cache
    dctx = linear_bwd(dout, c.out_lin, grads)
    dctx = c.q_rows.heads(dctx, c.q.shape[1])
    dv = c.kv_rows.matmul(c.attn.transpose(1, 2, 0, 3), dctx)
    # softmax backward, key-major: attn * (dattn - sum over keys of attn *
    # dattn). Masked entries have attn == 0, so their gradient vanishes. The
    # expanded form attn * dattn - attn * sum loses digits on saturated rows.
    dscores = np.empty_like(c.attn)  # dattn, then the score gradient
    np.matmul(c.v, dctx.swapaxes(-1, -2), out=dscores.transpose(1, 2, 0, 3))
    dscores -= (dscores * c.attn).sum(axis=0)
    dscores *= c.attn
    dq = c.q_rows.matmul(dscores.transpose(1, 2, 3, 0), c.k)
    dq *= c.scale
    dk = c.kv_rows.matmul(dscores.transpose(1, 2, 0, 3), c.q)  # q holds the scale
    dq_in = linear_bwd(dq, c.q_lin, grads)
    dkv_in = linear_bwd(dk, c.k_lin, grads)
    dkv_in += linear_bwd(dv, c.v_lin, grads)
    return dq_in, dkv_in


# ---------------------------------------------------------------------------
# bottleneck adapter


def adapter_fwd(h: np.ndarray, p: dict[str, tuple], nonlinearity: str, keep: bool = True):
    """Residual bottleneck h + up(act(down(h))); ``p`` maps ``down`` and
    ``up`` to their ``(weight, bias[, name])``. The model skips pruned
    adapters."""
    act_fwd, _ = ACTIVATIONS[nonlinearity]
    z, down_cache = linear_fwd(h, *p["down"])
    a, act_cache = act_fwd(z, keep)
    delta, up_cache = linear_fwd(a, *p["up"])
    return h + delta, (down_cache, act_cache, up_cache, nonlinearity)


def adapter_bwd(dout: np.ndarray, cache, grads: dict):
    down_cache, act_cache, up_cache, nonlinearity = cache
    _, act_bwd = ACTIVATIONS[nonlinearity]
    da = linear_bwd(dout, up_cache, grads)
    dz = act_bwd(da, act_cache)
    dh = linear_bwd(dz, down_cache, grads)
    return dout + dh


# ---------------------------------------------------------------------------
# positional encoding


@functools.lru_cache(maxsize=None)
def sinusoidal_positions(max_len: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed sinusoidal position table [max_len, dim]; never trained. Built
    once per (max_len, dim, dtype) and returned read-only, since every
    caller shares the one copy."""
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    angles = positions * freqs[None, :]
    table = np.zeros((max_len, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim - half])
    table = table.astype(dtype)
    table.flags.writeable = False
    return table
