"""Microbenchmarks of the primitives, one optimizer window and BLEU scoring,
at the desk-scale shapes of the pinned m2en-families workload (d = 64, FFN
512, 4 heads, a 16-row window of about 160 tokens). pytest collects only
``test_*.py``, so tier-1 never runs this file; pytest-benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/bench_primitives.py \\
        --benchmark-json=BENCH_<label>.json

``tests/conftest.py`` adds the machine block (core count, CPU, numpy and
BLAS builds, thread variables). Each benchmark's ``extra_info`` holds the
deterministic counts of ``tests/test_call_counts.py`` where one applies.
The windows and the decode step run on a random backbone: their calls and
shapes do not depend on the weights, so no warm-up is trained.
"""

from pathlib import Path

import numpy as np
import pytest

from fedmt import bleu, nn
from fedmt.config import parse_config
from fedmt.data import make_batch
from fedmt.federation import _Adam
from fedmt.model import decode_logits, grad
from fedmt.runner import prepare_data

from test_call_counts import (
    client_set_up,
    decode_step_args,
    ngram_calls,
    profiled_calls,
    window_args,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
ROWS, D, FFN, HEADS = 160, 64, 512, 4
# the trainable values of an m2en-families model-fed client
ADAM_VALUES = 554_112

pytestmark = pytest.mark.benchmark(warmup=True, min_rounds=20)


def normal(*shape, seed=0, std=1.0):
    return np.random.default_rng(seed).normal(0.0, std, size=shape).astype(np.float32)


@pytest.mark.parametrize("width", [D, FFN])
def test_linear_fwd(benchmark, width):
    x, w, b = normal(ROWS, D), normal(D, width), normal(width)
    benchmark(nn.linear_fwd, x, w, b, "fc")


@pytest.mark.parametrize("width", [D, FFN])
def test_linear_bwd(benchmark, width):
    y, cache = nn.linear_fwd(normal(ROWS, D), normal(D, width), normal(width), "fc")
    benchmark(nn.linear_bwd, normal(*y.shape, seed=1), cache, {})


@pytest.mark.parametrize("keep", [True, False])
def test_gelu_fwd(benchmark, keep):
    benchmark(nn.gelu_fwd, normal(ROWS, FFN), keep)


@pytest.mark.parametrize("keep", [True, False])
def test_gelu_fwd_640(benchmark, keep):
    benchmark(nn.gelu_fwd, normal(4 * ROWS, FFN), keep)


@pytest.mark.parametrize("rows", [ROWS, 4 * ROWS])
def test_gelu_bwd(benchmark, rows):
    dy = normal(rows, FFN, seed=1)
    _, cache = nn.gelu_fwd(normal(rows, FFN), True)
    # the backward writes into its cache, so each round gets a fresh copy
    benchmark.pedantic(nn.gelu_bwd, setup=lambda: ((dy, cache.copy()), {}),
                       rounds=200, warmup_rounds=5)


def test_layer_norm_fwd(benchmark):
    benchmark(nn.layer_norm_fwd, normal(ROWS, D), normal(D), normal(D), "ln")


def test_layer_norm_bwd(benchmark):
    y, cache = nn.layer_norm_fwd(normal(ROWS, D), normal(D), normal(D), "ln")
    benchmark(nn.layer_norm_bwd, normal(*y.shape, seed=1), cache, {})


def self_attention(batch: int, length: int = 10):
    """Arguments of a named self-attention over ``batch`` full rows. The
    projection weights have the std ``model._init_value`` gives a weight:
    at unit std the softmax saturates and its small weights go subnormal,
    which no model run produces."""
    mask = np.ones((batch, length), dtype=bool)
    rows = nn.Rows.of(mask)
    p = {proj: (normal(D, D, seed=i, std=(2 / (D + D)) ** 0.5), normal(D, seed=i), proj)
         for i, proj in enumerate(("q", "k", "v", "out"))}
    x = normal(batch * length, D)
    return x, x, p, nn.attention_bias(mask, np.float32, q_len=length), HEADS, rows, rows


@pytest.mark.parametrize("batch", [16, 64, 128])
def test_attention_fwd(benchmark, batch):
    benchmark(nn.attention_fwd, *self_attention(batch))


@pytest.mark.parametrize("batch", [16, 64, 128])
def test_attention_bwd(benchmark, batch):
    out, cache = nn.attention_fwd(*self_attention(batch))
    benchmark(nn.attention_bwd, normal(*out.shape, seed=1), cache, {})


def test_decode_step_b128(benchmark):
    model, _, test_batch = client_set_up("adapter-families")
    rows = test_batch.take(np.arange(128))
    benchmark.extra_info["python_calls"] = profiled_calls(
        decode_logits, *decode_step_args(model, rows))
    # a fresh cache each round, so every timed call is the same position
    benchmark.pedantic(decode_logits, setup=lambda: (decode_step_args(model, rows), {}),
                       rounds=200, warmup_rounds=5)


def test_adam_step(benchmark):
    optimizer = _Adam(1e-3)
    flat, gradient = normal(ADAM_VALUES), normal(ADAM_VALUES, seed=1)
    benchmark(optimizer.step, flat, gradient)  # the spent gradient is reused


@pytest.mark.parametrize("method", ["adapter-families", "model-fed"])
def test_window(benchmark, method):
    args = window_args(method)
    benchmark.extra_info["python_calls"] = profiled_calls(grad, *args)
    benchmark(grad, *args)


def m2m_outputs():
    """The m2m-gradients-r1 clients' test references as ids, each with a
    hypothesis that drops its middle token and so matches it in part."""
    _, clients, vocab = prepare_data(parse_config(WORKLOADS / "m2m-gradients-r1.json"), 1)
    outputs = {}
    for client in clients:
        test = make_batch([(client.data.test, client.tgt.code)], vocab)
        refs = [gold[mask][:-1].tolist() for gold, mask in zip(test.tgt_gold, test.tgt_mask)]
        outputs[client.id] = ([r[: len(r) // 2] + r[len(r) // 2 + 1 :] for r in refs], refs)
    return outputs


def test_macro_micro_m2m(benchmark, monkeypatch):
    outputs = m2m_outputs()
    with monkeypatch.context() as patch:
        benchmark.extra_info["ngram_calls"] = sum(ngram_calls(patch, outputs).values())
    benchmark.extra_info["sentences"] = sum(len(hyps) for hyps, _ in outputs.values())
    benchmark(bleu.macro_micro, outputs)
