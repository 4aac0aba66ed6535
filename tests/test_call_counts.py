"""Python-level calls of one training window, one decode step and one
whole greedy decode, and the n-gram counting of BLEU, as deterministic
upper bounds.

A window's wall time swings with the machine, its call count does not: a
change that adds work per optimizer step fails here whatever the noise. The
window is m2en-families client ``zh-en``, seed 1, the second 16-row
micro-batch of a seed-3 shuffle, on a random backbone (calls and shapes do
not depend on the weights, so no warm-up is trained). The decode step is a
KV-cached ``decode_logits`` call at the third target position of that
client's test batch. The whole decode is ``decode_greedy`` over the first
128 rows of that batch; on the random backbone some row still lacks an EOS
after 16 steps, so all 16 run. The count is every call cProfile records
over one call, taken after one untimed call so that first-use caches such
as the position table do not count; the profiler's own ``disable`` is one
of the calls.

The count sums the profiler's own entries. ``pstats.Stats.total_calls``
would not do: it keys functions by file, line and name, so the
constructors of ``NamedTuple`` classes, all ``<string>:1(<lambda>)``,
overwrite one another, and which one is kept depends on where the code
objects sit in memory (1,871, 1,877 and 1,885 were read for one adapter
window).
"""

import cProfile
import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fedmt import bleu
from fedmt.config import parse_config
from fedmt.data import BOS, EOS, batches, make_batch
from fedmt.federation import Party
from fedmt.model import decode_greedy, decode_logits, encode, grad
from fedmt.runner import build_method_model, prepare_data

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "m2en-families.json"

# method -> most calls one window may make (94 and 131 trainable tensors)
MAX_CALLS = {"adapter-families": 1_890, "model-fed": 1_620}
# most calls one KV-cached decode step of the adapter model may make
MAX_DECODE_STEP_CALLS = 596
# most calls one 16-step greedy decode of 128 rows may make
MAX_DECODE_CALLS = 10_022


def profiled_calls(fn, *args) -> int:
    """Calls cProfile records over ``fn(*args)``, after one untimed call."""
    fn(*args)
    profile = cProfile.Profile()
    profile.enable()
    fn(*args)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def client_set_up(method: str):
    """The m2en-families workload as ``method`` on a random backbone: the
    model, and client ``zh-en``'s train corpus and test batch."""
    cfg = dataclasses.replace(parse_config(WORKLOAD), method=method)
    _, clients, vocab = prepare_data(cfg, 1)
    client = next(c for c in clients if c.id == "zh-en")
    test = make_batch([(client.data.test, client.tgt.code)], vocab)
    return build_method_model(cfg, 1, vocab, None), Party.of(client, vocab).corpus, test


def window_args(method: str) -> tuple:
    """``grad``'s arguments for the workload's 16-row window."""
    model, corpus, _ = client_set_up(method)
    return model, batches(corpus, 16, seed=3)[1], model.trainable_names()


def decode_step_args(model, test_batch) -> tuple:
    """``decode_logits``'s arguments for a KV-cached step of ``test_batch``'s
    rows, one position in; each call appends one more position to the cache."""
    enc_out, _ = encode(model, test_batch.src, test_batch.src_mask, want=None)
    tgt = np.full((test_batch.size, 1), BOS, dtype=test_batch.src.dtype)
    args = (model, enc_out, test_batch.src_mask, tgt, np.ones_like(tgt, dtype=bool), None, {})
    decode_logits(*args)
    return args


@pytest.mark.parametrize("method", list(MAX_CALLS))
def test_one_training_window_stays_within_its_call_count(method):
    assert profiled_calls(grad, *window_args(method)) <= MAX_CALLS[method]


def test_one_decode_step_stays_within_its_call_count():
    model, _, test_batch = client_set_up("adapter-families")
    calls = profiled_calls(decode_logits, *decode_step_args(model, test_batch))
    assert calls <= MAX_DECODE_STEP_CALLS


def test_one_greedy_decode_stays_within_its_call_count():
    model, _, test_batch = client_set_up("adapter-families")
    rows = test_batch.take(np.arange(128))
    calls = profiled_calls(decode_greedy, model, rows.src, rows.src_mask, BOS, EOS, 16)
    assert calls <= MAX_DECODE_CALLS


# three clients, every sentence distinct, some shorter than an n-gram order
NGRAM_OUTPUTS = {
    "p1": ([[1, 2, 3, 4, 5], [6, 7]], [[1, 2, 3, 9], [6, 8, 7]]),
    "p2": ([[10, 11, 12]], [[10, 11, 13, 14]]),
    "p3": ([[15]], [[15, 16, 17]]),
}


def ngram_calls(monkeypatch, outputs) -> Counter:
    """``bleu._ngrams`` calls of one ``macro_micro(outputs)``, by (sentence,
    order)."""
    ngrams, calls = bleu._ngrams, Counter()

    def counting(tokens, n):
        calls[tuple(tokens), n] += 1
        return ngrams(tokens, n)

    monkeypatch.setattr(bleu, "_ngrams", counting)
    bleu.macro_micro(outputs)
    return calls


def test_each_sentence_is_counted_once_per_order(monkeypatch):
    # micro BLEU scores the summed counts: it counts no n-gram again
    calls = ngram_calls(monkeypatch, NGRAM_OUTPUTS)
    hyps = {tuple(h) for hs, _ in NGRAM_OUTPUTS.values() for h in hs}
    refs = {tuple(r) for _, rs in NGRAM_OUTPUTS.values() for r in rs}
    assert {key: count for key, count in calls.items() if key[0] in hyps} == {
        (h, n): 1 for h in hyps for n in range(1, bleu.MAX_ORDER + 1)}
    assert {key[0] for key in calls} <= hyps | refs
    assert all(count == 1 for key, count in calls.items() if key[0] in refs)
