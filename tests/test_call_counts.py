"""Python-level calls of one training window, as deterministic upper bounds.

A window's wall time swings with the machine, its call count does not: a
change that adds work per optimizer step fails here whatever the noise. The
window is m2en-families client ``zh-en``, seed 1, the second 16-row
micro-batch of a seed-3 shuffle, on a random backbone (calls and shapes do
not depend on the weights, so no warm-up is trained). The count is every
call cProfile records over one ``model.grad``, taken after one untimed call
so that first-use caches such as the position table do not count; the
profiler's own ``disable`` is one of the calls.

The count sums the profiler's own entries. ``pstats.Stats.total_calls``
would not do: it keys functions by file, line and name, so the
constructors of ``NamedTuple`` classes, all ``<string>:1(<lambda>)``,
overwrite one another, and which one is kept depends on where the code
objects sit in memory (1,871, 1,877 and 1,885 were read for one adapter
window).
"""

import cProfile
import dataclasses
from pathlib import Path

import pytest

from fedmt.config import parse_config
from fedmt.data import batches
from fedmt.federation import Party
from fedmt.model import grad
from fedmt.runner import build_method_model, prepare_data

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "m2en-families.json"

# method -> most calls one window may make (94 and 131 trainable tensors)
MAX_CALLS = {"adapter-families": 1_895, "model-fed": 1_625}


@pytest.mark.parametrize("method", list(MAX_CALLS))
def test_one_training_window_stays_within_its_call_count(method):
    cfg = dataclasses.replace(parse_config(WORKLOAD), method=method)
    _, clients, vocab = prepare_data(cfg, 1)
    party = Party.of(next(c for c in clients if c.id == "zh-en"), vocab)
    model = build_method_model(cfg, 1, vocab, None)
    names = model.trainable_names()
    window = batches(party.corpus, 16, seed=3)[1]
    grad(model, window, names)
    profile = cProfile.Profile()
    profile.enable()
    grad(model, window, names)
    profile.disable()
    assert sum(entry.callcount for entry in profile.getstats()) <= MAX_CALLS[method]
