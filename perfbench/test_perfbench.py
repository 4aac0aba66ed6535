"""Tests of the benchmark's own logic: span arithmetic, wrapping, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import metrics  # noqa: E402
from spans import NN_PRIMITIVES, TARGETS, Tracer, summarize  # noqa: E402


def test_self_time_subtracts_direct_children_and_nesting_counts_once():
    names = ["a", "b", "c"]
    # a[0,10] -> b[1,4], c[5,9] -> c[6,8] (c nested in itself)
    name = [0, 1, 2, 2]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    outer = [True, True, True, False]
    stats = summarize(names, name, parent, start, end, outer)
    assert stats["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert stats["b"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
    assert stats["c"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return core.leaf(x) * 2

    class Box:
        def step(self, x):
            return x - 1

    core.leaf, core.outer, core.Box = leaf, outer, Box
    core.TABLE = {"leaf": (leaf, outer)}
    user.leaf = leaf  # as bound by ``from .core import leaf``
    return {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}


def test_install_wraps_every_binding(monkeypatch):
    modules = _fake_package()
    for key, module in modules.items():
        monkeypatch.setitem(sys.modules, key, module)
    core, user = modules["fakepkg.core"], modules["fakepkg.user"]
    tracer = Tracer("test").install(
        targets={"core.leaf": ("fakepkg.core", "leaf"),
                 "core.outer": ("fakepkg.core", "outer"),
                 "core.step": ("fakepkg.core", "Box.step")},
        module_prefix="fakepkg",
    )
    assert user.leaf(1) == 2
    assert core.TABLE["leaf"][0](1) == 2
    assert core.outer(1) == 4  # calls leaf through the module global
    assert core.Box().step(3) == 2
    stats = tracer.summary()["stats"]
    assert stats["core.leaf"]["calls"] == 3
    assert stats["core.outer"]["calls"] == 1
    assert stats["core.step"]["calls"] == 1
    assert tracer.summary()["bindings"]["core.leaf"] == 3  # core, user, TABLE


def _summary(calls: dict[str, int], counters=None) -> dict:
    return {"stats": {k: {"calls": v, "s": 0.0, "self_s": 0.0} for k, v in calls.items()},
            "counters": counters or {}}


def test_zero_calls_fail_only_where_the_workload_must_exercise_the_layer():
    everything = {m["name"].rsplit(".", 1)[0]: 1 for m in metrics.LAYER_METRICS}
    counters = {"grad.slots": 10, "grad.real": 7, "model.decode_logits.positions": 5,
                "federation.ledger.entries": 2, "federation.ledger.bytes": 8}
    assert metrics.zero_call_failures(_summary(everything, counters), metrics.GRADIENTS) == []
    no_probe = {**everything, "clustering.compute_gradient_feature": 0}
    missing = metrics.zero_call_failures(_summary(no_probe, counters), metrics.GRADIENTS)
    assert missing == ["clustering.compute_gradient_feature.calls",
                       "clustering.compute_gradient_feature.s"]
    assert metrics.zero_call_failures(_summary(no_probe, counters), metrics.FAMILIES) == []
    no_ledger = {**counters, "federation.ledger.entries": 0}
    assert "federation.ledger.entries" in metrics.zero_call_failures(
        _summary(everything, no_ledger), metrics.FAMILIES)


def _write_report(out: Path, seed: int, *, rounds=2, clients=("c1", "c2"), params=10,
                  per_param=4, dev=(2.5, 2.7), bleu=(4.0, 6.0)) -> dict:
    seed_dir = out / f"seed_{seed}"
    seed_dir.mkdir(parents=True)
    with open(seed_dir / "comm.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["round", "client", "direction", "param_count", "bytes", "seconds"])
        for r in range(1, rounds + 1):
            for c in clients:
                for direction in ("uplink", "downlink"):
                    writer.writerow([r, c, direction, params, params * per_param, 0.0])
    with open(seed_dir / "metrics.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["phase", "round", "client", "pair", "train_loss", "dev_loss",
                         "best_round", "test_bleu"])
        for c, d, b in zip(clients, dev, bleu):
            writer.writerow(["final", "", c, f"{c}-en", "", d, 1, b])
    total = 2 * rounds * len(clients) * params * per_param
    summary = {"trainable_params": params, "comm_total_bytes": float(total),
               "mean_best_dev_loss": sum(dev) / len(dev), "macro_bleu": sum(bleu) / len(bleu)}
    (out / "summary.json").write_text(json.dumps(summary))
    return {"fed": {"rounds": rounds, "bytes_per_param": per_param}}


def test_output_check_accepts_a_consistent_report(tmp_path):
    pinned = _write_report(tmp_path, 1)
    outputs = metrics.read_outputs(tmp_path, 1)
    assert outputs["comm_bytes"] == 320
    reference = {"comm_bytes": 320, "best_dev_loss": 2.6, "macro_bleu": 5.0}
    assert metrics.check_outputs(outputs, pinned, reference) == []
    assert metrics.check_outputs(outputs, pinned, None) == []


@pytest.mark.parametrize("reference, needle", [
    ({"comm_bytes": 321, "best_dev_loss": 2.6, "macro_bleu": 5.0}, "comm_bytes"),
    ({"comm_bytes": 320, "best_dev_loss": 2.61, "macro_bleu": 5.0}, "best_dev_loss"),
    ({"comm_bytes": 320, "best_dev_loss": 2.6, "macro_bleu": 5.2}, "macro_bleu"),
])
def test_output_check_rejects_a_reference_mismatch(tmp_path, reference, needle):
    pinned = _write_report(tmp_path, 1)
    problems = metrics.check_outputs(metrics.read_outputs(tmp_path, 1), pinned, reference)
    assert len(problems) == 1 and needle in problems[0]


def test_output_check_rejects_a_ledger_that_misses_a_round(tmp_path):
    pinned = _write_report(tmp_path, 1, rounds=2)
    pinned["fed"]["rounds"] = 3
    problems = metrics.check_outputs(metrics.read_outputs(tmp_path, 1), pinned, None)
    assert any("expected 12" in p for p in problems)


def test_every_benchmark_json_metric_is_traced_and_every_workload_pinned():
    spec = metrics.SPEC
    counters = set(metrics.COUNTERS) | {"trace.overhead_s"}
    spans = {metrics.moves_key(m["name"]) for m in spec["per_layer"]} - counters
    assert spans <= set(TARGETS)
    assert {f"nn.{prim}" for prim in NN_PRIMITIVES} <= spans
    pinned = {p.stem for p in (BENCH_DIR / "workloads").glob("*.json")}
    assert {w["name"] for w in spec["workloads"]} <= pinned


@pytest.mark.parametrize("path", sorted((BENCH_DIR / "workloads").glob("*.json")),
                         ids=lambda p: p.stem)
def test_pinned_configs_read_back_unchanged(path):
    from fedmt import config

    cfg = child.load_pinned(config, path)
    assert config.config_to_dict(cfg)["method"] == json.loads(path.read_text())["method"]


def test_a_pinned_config_that_no_longer_parses_or_reads_back_is_an_error(tmp_path):
    from fedmt import config
    from fedmt.errors import ConfigurationError

    source = BENCH_DIR / "workloads" / "m2en-families.json"
    pinned = json.loads(source.read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**pinned, "retired_key": 1}))
    with pytest.raises(ConfigurationError):
        child.load_pinned(config, path)

    def changed_default(cfg):
        out = config.config_to_dict(cfg)
        out["warmup"] = {**out["warmup"], "epochs": 12}
        return out

    moved = types.SimpleNamespace(parse_config=config.parse_config,
                                  config_to_dict=changed_default)
    with pytest.raises(SystemExit, match="warmup"):
        child.load_pinned(moved, source)
