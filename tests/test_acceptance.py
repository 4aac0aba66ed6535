"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 5 (gradient clusters recover the families) is not here yet.
Criterion 6 (every method learns, and the paper's orderings hold) runs six
m2en runs on one shared warm-up, about a minute on two cores; the other
criteria finish in seconds.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from fedmt.bleu import macro_micro
from fedmt.cli import main as cli_main
from fedmt.clustering import (
    ClusterAssignment,
    cluster_by_family,
    cluster_random,
)
from fedmt.config import config_from_dict
from fedmt.data import DataConfig, build_vocab, make_batch
from fedmt.federation import (
    FedConfig,
    Party,
    evaluate_dev_loss,
    inner_cluster_aggregate,
    local_update,
    run_experiment,
)
from fedmt.model import Batch, ModelConfig, build_model, grad, loss
from fedmt.params import NamedParamSet
from fedmt.presets import make_clients, mbart50_summary
from fedmt.runner import build_method_model, prepare_data, run_seed, warmup_backbone

from test_bleu import corpus_bleu, naive_pooled_bleu
from test_federation import global_aggregate, params_equal
from test_grad import by_name


def report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


# ---------------------------------------------------------------------------
# 1. parameter / cost arithmetic (paper-anchored, exact)


def test_criterion_1_parameter_cost_arithmetic():
    t0 = time.time()
    s = mbart50_summary(FedConfig())
    assert s["adapter_params"] == 7_929_600
    assert abs(s["adapter_params"] - 8e6) / 8e6 < 0.01
    assert abs(s["per_adapter_params"] - 131_000) / 131_000 < 0.01
    assert abs(s["adapter_params_third"] - 2.7e6) / 2.7e6 < 0.05

    assert s["backbone_gb"] == pytest.approx(2.44, abs=0.005)

    # the figures count-params prints, at the default 1000 Mbps
    assert s["backbone_transfer_s"] == pytest.approx(19.5, rel=0.005)
    assert s["backbone_transfer_s_12_clients"] == pytest.approx(234, rel=0.005)
    # 0.26 s assumes the count rounded to 8M; the exact count gives 0.2537
    assert s["adapter_transfer_s"] == pytest.approx(0.26, rel=0.03)
    assert s["adapter_saving_fraction"] >= 0.985

    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"reference-scale arithmetic exact ({elapsed*1000:.0f} ms)")


# ---------------------------------------------------------------------------
# 2. aggregation oracles (exact)


_SHAPES = [("enc.a", (4, 3), "encoder"), ("dec.b", (5,), "decoder"),
           ("emb.c", (2, 3), "decoder")]
_NAMES_BY_SIDE = {side: [name for name, _, s in _SHAPES if s == side]
                  for side in ("encoder", "decoder")}


def _random_param_sets(rng, n_sets):
    return [NamedParamSet({name: rng.normal(size=shape) for name, shape, _ in _SHAPES})
            for _ in range(n_sets)]


def test_criterion_2_aggregation_oracles():
    # FedMean and FedAvg are inner-cluster aggregation over one global cluster
    rng = np.random.default_rng(0)
    built = 0
    while built < 100:
        n_sets = int(rng.integers(2, 6))
        sets = _random_param_sets(rng, n_sets)
        built += n_sets
        sizes = [int(rng.integers(1, 40)) for _ in range(n_sets)]
        mean = global_aggregate(sets, names_by_side=_NAMES_BY_SIDE)
        avg = global_aggregate(sets, "fedavg", sizes, _NAMES_BY_SIDE)
        total = sum(sizes)
        for name in mean.names:
            brute_mean = sum(s.values(name) for s in sets) / n_sets
            brute_avg = sum((n / total) * s.values(name) for s, n in zip(sets, sizes))
            assert np.allclose(mean.values(name), brute_mean, atol=1e-12)
            assert np.allclose(avg.values(name), brute_avg, atol=1e-12)

    # every member of the global cluster receives the same, bitwise
    sets = _random_param_sets(np.random.default_rng(7), 4)
    params = {f"c{i}": s for i, s in enumerate(sets)}
    ids = tuple(sorted(params))
    global_assignment = ClusterAssignment((ids,), (ids,), "none")
    unit_sizes = dict.fromkeys(params, 1)
    aggregated = inner_cluster_aggregate(params, _NAMES_BY_SIDE, global_assignment, "fedmean",
                                         unit_sizes)
    for cid in ids:
        assert params_equal(aggregated[cid], aggregated[ids[0]])

    singletons = ClusterAssignment(tuple((i,) for i in ids), tuple((i,) for i in ids), "families")
    identity = inner_cluster_aggregate(params, _NAMES_BY_SIDE, singletons, "fedmean", unit_sizes)
    for cid in ids:
        assert params_equal(identity[cid], params[cid])

    # bitwise intra-cluster equality after every round of a small run: the
    # round loop's own calls, replayed, and the run's dev losses are exactly
    # those of the replayed models
    languages, clients = make_clients("m2en", 0, DataConfig(scale=1 / 128))
    clients = clients[:4]
    vocab = build_vocab(languages)
    config = ModelConfig(vocab_size=len(vocab), model_dim=16, num_heads=2,
                         ffn_dim=32, enc_layers=1, dec_layers=1,
                         adapter_bottleneck=2, max_seq_len=32)
    model = build_model(config, 0)
    by_side = model.trainable_by_side()
    cids = tuple(sorted(c.id for c in clients))
    assignment = ClusterAssignment((cids[:2], cids[2:]), (cids,), "families")
    cfg = FedConfig(rounds=3, learning_rate=2e-3, grad_accumulation=1)
    parties = [Party.of(c, vocab) for c in clients]
    result, _ = run_experiment(parties, model, cfg, vocab, assignment)

    models = dict.fromkeys(cids, model)
    sizes = {p.id: p.corpus.size for p in parties}
    dev_sets = {c.id: make_batch([(c.data.dev, c.tgt.code)], vocab) for c in clients}
    for round_index in range(1, cfg.rounds + 1):
        for party in parties:
            models[party.id], train_loss = local_update(party, models[party.id], cfg,
                                                        round_index)
            assert result.train_loss[round_index][party.id] == train_loss
        aggregated = inner_cluster_aggregate({cid: models[cid].params for cid in cids},
                                             by_side, assignment, cfg.aggregation, sizes)
        models = {cid: models[cid].with_params(aggregated[cid]) for cid in cids}
        for cluster, side in ((cids[:2], "encoder"), (cids[2:], "encoder"), (cids, "decoder")):
            for name in by_side[side]:
                ref = aggregated[cluster[0]].values(name)
                for cid in cluster[1:]:
                    assert np.array_equal(aggregated[cid].values(name), ref)
        for cid in cids:
            assert result.dev_loss[round_index][cid] == evaluate_dev_loss(
                models[cid], dev_sets[cid], cfg.eval_batch_size)
    report(2, "FedMean/FedAvg match brute force at 1e-12; degeneracies and "
              "bitwise intra-cluster equality hold")


# ---------------------------------------------------------------------------
# 3. gradient correctness (tolerance)


def test_criterion_3_gradient_finite_differences():
    t0 = time.time()
    config = ModelConfig(vocab_size=19, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=1, dec_layers=1, adapter_bottleneck=4,
                         max_seq_len=12, adapter_nonlinearity="gelu",
                         dtype="float64")
    model = build_model(config, 3)
    rng = np.random.default_rng(100)
    model = model.with_params(model.params.replace_values({
        name: rng.normal(0, 0.3, model.params.values(name).shape)
        for name in model.params.names
        if name.endswith("up.weight") or name.endswith("up.bias")
    }))

    eps = 1e-4
    worst = 0.0
    for batch_seed in range(10):
        batch_rng = np.random.default_rng(batch_seed)
        src = batch_rng.integers(4, 19, size=(2, 5))
        src_mask = np.ones((2, 5), bool)
        src_mask[0, 3:] = False
        tgt_in = batch_rng.integers(4, 19, size=(2, 5))
        tgt_in[:, 0] = 1
        tgt_gold = batch_rng.integers(4, 19, size=(2, 5))
        tgt_mask = np.ones((2, 5), bool)
        tgt_mask[1, 4:] = False
        batch = Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask)

        _, vector = grad(model, batch, model.params.names)
        grads = by_name(model, model.params.names, vector)
        picker = np.random.default_rng(batch_seed + 50)
        for name in sorted(grads):
            flat = model.params.values(name).reshape(-1)
            analytic = grads[name].reshape(-1)
            count = flat.size if flat.size <= 10 else 10
            idxs = (np.arange(flat.size) if flat.size <= 10
                    else picker.choice(flat.size, count, replace=False))
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                up = loss(model, batch)
                flat[i] = orig - eps
                down = loss(model, batch)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(analytic[i]), 1e-6)
                worst = max(worst, abs(fd - analytic[i]) / denom)
    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 60
    report(3, f"max FD relative error {worst:.2e} over 10 batches ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 4. frozen-backbone invariant (exact)


def test_criterion_4_frozen_backbone_bit_identical():
    cfg = config_from_dict({
        "mode": "m2en", "method": "adapter-families", "seeds": [1],
        "evaluate_test_bleu": False,
        "data": {"scale": 0.02, "alphabet_size": 16, "length_range": [3, 6]},
        "model": {"model_dim": 16, "num_heads": 2, "ffn_dim": 32,
                  "enc_layers": 1, "dec_layers": 1, "adapter_bottleneck": 2,
                  "max_seq_len": 16},
        "fed": {"rounds": 2, "grad_accumulation": 1},
        "warmup": {"sentences_per_pair": 8, "epochs": 1},
    })
    _, clients, vocab = prepare_data(cfg, 1)
    clients = clients[:4]
    backbone = warmup_backbone(cfg, 1)
    initial = build_method_model(cfg, 1, vocab, backbone)
    fed_cfg = dataclasses.replace(cfg.fed, seed=1)
    cids = tuple(sorted(c.id for c in clients))
    assignment = ClusterAssignment((cids[:2], cids[2:]), (cids,), "families")
    result, best_models = run_experiment(
        [Party.of(c, vocab) for c in clients], initial, fed_cfg, vocab, assignment,
    )
    assert sorted(best_models) == list(cids)
    assert set(result.best_round.values()) <= {1, 2}
    frozen = set(initial.params.names) - set(initial.trainable_names())
    checked = 0
    for cid in cids:
        selected = best_models[cid].params
        assert selected.names == initial.params.names
        assert not all(np.array_equal(selected.values(name), initial.params.values(name))
                       for name in initial.trainable_names())
        for name in frozen:
            assert np.array_equal(selected.values(name), initial.params.values(name))
            checked += 1
    assert checked > 0
    report(4, f"{checked} frozen tensors bit-identical after a 2-round, "
              f"4-client federated run")


# ---------------------------------------------------------------------------
# 6. every method learns; the paper's orderings hold (stated bounds)

CRITERION_6_RUNS = {  # label -> (method, pruning)
    "families": ("adapter-families", "all"),
    "gradients": ("adapter-gradients", "all"),
    "random": ("adapter-random", "all"),
    "adapter-fed": ("adapter-fed", "all"),
    "model-fed": ("model-fed", "all"),
    "pruned": ("adapter-families", "middle"),
}


@pytest.fixture(scope="module")
def criterion_6_results():
    """m2en seed 1 at data scale 1/32, 3 rounds, on a 256 x 6 warm-up: one
    seed result per run. Every run has the same data, model and warm-up
    config, so the runner's caches warm the backbone once."""
    results = {}
    for label, (method, pruning) in CRITERION_6_RUNS.items():
        cfg = config_from_dict({
            "mode": "m2en", "method": method, "pruning": pruning, "seeds": [1],
            "data": {"scale": 1 / 32},
            "fed": {"rounds": 3, "learning_rate": 2e-3, "full_model_learning_rate": 1e-3},
            "warmup": {"sentences_per_pair": 256, "epochs": 6, "learning_rate": 1e-3},
        })
        results[label], _ = run_seed(cfg, 1)
    return results


def test_criterion_6_every_method_learns(criterion_6_results):
    # Bounds stated before the run. Measured on a 2-vCPU machine (the 256 x 6
    # m2en s1 row of ROADMAP's warm-up table): mean dev loss 0.532 at round 0
    # and 0.309-0.425 at the selected rounds; macro BLEU 78.37 families,
    # 77.49 gradients, 73.55 random, 71.05 adapter-fed, 74.36 model-fed,
    # 74.12 pruned; ledger totals 2,088,192 B per adapter method,
    # 106,389,504 B model-fed and 974,592 B pruned.
    res = criterion_6_results
    for label, r in res.items():
        assert r.mean_best_dev < r.mean_round0_dev, label
    total = {label: r.run.ledger.total_bytes() for label, r in res.items()}
    for label in ("families", "gradients", "random", "adapter-fed"):
        assert total[label] < 0.02 * total["model-fed"], label
    bleu = {label: r.macro for label, r in res.items()}
    for label in ("families", "gradients"):
        assert bleu[label] > bleu["adapter-fed"], label
        assert bleu[label] > bleu["random"], label
    # the middle third keeps 5076 of the 10876 values each client sends
    assert (res["pruned"].trainable_params, res["families"].trainable_params) == (5076, 10876)
    assert total["pruned"] * 10876 == total["families"] * 5076
    assert bleu["families"] - bleu["pruned"] < 6.0
    report(6, "every method lowers its dev loss ("
              + ", ".join(f"{label} {r.mean_round0_dev:.3f} -> {r.mean_best_dev:.3f}"
                          for label, r in res.items())
              + "); macro BLEU "
              + ", ".join(f"{label} {value:.2f}" for label, value in bleu.items())
              + f"; adapter ledger {total['families']:,} B is "
              f"{100 * total['families'] / total['model-fed']:.2f} % of model-fed's; "
              f"pruned ledger {total['pruned']:,} B")


# ---------------------------------------------------------------------------
# 7. BLEU correctness (exact)


def test_criterion_7_bleu_correctness():
    hyps = [tuple("abcd"), tuple("xyzw")]
    assert corpus_bleu(hyps, hyps) == pytest.approx(100.0, abs=1e-12)

    score = corpus_bleu([tuple("abcd")], [tuple("abcde")])
    assert score == pytest.approx(77.88, abs=0.01)

    outputs = {
        "p1": ([tuple("abc"), tuple("de")], [tuple("abc"), tuple("df")]),
        "p2": ([tuple("ghij")], [tuple("ghi")]),
        "p3": ([tuple("k")], [tuple("klm")]),
    }
    _, _, micro = macro_micro(outputs)
    assert micro == pytest.approx(naive_pooled_bleu(outputs), abs=1e-9)
    report(7, "identity 100.0, brevity-penalty case 77.88, pooled micro "
              "matches the independent oracle at 1e-9")


# ---------------------------------------------------------------------------
# 8. determinism (exact)


def test_criterion_8_byte_identical_metrics(tmp_path):
    payload_cfg = {
        "mode": "m2en", "seeds": [3, 4],
        "evaluate_test_bleu": True,
        "data": {"scale": 0.01, "alphabet_size": 16, "length_range": [3, 6]},
        "model": {"model_dim": 16, "num_heads": 2, "ffn_dim": 32,
                  "enc_layers": 1, "dec_layers": 1, "adapter_bottleneck": 2,
                  "max_seq_len": 16},
        "fed": {"rounds": 2, "grad_accumulation": 1},
        "warmup": {"sentences_per_pair": 8, "epochs": 1},
    }
    three_layers = dict(payload_cfg["model"], enc_layers=3, dec_layers=3)
    runs = {  # label -> method config; pruning thirds need layer counts divisible by 3
        "adapter-random": dict(payload_cfg, method="adapter-random"),
        "centralized-adapter": dict(payload_cfg, method="centralized-adapter"),
        "adapter-families-middle": dict(
            payload_cfg, method="adapter-families", pruning="middle", model=three_layers),
    }
    for label, cfg in runs.items():
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / label / name
            assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        # every file under --out, checkpoints included
        files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
                 for out in outs]
        assert files[0] == files[1], label
        assert {p.name for p in files[0]} >= {"config.json", "summary.json", "clusters.txt",
                                              "metrics.csv", "backbone.meta"}, label
        for name in files[0]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (label, name)
    report(8, f"two identical two-seed runs of each of {', '.join(runs)} wrote the same "
              f"{len(files[0])} files under --out, checkpoints included, byte for byte")
