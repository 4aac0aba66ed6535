"""Runner orchestration: warm-up sharing, method wiring, seed results."""

import dataclasses

import numpy as np
import pytest

from fedmt.config import config_from_dict
from fedmt.data import derive_seed
from fedmt.federation import run_centralized, train_epochs
from fedmt.runner import (
    build_method_model,
    prepare_data,
    run_seed,
    warmup_backbone,
)

TINY = {
    "mode": "m2en",
    "seeds": [1],
    "evaluate_test_bleu": False,
    "data": {"scale": 0.01, "alphabet_size": 16, "length_range": [3, 6]},
    "model": {"model_dim": 16, "num_heads": 2, "ffn_dim": 32, "enc_layers": 3,
              "dec_layers": 3, "adapter_bottleneck": 2, "max_seq_len": 16},
    "fed": {"rounds": 2, "grad_accumulation": 1},
    "warmup": {"sentences_per_pair": 8, "epochs": 1},
}


def cfg_for(method, **extra):
    payload = dict(TINY, method=method)
    payload.update(extra)
    return config_from_dict(payload)


class TestWarmup:
    def test_backbone_is_method_independent(self):
        a = warmup_backbone(cfg_for("adapter-fed"), 1)
        b = warmup_backbone(cfg_for("model-fed"), 1)
        assert a.equals(b)

    def test_backbone_differs_per_seed(self):
        a = warmup_backbone(cfg_for("adapter-fed"), 1)
        b = warmup_backbone(cfg_for("adapter-fed"), 2)
        assert not a.equals(b)

    def test_backbone_fully_frozen(self):
        backbone = warmup_backbone(cfg_for("adapter-fed"), 1)
        assert all(not t.trainable for t in backbone)


class TestMethodModels:
    def test_adapter_method_freezes_backbone(self):
        cfg = cfg_for("adapter-families")
        _, _, vocab = prepare_data(cfg, 1)
        model = build_method_model(cfg, 1, vocab, warmup_backbone(cfg, 1))
        assert model.has_adapters
        frozen = [t for t in model.params if not t.trainable]
        assert frozen
        assert all("_adapter." not in t.name for t in frozen)

    def test_model_fed_trains_everything_without_adapters(self):
        cfg = cfg_for("model-fed")
        _, _, vocab = prepare_data(cfg, 1)
        model = build_method_model(cfg, 1, vocab, warmup_backbone(cfg, 1))
        assert not model.has_adapters
        assert all(t.trainable for t in model.params)

    def test_pruned_method_model(self):
        cfg = cfg_for("adapter-families", pruning="input_end")
        _, _, vocab = prepare_data(cfg, 1)
        model = build_method_model(cfg, 1, vocab, warmup_backbone(cfg, 1))
        active = model.active_sites()
        assert {s.layer for s in active} == {0}

    def test_initial_model_loads_warm_backbone_values(self):
        cfg = cfg_for("adapter-fed")
        _, _, vocab = prepare_data(cfg, 1)
        backbone = warmup_backbone(cfg, 1)
        model = build_method_model(cfg, 1, vocab, backbone)
        for t in backbone:
            assert np.array_equal(model.params.values(t.name), t.values)


class TestRunSeed:
    def test_adapter_local_has_empty_ledger(self):
        res = run_seed(cfg_for("adapter-local"), 1)
        assert res.ledger.entries == []
        assert res.assignment is None

    def test_aggregating_method_meters_comm(self):
        res = run_seed(cfg_for("adapter-fed"), 1)
        n_clients = len(res.round0_dev_loss)
        rounds = 2
        assert len(res.ledger.entries) == rounds * n_clients * 2
        assert res.ledger.total_bytes() == rounds * n_clients * 2 * res.trainable_params * 4

    def test_comm_ratio_adapter_vs_model_fed(self):
        adapter = run_seed(cfg_for("adapter-fed"), 1)
        full = run_seed(cfg_for("model-fed"), 1)
        ratio = adapter.ledger.total_bytes() / full.ledger.total_bytes()
        assert ratio == pytest.approx(adapter.trainable_params / full.trainable_params)
        assert ratio < 0.12  # tiny test dims; the desk preset is < 0.02

    def test_centralized_runs_without_ledger(self):
        res = run_seed(cfg_for("centralized-adapter"), 1)
        assert res.ledger.entries == []
        assert len({r["round"] for r in res.round_rows}) == 3  # rounds 0..2
        assert len(res.best_round) == 8

    def test_frozen_backbone_bit_identical_after_run(self):
        # layer norms stay trainable alongside adapters, so the invariant
        # covers exactly the tensors the final models mark frozen
        cfg = cfg_for("adapter-families")
        backbone = warmup_backbone(cfg, 1)
        res = run_seed(cfg, 1)
        for cid, model in res.final_models.items():
            frozen = [t for t in model.params if not t.trainable]
            assert frozen
            for t in frozen:
                assert np.array_equal(t.values, backbone.values(t.name))

    def test_round_rows_cover_all_clients_and_rounds(self):
        res = run_seed(cfg_for("adapter-random"), 1)
        per_round = {}
        for row in res.round_rows:
            per_round.setdefault(row["round"], set()).add(row["client"])
        assert set(per_round) == {0, 1, 2}
        assert all(len(v) == 8 for v in per_round.values())

    def test_gradient_method_builds_assignment(self):
        res = run_seed(cfg_for("adapter-gradients"), 1)
        assert res.assignment is not None
        assert res.assignment.m_e == res.assignment.m_d == 4


class TestCentralized:
    def test_round_one_matches_train_epochs_on_pooled_samples(self):
        cfg = cfg_for("centralized-adapter")
        _, clients, vocab = prepare_data(cfg, 1)
        initial = build_method_model(cfg, 1, vocab, warmup_backbone(cfg, 1))
        fed_cfg = dataclasses.replace(cfg.fed, seed=1, rounds=1)
        result = run_centralized(clients, initial, fed_cfg, vocab)
        samples = [(s, t, c.tgt.code) for c in clients for s, t in c.data.train]
        # round r shuffles with the centralized stream's seed for (seed, r)
        direct, stats = train_epochs(
            initial, samples, vocab, [derive_seed(1, 0xCE27, 1)], fed_cfg.batch_size,
            fed_cfg.grad_accumulation, fed_cfg.optimizer, fed_cfg.learning_rate,
        )
        (state,) = result.rounds
        assert sorted(state.params) == sorted(c.id for c in clients)
        for cid, params in state.params.items():
            assert params.equals(direct.params)
            assert state.train_loss[cid] == stats.train_loss
        assert result.best_round == {cid: 1 for cid in state.params}
