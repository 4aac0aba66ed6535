"""Runner orchestration: warm-up sharing, method wiring, seed results."""

import dataclasses
import pickle

import numpy as np
import pytest

from fedmt import bleu, runner
from fedmt.config import config_from_dict
from fedmt.data import Vocab, derive_seed, make_batch
from fedmt.federation import Party, run_experiment, train_epochs
from fedmt.model import merge_batches
from fedmt.runner import (
    build_method_model,
    prepare_data,
    run_seed,
    warmup_backbone,
)

from test_federation import params_equal

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
        assert params_equal(a, b)

    def test_backbone_differs_per_seed(self):
        a = warmup_backbone(cfg_for("adapter-fed"), 1)
        b = warmup_backbone(cfg_for("adapter-fed"), 2)
        assert not params_equal(a, b)

    def test_backbone_fully_frozen(self):
        # the backbone is values only, each a copy of its own: an adapter
        # model built on it trains none of it but the layer norms
        cfg = cfg_for("adapter-fed")
        _, _, vocab = prepare_data(cfg, 1)
        backbone = warmup_backbone(cfg, 1)
        assert all(backbone.values(name).base is None for name in backbone.names)
        trainable = set(build_method_model(cfg, 1, vocab, backbone).trainable_names())
        assert {n for n in backbone.names if n in trainable} == {
            n for n in backbone.names if ".ln" in n or ".final_ln." in n}

    def test_method_models_share_the_read_only_backbone(self):
        # one copy of the backbone per seed: a method model holds the cached
        # arrays, and a write into one of its frozen tensors raises rather
        # than changing every model built on it later
        cfg = cfg_for("adapter-fed")
        _, _, vocab = prepare_data(cfg, 1)
        backbone = warmup_backbone(cfg, 1)
        model = build_method_model(cfg, 1, vocab, backbone)
        trainable = set(model.trainable_names())
        frozen = [name for name in backbone.names if name not in trainable]
        assert frozen
        for name in frozen:
            values = model.params.values(name)
            assert np.shares_memory(values, backbone.values(name))
            with pytest.raises(ValueError, match="read-only"):
                values[...] = values.copy()

    def test_set_up_caches_keep_only_the_latest_seed(self):
        cfg = cfg_for("adapter-fed")
        for seed in (1, 2):
            prepare_data(cfg, seed)
            backbone = warmup_backbone(cfg, seed)
        assert [key[-1] for key in runner._DATA_CACHE] == [2]
        assert [key[-1] for key in runner._WARMUP_CACHE] == [2]
        assert warmup_backbone(cfg, 2) is backbone


class TestMethodModels:
    def test_adapter_method_freezes_backbone(self):
        cfg = cfg_for("adapter-families")
        _, _, vocab = prepare_data(cfg, 1)
        model = build_method_model(cfg, 1, vocab, warmup_backbone(cfg, 1))
        assert model.active_sites()
        frozen = set(model.params.names) - set(model.trainable_names())
        assert frozen
        assert all("_adapter." not in name for name in frozen)

    def test_model_fed_trains_everything_without_adapters(self):
        cfg = cfg_for("model-fed")
        _, _, vocab = prepare_data(cfg, 1)
        model = build_method_model(cfg, 1, vocab, warmup_backbone(cfg, 1))
        assert model.active_sites() == []
        assert model.trainable_names() == list(model.params.names)

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
        for name in backbone.names:
            assert np.array_equal(model.params.values(name), backbone.values(name))


class TestRunSeed:
    def test_adapter_local_has_empty_ledger(self):
        res, _ = run_seed(cfg_for("adapter-local"), 1)
        assert res.run.ledger.entries == []
        assert res.assignment is None

    def test_aggregating_method_meters_comm(self):
        res, _ = run_seed(cfg_for("adapter-fed"), 1)
        n_clients = len(res.run.best_round)
        rounds = 2
        assert len(res.run.ledger.entries) == rounds * n_clients * 2
        assert res.run.ledger.total_bytes() == rounds * n_clients * 2 * res.trainable_params * 4

    def test_comm_ratio_adapter_vs_model_fed(self):
        adapter, _ = run_seed(cfg_for("adapter-fed"), 1)
        full, _ = run_seed(cfg_for("model-fed"), 1)
        ratio = adapter.run.ledger.total_bytes() / full.run.ledger.total_bytes()
        assert ratio == pytest.approx(adapter.trainable_params / full.trainable_params)
        assert ratio < 0.12  # tiny test dims; the desk preset is < 0.02

    def test_centralized_runs_without_ledger(self):
        res, _ = run_seed(cfg_for("centralized-adapter"), 1)
        assert res.run.ledger.entries == []
        assert len(res.run.dev_loss) == 3  # rounds 0..2
        assert len(res.run.best_round) == 8

    def test_frozen_backbone_bit_identical_after_run(self):
        # layer norms stay trainable alongside adapters, so the invariant
        # covers exactly the tensors the final models do not train
        cfg = cfg_for("adapter-families")
        backbone = warmup_backbone(cfg, 1)
        _, models = run_seed(cfg, 1)
        for cid, model in models.items():
            frozen = set(model.params.names) - set(model.trainable_names())
            assert frozen
            for name in frozen:
                assert np.array_equal(model.params.values(name), backbone.values(name))

    def test_round_losses_cover_all_clients_and_rounds(self):
        res, _ = run_seed(cfg_for("adapter-random"), 1)
        assert [len(losses) for losses in res.run.dev_loss] == [8, 8, 8]  # rounds 0..2
        assert [len(losses) for losses in res.run.train_loss] == [0, 8, 8]

    def test_gradient_method_builds_assignment(self):
        res, _ = run_seed(cfg_for("adapter-gradients"), 1)
        assert res.assignment is not None
        assert len(res.assignment.encoder_clusters) == len(res.assignment.decoder_clusters) == 4

    def test_each_pair_is_scored_once(self, monkeypatch):
        # one count and one score per client, plus the score of their summed
        # counts for micro, which counts nothing again
        counts, score = bleu.counts, bleu.score
        calls = []

        def counting(hyps, refs):
            calls.append("counts")
            return counts(hyps, refs)

        def scoring(corpus):
            calls.append("score")
            return score(corpus)

        monkeypatch.setattr(bleu, "counts", counting)
        monkeypatch.setattr(bleu, "score", scoring)
        res, _ = run_seed(cfg_for("adapter-families", evaluate_test_bleu=True), 1)
        n_clients = len(res.test_bleu)
        assert n_clients == 8
        assert (calls.count("counts"), calls.count("score")) == (n_clients, n_clients + 1)

    def test_references_are_the_test_targets_as_ids(self):
        cfg = cfg_for("adapter-families", evaluate_test_bleu=True)
        _, clients, vocab = prepare_data(cfg, 1)
        model = build_method_model(cfg, 1, vocab, None)
        outputs = runner.evaluate_test_bleu({c.id: model for c in clients}, clients, vocab, 3)
        for client in clients:
            hyps, refs = outputs[client.id]
            assert refs == [vocab.encode(t) for _, t in client.data.test]
            assert len(hyps) == len(refs) and all(len(h) <= 3 for h in hyps)

    def test_each_split_is_encoded_once_whatever_the_rounds(self, monkeypatch):
        # two encodes per sentence pair: train, dev and test, each once
        encode = Vocab.encode
        calls = []

        def counting(self, tokens):
            calls.append(len(tokens))
            return encode(self, tokens)

        monkeypatch.setattr(Vocab, "encode", counting)
        counts = []
        for rounds in (1, 3):
            cfg = cfg_for("adapter-families", evaluate_test_bleu=True,
                          fed={"rounds": rounds, "grad_accumulation": 1})
            _, clients, _ = prepare_data(cfg, 1)
            warmup_backbone(cfg, 1)  # cached, so the run below does not encode it
            before = len(calls)
            run_seed(cfg, 1)
            counts.append(len(calls) - before)
        pairs = sum(len(c.data.train) + len(c.data.dev) + len(c.data.test) for c in clients)
        assert counts == [2 * pairs, 2 * pairs]

    def test_the_gradient_probe_reads_the_encoded_train_splits(self, monkeypatch):
        # the probe encodes nothing: train, dev and test are each encoded once
        encode = Vocab.encode
        calls = []

        def counting(self, tokens):
            calls.append(len(tokens))
            return encode(self, tokens)

        monkeypatch.setattr(Vocab, "encode", counting)
        cfg = cfg_for("adapter-gradients", evaluate_test_bleu=True,
                      fed={"rounds": 1, "grad_accumulation": 1})
        _, clients, _ = prepare_data(cfg, 1)
        warmup_backbone(cfg, 1)  # cached, so the run below does not encode it
        before = len(calls)
        run_seed(cfg, 1)
        pairs = sum(len(c.data.train) + len(c.data.dev) + len(c.data.test) for c in clients)
        assert len(calls) - before == 2 * pairs

    def test_result_holds_no_parameters(self):
        # the selected models come back beside the result, not inside it
        res, _ = run_seed(cfg_for("model-fed"), 1)
        assert len(pickle.dumps(res)) < res.total_params * 4


def centralized_round_one(local_epochs):
    """A one-round centralized run beside ``train_epochs`` over the pooled
    samples with that round's epoch seeds."""
    cfg = cfg_for("centralized-adapter")
    _, clients, vocab = prepare_data(cfg, 1)
    initial = build_method_model(cfg, 1, vocab, warmup_backbone(cfg, 1))
    fed_cfg = dataclasses.replace(cfg.fed, seed=1, rounds=1, local_epochs=local_epochs)
    result, best_models = run_experiment([Party.pooled(clients, vocab)], initial, fed_cfg,
                                         vocab, None)
    pooled = merge_batches([make_batch([(c.data.train, c.tgt.code)], vocab) for c in clients])
    # epoch e of round r shuffles with the centralized stream's seed for (seed, r, e)
    epoch_seeds = [derive_seed(1, 0xCE27, 1, epoch) for epoch in range(local_epochs)]
    direct, train_loss = train_epochs(
        initial, pooled, epoch_seeds, fed_cfg.batch_size,
        fed_cfg.grad_accumulation, fed_cfg.learning_rate,
    )
    return clients, result, best_models, direct, train_loss


class TestCentralized:
    def test_round_one_matches_train_epochs_on_pooled_samples(self):
        clients, result, best_models, direct, train_loss = centralized_round_one(local_epochs=1)
        # round 1 is the only round after round 0, so it is the selected one
        assert sorted(best_models) == sorted(c.id for c in clients)
        assert result.best_round == {cid: 1 for cid in best_models}
        for cid, model in best_models.items():
            assert params_equal(model.params, direct.params)
            assert result.train_loss[1][cid] == train_loss

    def test_a_round_runs_fed_local_epochs_epochs(self):
        _, result, best_models, direct, train_loss = centralized_round_one(local_epochs=2)
        for cid, model in best_models.items():
            assert params_equal(model.params, direct.params)
            assert result.train_loss[1][cid] == train_loss
