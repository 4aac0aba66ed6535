"""Aggregation rules, local training, the round loop, and the ledger."""

import numpy as np
import pytest

from fedmt.clustering import ClusterAssignment
from fedmt.data import build_vocab
from fedmt.errors import ConfigurationError, PartitionError, StructuralMismatchError
from fedmt.federation import (
    CommLedger,
    FedConfig,
    estimate_transfer,
    evaluate_dev_loss,
    inner_cluster_aggregate,
    local_update,
    run_experiment,
)
from fedmt.model import ModelConfig, build_model
from fedmt.params import NamedParamSet, ParamTensor, count_params
from fedmt.presets import make_clients

def global_aggregate(sets, rule="fedmean", sizes=None):
    """Plain FedMean/FedAvg: inner-cluster aggregation over one global
    cluster. Returns what the first client receives; every client receives
    the same trainable values."""
    ids = tuple(f"c{i}" for i in range(len(sets)))
    assignment = ClusterAssignment((ids,), (ids,), "none", "m2en")
    sizes_by_client = None if sizes is None else dict(zip(ids, sizes))
    out = inner_cluster_aggregate(dict(zip(ids, sets)), assignment, rule, sizes_by_client)
    return out[ids[0]]


def scalar_set(value, name="x", trainable=True, side="shared"):
    return NamedParamSet([ParamTensor(name, np.array([float(value)]), trainable, side)])


def random_sets(n, rng, trainable_frac=1.0):
    spec = [
        ("enc.a", (3, 2), True, "encoder"),
        ("dec.b", (4,), True, "decoder"),
        ("emb.c", (2, 2), rng.random() < trainable_frac, "shared"),
    ]
    frozen_values = rng.normal(size=(2, 2))
    sets = []
    for _ in range(n):
        tensors = []
        for name, shape, trainable, side in spec:
            values = frozen_values if name == "emb.c" and not trainable else rng.normal(size=shape)
            tensors.append(ParamTensor(name, np.array(values), trainable, side))
        sets.append(NamedParamSet(tensors))
    return sets


class TestFedAvg:
    def test_weighted_example(self):
        out = global_aggregate([scalar_set(0), scalar_set(4)], "fedavg", [1, 3])
        assert out.values("x")[0] == pytest.approx(3.0)

    def test_equal_sizes_match_fedmean(self):
        rng = np.random.default_rng(0)
        sets = random_sets(4, rng)
        avg = global_aggregate(sets, "fedavg", [5, 5, 5, 5])
        mean = global_aggregate(sets)
        for t in avg:
            assert np.allclose(t.values, mean.values(t.name), atol=1e-12)

    def test_weights_sum_to_one(self):
        # identical sets come back unchanged only if the weights sum to one
        s = scalar_set(1.7)
        out = global_aggregate([s, s, s], "fedavg", [7, 11, 2])
        assert out.values("x")[0] == pytest.approx(1.7, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            sets = random_sets(3, rng)
            sizes = [int(rng.integers(1, 50)) for _ in range(3)]
            out = global_aggregate(sets, "fedavg", sizes)
            total = sum(sizes)
            for t in out:
                if not t.trainable:
                    assert np.array_equal(t.values, sets[0].values(t.name))
                    continue
                expected = np.zeros_like(t.values)
                for s, n in zip(sets, sizes):
                    expected += (n / total) * s.values(t.name)
                assert np.allclose(t.values, expected, atol=1e-12)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            global_aggregate([scalar_set(1)], "fedavg", [0])
        with pytest.raises(ConfigurationError):
            global_aggregate([scalar_set(1), scalar_set(2)], "fedavg", [3, -1])
        with pytest.raises(ConfigurationError):
            global_aggregate([scalar_set(1)], "fedavg", None)


class TestFedMean:
    def test_mean_example(self):
        out = global_aggregate([scalar_set(2), scalar_set(4)])
        assert out.values("x")[0] == pytest.approx(3.0)

    def test_single_set_identity(self):
        s = scalar_set(7)
        assert global_aggregate([s]).equals(s)

    def test_empty_rejected(self):
        assignment = ClusterAssignment((("a",),), (("a",),), "none", "m2en")
        with pytest.raises(ValueError):
            inner_cluster_aggregate({}, assignment)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            sets = random_sets(4, rng)
            out = global_aggregate(sets)
            for t in out:
                if not t.trainable:
                    continue
                expected = sum(s.values(t.name) for s in sets) / 4
                assert np.allclose(t.values, expected, atol=1e-12)


class TestInnerClusterAggregate:
    def _params(self, values):
        return {
            cid: NamedParamSet([
                ParamTensor("enc.w", np.array([float(v)]), True, "encoder"),
                ParamTensor("dec.w", np.array([float(v) * 10]), True, "decoder"),
                ParamTensor("emb.w", np.array([float(v) * 100]), True, "shared"),
                ParamTensor("frozen.w", np.array([42.0]), False, "encoder"),
            ])
            for cid, v in values.items()
        }

    def test_global_cluster_equals_fedmean(self):
        params = self._params({"a": 1, "b": 2, "c": 6})
        assignment = ClusterAssignment(
            (("a", "b", "c"),), (("a", "b", "c"),), "none", "m2en"
        )
        out = inner_cluster_aggregate(params, assignment)
        for cid in params:
            assert out[cid].values("enc.w")[0] == pytest.approx(3.0)
            assert out[cid].values("dec.w")[0] == pytest.approx(30.0)
            assert out[cid].values("emb.w")[0] == pytest.approx(300.0)

    def test_singleton_clusters_are_identity(self):
        params = self._params({"a": 1, "b": 2})
        assignment = ClusterAssignment(
            (("a",), ("b",)), (("a",), ("b",)), "families", "m2m"
        )
        out = inner_cluster_aggregate(params, assignment)
        for cid in params:
            assert out[cid].equals(params[cid])

    def test_two_cluster_brute_force(self):
        params = self._params({"c1": 1.0, "c2": 3.0, "c3": 5.0, "c4": 9.0})
        assignment = ClusterAssignment(
            (("c1", "c2"), ("c3", "c4")), (("c1", "c2", "c3", "c4"),), "families", "m2en"
        )
        out = inner_cluster_aggregate(params, assignment)
        # encoder side averaged within {c1,c2} and {c3,c4}
        assert out["c1"].values("enc.w")[0] == pytest.approx(2.0)
        assert out["c2"].values("enc.w")[0] == pytest.approx(2.0)
        assert out["c3"].values("enc.w")[0] == pytest.approx(7.0)
        # decoder and shared sides averaged globally (m2en)
        assert out["c1"].values("dec.w")[0] == pytest.approx(45.0)
        assert out["c4"].values("emb.w")[0] == pytest.approx(450.0)

    def test_intra_cluster_equality_bitwise(self):
        params = self._params({"a": 1.37, "b": 2.91, "c": -3.3, "d": 0.02})
        assignment = ClusterAssignment(
            (("a", "b"), ("c", "d")), (("a", "c"), ("b", "d")), "random", "m2m"
        )
        out = inner_cluster_aggregate(params, assignment)
        assert np.array_equal(out["a"].values("enc.w"), out["b"].values("enc.w"))
        assert np.array_equal(out["a"].values("dec.w"), out["c"].values("dec.w"))

    def test_frozen_untouched(self):
        params = self._params({"a": 1, "b": 5})
        assignment = ClusterAssignment((("a", "b"),), (("a", "b"),), "none", "m2en")
        out = inner_cluster_aggregate(params, assignment)
        for cid in params:
            assert out[cid].values("frozen.w")[0] == 42.0

    def test_fedavg_rule_weights_by_size(self):
        params = self._params({"a": 0.0, "b": 4.0})
        assignment = ClusterAssignment((("a", "b"),), (("a", "b"),), "none", "m2en")
        out = inner_cluster_aggregate(params, assignment, rule="fedavg",
                                      sizes_by_client={"a": 1, "b": 3})
        assert out["a"].values("enc.w")[0] == pytest.approx(3.0)

    def test_incompatible_params_rejected(self):
        params = self._params({"a": 1, "b": 2})
        params["b"] = params["b"].replace_values({"enc.w": np.zeros(1)}).filter(
            lambda t: t.name != "dec.w"
        )
        assignment = ClusterAssignment((("a", "b"),), (("a", "b"),), "none", "m2en")
        with pytest.raises(StructuralMismatchError):
            inner_cluster_aggregate(params, assignment)

    def test_trainable_flag_mismatch_rejected(self):
        params = self._params({"a": 1, "b": 2})
        params["b"] = NamedParamSet(
            t.with_trainable(not t.trainable) if t.name == "frozen.w" else t
            for t in params["b"]
        )
        assignment = ClusterAssignment((("a", "b"),), (("a", "b"),), "none", "m2en")
        with pytest.raises(StructuralMismatchError, match="incompatible"):
            inner_cluster_aggregate(params, assignment)

    def test_client_mismatch_rejected(self):
        params = self._params({"a": 1, "b": 2})
        assignment = ClusterAssignment((("a",),), (("a",),), "none", "m2en")
        with pytest.raises(PartitionError):
            inner_cluster_aggregate(params, assignment)


class TestEstimateTransfer:
    def test_full_model_at_reference_bandwidth(self):
        per_client, _ = estimate_transfer(2.44e9, 1, 1e9)
        assert per_client == pytest.approx(19.52, abs=0.005)
        assert per_client == pytest.approx(19.5, rel=0.005)

    def test_twelve_clients_serialized(self):
        _, total = estimate_transfer(2.44e9, 12, 1e9)
        assert total == pytest.approx(234, rel=0.005)

    def test_adapter_payload_seconds(self):
        per_client, _ = estimate_transfer(7_929_600 * 4, 1, 1e9)
        assert per_client == pytest.approx(0.2537, abs=0.0005)
        # the rounded count (8M params) reproduces the quoted 0.26 s
        rounded, _ = estimate_transfer(8e6 * 4, 1, 1e9)
        assert rounded == pytest.approx(0.256, abs=1e-9)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_transfer(1.0, 1, 0)


class TestCommLedger:
    def test_record_sync_counts_both_directions(self):
        ledger = CommLedger(bandwidth_bps=1e9, bytes_per_param=4)
        ledger.record_sync(1, "a", 1000)
        assert ledger.total_bytes() == 2 * 4000
        assert ledger.total_bytes("uplink") == 4000
        assert ledger.total_seconds("uplink") == pytest.approx(4000 * 8 / 1e9)

    def test_totals_invariant_to_order(self):
        l1 = CommLedger()
        l2 = CommLedger()
        for cid in ("a", "b", "c"):
            l1.record_sync(1, cid, 10)
        for cid in ("c", "a", "b"):
            l2.record_sync(1, cid, 10)
        assert l1.total_bytes() == l2.total_bytes()
        assert l1.total_seconds() == pytest.approx(l2.total_seconds())


@pytest.fixture(scope="module")
def tiny_setup():
    languages, clients = make_clients("m2en", seed=0, scale=1 / 128)
    clients = clients[:4]
    vocab = build_vocab([c.data for c in clients], languages)
    config = ModelConfig(vocab_size=len(vocab), model_dim=16, num_heads=2,
                         ffn_dim=32, enc_layers=1, dec_layers=1,
                         adapter_bottleneck=2, max_seq_len=32, dtype="float64")
    model = build_model(config, 0)
    return clients, vocab, model


class TestLocalUpdate:
    def test_zero_learning_rate_is_noop(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=1, learning_rate=0.0, grad_accumulation=2)
        updated, stats = local_update(clients[0], model, cfg, vocab, round_index=1)
        assert updated.params.equals(model.params)
        assert stats.optimizer_steps > 0

    def test_training_reduces_own_loss(self, tiny_setup):
        clients, vocab, model = tiny_setup
        improvements = []
        for seed in (1, 2, 3):
            cfg = FedConfig(rounds=1, learning_rate=5e-3, grad_accumulation=1,
                            local_epochs=2, seed=seed)
            before = evaluate_dev_loss(model, clients[0], vocab, cfg.eval_batch_size)
            updated, _ = local_update(clients[0], model, cfg, vocab, round_index=1)
            after = evaluate_dev_loss(updated, clients[0], vocab, cfg.eval_batch_size)
            improvements.append(after < before)
        assert sum(improvements) >= 2

    def test_frozen_tensors_bit_identical(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=1, learning_rate=1e-2, grad_accumulation=1)
        updated, _ = local_update(clients[0], model, cfg, vocab, round_index=1)
        for t in model.params:
            if not t.trainable:
                assert np.array_equal(updated.params.values(t.name), t.values)

    def test_sgd_optimizer_supported(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=1, learning_rate=1e-2, optimizer="sgd",
                        grad_accumulation=4)
        updated, stats = local_update(clients[0], model, cfg, vocab, round_index=1)
        assert not updated.params.equals(model.params)
        assert stats.tokens > 0


class TestRunExperiment:
    def _assignment(self, clients):
        ids = tuple(sorted(c.id for c in clients))
        return ClusterAssignment((ids,), (ids,), "none", "m2en")

    def test_single_client_one_round_matches_local_update(self, tiny_setup):
        clients, vocab, model = tiny_setup
        client = clients[0]
        cfg = FedConfig(rounds=1, learning_rate=1e-3, grad_accumulation=2, seed=5)
        result = run_experiment([client], {client.id: model}, cfg, vocab, None)
        direct, _ = local_update(client, model, cfg, vocab, round_index=1)
        final = result.rounds[-1].params[client.id]
        assert final.equals(direct.params)

    def test_no_assignment_means_no_ledger_entries(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=2, learning_rate=1e-3, grad_accumulation=2)
        result = run_experiment(
            clients, {c.id: model for c in clients}, cfg, vocab, None
        )
        assert result.ledger.entries == []

    def test_aggregation_syncs_and_meters(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=2, learning_rate=1e-3, grad_accumulation=2)
        assignment = self._assignment(clients)
        seen = []
        result = run_experiment(
            clients, {c.id: model for c in clients}, cfg, vocab, assignment,
            round_hook=lambda state: seen.append(state.index),
        )
        assert seen == [1, 2]
        payload = count_params(model.params, "trainable_only")
        # 2 rounds x 4 clients x (uplink + downlink)
        assert result.ledger.total_bytes() == 2 * 4 * 2 * payload * 4
        for state in result.rounds:
            names = [t.name for t in state.params[clients[0].id] if t.trainable]
            for name in names:
                reference = state.params[clients[0].id].values(name)
                for c in clients[1:]:
                    assert np.array_equal(state.params[c.id].values(name), reference)

    def test_frozen_backbone_invariant_through_rounds(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=2, learning_rate=2e-3, grad_accumulation=1)
        result = run_experiment(
            clients, {c.id: model for c in clients}, cfg, vocab,
            self._assignment(clients),
        )
        for cid, final_model in result.best_models.items():
            for t in model.params:
                if not t.trainable:
                    assert np.array_equal(final_model.params.values(t.name), t.values)

    def test_determinism(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=2, learning_rate=1e-3, grad_accumulation=2, seed=9)
        r1 = run_experiment(clients, {c.id: model for c in clients}, cfg, vocab,
                            self._assignment(clients))
        r2 = run_experiment(clients, {c.id: model for c in clients}, cfg, vocab,
                            self._assignment(clients))
        assert r1.best_round == r2.best_round
        for cid in r1.best_dev_loss:
            assert r1.best_dev_loss[cid] == r2.best_dev_loss[cid]
        for cid in r1.rounds[-1].params:
            assert r1.rounds[-1].params[cid].equals(r2.rounds[-1].params[cid])

    def test_fedconfig_validation(self):
        with pytest.raises(ConfigurationError):
            FedConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            FedConfig(aggregation="median")
        with pytest.raises(ConfigurationError):
            FedConfig(learning_rate=-1e-3)
