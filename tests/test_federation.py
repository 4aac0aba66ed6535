"""Aggregation rules, local training, the round loop, and the ledger."""

import dataclasses

import numpy as np
import pytest

from fedmt.clustering import ClusterAssignment
from fedmt import federation
from fedmt.data import DataConfig, batches, build_vocab, derive_seed, make_batch
from fedmt.errors import (
    ConfigurationError,
    NumericError,
    PartitionError,
)
from fedmt.federation import (
    CommLedger,
    FedConfig,
    Party,
    _Adam,
    evaluate_dev_loss,
    inner_cluster_aggregate,
    local_update,
    _stable_id,
    run_experiment,
    train_epochs,
)
from fedmt.model import ModelConfig, build_model, grad, merge_batches
from fedmt.params import NamedParamSet, count_params
from fedmt.presets import make_clients

from test_grad import by_name


def params_equal(a, b):
    """Bitwise equality of two parameter sets: names, shapes and values."""
    return a.names == b.names and all(np.array_equal(a.values(n), b.values(n)) for n in a.names)


def names_by_side(spec):
    """The trainable names of a (name, shape, trainable, side) spec by side,
    as ``ToyModel.trainable_by_side`` gives them for a model."""
    return {side: [name for name, _, trainable, s in spec if trainable and s == side]
            for side in ("encoder", "decoder")}


def global_aggregate(sets, rule="fedmean", sizes=None, names_by_side=None):
    """Plain FedMean/FedAvg: inner-cluster aggregation over one global
    cluster, every client of size 1 unless ``sizes`` says otherwise, of the
    tensors ``names_by_side`` names (default: every tensor). Returns what
    the first client receives; every client receives the same averaged
    values."""
    ids = tuple(f"c{i}" for i in range(len(sets)))
    assignment = ClusterAssignment((ids,), (ids,), "none")
    sizes_by_client = dict(zip(ids, sizes or [1] * len(sets)))
    if names_by_side is None:
        names_by_side = {"encoder": [], "decoder": list(sets[0].names)}
    out = inner_cluster_aggregate(dict(zip(ids, sets)), names_by_side, assignment, rule,
                                  sizes_by_client)
    return out[ids[0]]


def scalar_set(value, name="x"):
    return NamedParamSet({name: np.array([float(value)])})


def random_sets(n, rng, trainable_frac=1.0):
    """``n`` sets over one spec, and the spec's names by side."""
    spec = [
        ("enc.a", (3, 2), True, "encoder"),
        ("dec.b", (4,), True, "decoder"),
        ("emb.c", (2, 2), rng.random() < trainable_frac, "decoder"),
    ]
    frozen_values = rng.normal(size=(2, 2))
    sets = []
    for _ in range(n):
        tensors = {}
        for name, shape, trainable, side in spec:
            values = frozen_values if name == "emb.c" and not trainable else rng.normal(size=shape)
            tensors[name] = np.array(values)
        sets.append(NamedParamSet(tensors))
    return sets, names_by_side(spec)


def trained_names(by_side):
    return {name for names in by_side.values() for name in names}


class TestFedAvg:
    def test_weighted_example(self):
        out = global_aggregate([scalar_set(0), scalar_set(4)], "fedavg", [1, 3])
        assert out.values("x")[0] == pytest.approx(3.0)

    def test_equal_sizes_match_fedmean(self):
        rng = np.random.default_rng(0)
        sets, by_side = random_sets(4, rng)
        avg = global_aggregate(sets, "fedavg", [5, 5, 5, 5], by_side)
        mean = global_aggregate(sets, names_by_side=by_side)
        for name in avg.names:
            assert np.allclose(avg.values(name), mean.values(name), atol=1e-12)

    def test_weights_sum_to_one(self):
        # identical sets come back unchanged only if the weights sum to one
        s = scalar_set(1.7)
        out = global_aggregate([s, s, s], "fedavg", [7, 11, 2])
        assert out.values("x")[0] == pytest.approx(1.7, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            sets, by_side = random_sets(3, rng)
            sizes = [int(rng.integers(1, 50)) for _ in range(3)]
            out = global_aggregate(sets, "fedavg", sizes, by_side)
            total = sum(sizes)
            for name in out.names:
                if name not in trained_names(by_side):
                    assert np.array_equal(out.values(name), sets[0].values(name))
                    continue
                expected = np.zeros_like(out.values(name))
                for s, n in zip(sets, sizes):
                    expected += (n / total) * s.values(name)
                assert np.allclose(out.values(name), expected, atol=1e-12)


class TestFedMean:
    def test_mean_example(self):
        out = global_aggregate([scalar_set(2), scalar_set(4)])
        assert out.values("x")[0] == pytest.approx(3.0)

    def test_single_set_identity(self):
        s = scalar_set(7)
        assert params_equal(global_aggregate([s]), s)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            sets, by_side = random_sets(4, rng)
            out = global_aggregate(sets, names_by_side=by_side)
            for name in trained_names(by_side):
                expected = sum(s.values(name) for s in sets) / 4
                assert np.allclose(out.values(name), expected, atol=1e-12)


class TestInnerClusterAggregate:
    # frozen.w, an encoder tensor, is named on no side: it never moves
    NAMES = {"encoder": ["enc.w"], "decoder": ["dec.w", "emb.w"]}

    def _params(self, values):
        return {
            cid: NamedParamSet({
                "enc.w": np.array([float(v)]),
                "dec.w": np.array([float(v) * 10]),
                "emb.w": np.array([float(v) * 100]),
                "frozen.w": np.array([42.0]),
            })
            for cid, v in values.items()
        }

    def test_global_cluster_equals_fedmean(self):
        params = self._params({"a": 1, "b": 2, "c": 6})
        assignment = ClusterAssignment((("a", "b", "c"),), (("a", "b", "c"),), "none")
        out = inner_cluster_aggregate(params, self.NAMES, assignment, rule="fedmean",
                                      sizes_by_client=dict.fromkeys(params, 1))
        for cid in params:
            assert out[cid].values("enc.w")[0] == pytest.approx(3.0)
            assert out[cid].values("dec.w")[0] == pytest.approx(30.0)
            assert out[cid].values("emb.w")[0] == pytest.approx(300.0)

    def test_singleton_clusters_are_identity(self):
        params = self._params({"a": 1, "b": 2})
        assignment = ClusterAssignment((("a",), ("b",)), (("a",), ("b",)), "families")
        out = inner_cluster_aggregate(params, self.NAMES, assignment, rule="fedmean",
                                      sizes_by_client=dict.fromkeys(params, 1))
        for cid in params:
            assert params_equal(out[cid], params[cid])

    def test_two_cluster_brute_force(self):
        params = self._params({"c1": 1.0, "c2": 3.0, "c3": 5.0, "c4": 9.0})
        assignment = ClusterAssignment((("c1", "c2"), ("c3", "c4")), (("c1", "c2", "c3", "c4"),),
                                       "families")
        out = inner_cluster_aggregate(params, self.NAMES, assignment, rule="fedmean",
                                      sizes_by_client=dict.fromkeys(params, 1))
        # encoder side averaged within {c1,c2} and {c3,c4}
        assert out["c1"].values("enc.w")[0] == pytest.approx(2.0)
        assert out["c2"].values("enc.w")[0] == pytest.approx(2.0)
        assert out["c3"].values("enc.w")[0] == pytest.approx(7.0)
        # decoder side, the embedding included, averaged globally
        assert out["c1"].values("dec.w")[0] == pytest.approx(45.0)
        assert out["c4"].values("emb.w")[0] == pytest.approx(450.0)

    def test_intra_cluster_equality_bitwise(self):
        params = self._params({"a": 1.37, "b": 2.91, "c": -3.3, "d": 0.02})
        assignment = ClusterAssignment((("a", "b"), ("c", "d")), (("a", "c"), ("b", "d")), "random")
        out = inner_cluster_aggregate(params, self.NAMES, assignment, rule="fedmean",
                                      sizes_by_client=dict.fromkeys(params, 1))
        assert np.array_equal(out["a"].values("enc.w"), out["b"].values("enc.w"))
        assert np.array_equal(out["a"].values("dec.w"), out["c"].values("dec.w"))

    def test_frozen_untouched(self):
        params = self._params({"a": 1, "b": 5})
        assignment = ClusterAssignment((("a", "b"),), (("a", "b"),), "none")
        out = inner_cluster_aggregate(params, self.NAMES, assignment, rule="fedmean",
                                      sizes_by_client=dict.fromkeys(params, 1))
        for cid in params:
            assert out[cid].values("frozen.w")[0] == 42.0

    def test_fedavg_rule_weights_by_size(self):
        params = self._params({"a": 0.0, "b": 4.0})
        assignment = ClusterAssignment((("a", "b"),), (("a", "b"),), "none")
        out = inner_cluster_aggregate(params, self.NAMES, assignment, rule="fedavg",
                                      sizes_by_client={"a": 1, "b": 3})
        assert out["a"].values("enc.w")[0] == pytest.approx(3.0)


class TestEstimateTransfer:
    """``FedConfig.transfer``, the one bandwidth model, at the reference
    1000 Mbps and 4 bytes per value."""

    def test_full_model_at_reference_bandwidth(self):
        n_bytes, per_client = FedConfig(bandwidth_bps=1e9).transfer(610_000_000)
        assert n_bytes == 2.44e9
        assert per_client == pytest.approx(19.52, abs=0.005)
        assert per_client == pytest.approx(19.5, rel=0.005)

    def test_twelve_clients_serialized(self):
        _, per_client = FedConfig(bandwidth_bps=1e9).transfer(610_000_000)
        assert 12 * per_client == pytest.approx(234, rel=0.005)

    def test_adapter_payload_seconds(self):
        fed = FedConfig(bandwidth_bps=1e9, bytes_per_param=4)
        _, per_client = fed.transfer(7_929_600)
        assert per_client == pytest.approx(0.2537, abs=0.0005)
        # the rounded count (8M params) reproduces the quoted 0.26 s
        _, rounded = fed.transfer(8_000_000)
        assert rounded == pytest.approx(0.256, abs=1e-9)


class TestCommLedger:
    def test_record_sync_counts_both_directions(self):
        ledger = CommLedger(FedConfig(bandwidth_bps=1e9, bytes_per_param=4))
        ledger.record_sync(1, "a", 1000)
        assert ledger.total_bytes() == 2 * 4000
        assert ledger.total_seconds() == pytest.approx(2 * 4000 * 8 / 1e9)

    def test_totals_invariant_to_order(self):
        l1 = CommLedger(FedConfig())
        l2 = CommLedger(FedConfig())
        for cid in ("a", "b", "c"):
            l1.record_sync(1, cid, 10)
        for cid in ("c", "a", "b"):
            l2.record_sync(1, cid, 10)
        assert l1.total_bytes() == l2.total_bytes()
        assert l1.total_seconds() == pytest.approx(l2.total_seconds())


@pytest.fixture(scope="module")
def tiny_setup():
    languages, clients = make_clients("m2en", 0, DataConfig(scale=1 / 128))
    clients = clients[:4]
    vocab = build_vocab(languages)
    config = ModelConfig(vocab_size=len(vocab), model_dim=16, num_heads=2,
                         ffn_dim=32, enc_layers=1, dec_layers=1,
                         adapter_bottleneck=2, max_seq_len=32, dtype="float64")
    model = build_model(config, 0)
    return clients, vocab, model


def parties(clients, vocab):
    return [Party.of(c, vocab) for c in clients]


class TestLocalUpdate:
    def test_zero_learning_rate_is_noop(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=1, learning_rate=0.0, grad_accumulation=2)
        updated, _ = local_update(Party.of(clients[0], vocab), model, cfg, round_index=1)
        assert updated is model  # no step ran, so no model was rebuilt
        assert params_equal(updated.params, model.params)

    def test_training_reduces_own_loss(self, tiny_setup):
        clients, vocab, model = tiny_setup
        dev = make_batch([(clients[0].data.dev, clients[0].tgt.code)], vocab)
        improvements = []
        for seed in (1, 2, 3):
            cfg = FedConfig(rounds=1, learning_rate=5e-3, grad_accumulation=1,
                            local_epochs=2, seed=seed)
            before = evaluate_dev_loss(model, dev, cfg.eval_batch_size)
            updated, _ = local_update(Party.of(clients[0], vocab), model, cfg, round_index=1)
            after = evaluate_dev_loss(updated, dev, cfg.eval_batch_size)
            improvements.append(after < before)
        assert sum(improvements) >= 2

    def test_frozen_tensors_bit_identical(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=1, learning_rate=1e-2, grad_accumulation=1)
        updated, _ = local_update(Party.of(clients[0], vocab), model, cfg, round_index=1)
        frozen = set(model.params.names) - set(model.trainable_names())
        assert frozen
        for name in frozen:
            assert np.array_equal(updated.params.values(name), model.params.values(name))

    def test_epochs_shuffle_with_the_client_stream(self, tiny_setup):
        # epoch e of round r shuffles with derive_seed(seed, 0x10CA1, r, e, _stable_id(id))
        clients, vocab, model = tiny_setup
        client = clients[0]
        cfg = FedConfig(rounds=1, learning_rate=1e-2, grad_accumulation=1, local_epochs=2,
                        seed=4)
        updated, loss = local_update(Party.of(client, vocab), model, cfg, round_index=1)
        corpus = make_batch([(client.data.train, client.tgt.code)], vocab)

        def trained(stream, *tail):
            seeds = [derive_seed(4, stream, 1, epoch, *tail) for epoch in range(2)]
            return train_epochs(model, corpus, seeds, cfg.batch_size,
                                cfg.grad_accumulation, cfg.learning_rate)

        direct, direct_loss = trained(0x10CA1, _stable_id(client.id))
        assert params_equal(updated.params, direct.params)
        assert loss == direct_loss
        other, _ = trained(0xCE27)  # the shuffle order shows in the result
        assert not params_equal(updated.params, other.params)


def per_tensor_training(model, corpus, seed, lr, batch_size, accumulation):
    """Reference loop: one epoch, Adam applied one tensor at a time."""
    values = {name: model.params.values(name) for name in model.trainable_names()}
    first = {name: np.zeros_like(v) for name, v in values.items()}
    second = {name: np.zeros_like(v) for name, v in values.items()}
    names = list(values)
    micro = batches(corpus, batch_size, seed=seed)
    for t, start in enumerate(range(0, len(micro), accumulation), 1):
        result, vector = grad(model, merge_batches(micro[start:start + accumulation]), names)
        for name, g in by_name(model, names, vector).items():
            g = g / result.token_count
            first[name] = 0.9 * first[name] + (1 - 0.9) * g
            second[name] = 0.999 * second[name] + (1 - 0.999) * g * g
            values[name] = values[name] - lr * (first[name] / (1.0 - 0.9**t)) / (
                np.sqrt(second[name] / (1.0 - 0.999**t)) + 1e-8)
        model = model.with_params(model.params.replace_values(values))
    return model, t


@pytest.mark.parametrize("kind", ["adam"])  # the one optimizer
def test_flat_optimizer_step_is_bitwise_the_per_tensor_update(tiny_setup, kind):
    clients, vocab, model = tiny_setup
    for dtype in ("float32", "float64"):
        start = build_model(dataclasses.replace(model.config, dtype=dtype), 0)
        corpus = make_batch([(clients[0].data.train, clients[0].tgt.code)], vocab)
        trained, _ = train_epochs(start, corpus, [7], 2, 1, 1e-2)
        expected, steps = per_tensor_training(start, corpus, 7, 1e-2, 2, 1)
        assert steps >= 3
        assert params_equal(trained.params, expected.params)
        assert not params_equal(trained.params, start.params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_is_bitwise_the_textbook_formula(dtype):
    rng = np.random.default_rng(3)
    flat = rng.normal(size=1000).astype(dtype)
    optimizer = _Adam(1e-2)
    m = v = np.zeros_like(flat)
    returned = []
    for t in range(1, 6):
        g = rng.normal(size=flat.size).astype(dtype)
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        expected = flat - 1e-2 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        before = flat.copy()
        flat_next = optimizer.step(flat, g)
        assert flat_next.dtype == dtype
        assert np.array_equal(flat_next, expected)
        assert np.array_equal(flat, before)  # earlier models keep views of it
        assert not np.shares_memory(flat_next, flat) and not np.shares_memory(flat_next, g)
        returned.append(flat_next)
        flat = flat_next
    assert not any(np.shares_memory(a, b) for i, a in enumerate(returned)
                   for b in returned[i + 1:])


class TestRunExperiment:
    def _assignment(self, clients):
        ids = tuple(sorted(c.id for c in clients))
        return ClusterAssignment((ids,), (ids,), "none")

    def test_single_client_one_round_matches_local_update(self, tiny_setup):
        clients, vocab, model = tiny_setup
        client = clients[0]
        cfg = FedConfig(rounds=1, learning_rate=1e-3, grad_accumulation=2, seed=5)
        result, best_models = run_experiment([Party.of(client, vocab)], model, cfg, vocab, None)
        direct, train_loss = local_update(Party.of(client, vocab), model, cfg, round_index=1)
        assert result.best_round == {client.id: 1}
        assert result.train_loss[1] == {client.id: train_loss}
        assert params_equal(best_models[client.id].params, direct.params)

    def test_client_mismatch_rejected(self, tiny_setup):
        # checked once, before round 1; aggregation trusts the assignment
        clients, vocab, model = tiny_setup
        ids = (clients[0].id,)
        assignment = ClusterAssignment((ids,), (ids,), "none")
        with pytest.raises(PartitionError):
            run_experiment(parties(clients[:2], vocab), model, FedConfig(rounds=1), vocab,
                           assignment)

    def test_empty_rejected(self, tiny_setup):
        _, vocab, model = tiny_setup
        assignment = ClusterAssignment((("a",),), (("a",),), "none")
        with pytest.raises(PartitionError):
            run_experiment([], model, FedConfig(rounds=1), vocab, assignment)

    def test_no_assignment_means_no_ledger_entries(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=2, learning_rate=1e-3, grad_accumulation=2)
        result, _ = run_experiment(
            parties(clients, vocab), model, cfg, vocab, None
        )
        assert result.ledger.entries == []

    def test_aggregation_syncs_and_meters(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=2, learning_rate=1e-3, grad_accumulation=2)
        assignment = self._assignment(clients)
        result, best_models = run_experiment(
            parties(clients, vocab), model, cfg, vocab, assignment
        )
        assert len(result.dev_loss) == len(result.train_loss) == 3  # rounds 0, 1, 2
        payload = count_params(model.params, model.trainable_names())
        # 2 rounds x 4 clients x (uplink + downlink)
        assert result.ledger.total_bytes() == 2 * 4 * 2 * payload * 4
        # one global cluster: clients that selected the same round hold the
        # same model, and 4 clients over 2 rounds share at least one round
        by_round = {}
        for c in clients:
            by_round.setdefault(result.best_round[c.id], []).append(best_models[c.id])
        assert set(by_round) <= {1, 2} and max(map(len, by_round.values())) >= 2
        for members in by_round.values():
            for other in members[1:]:
                assert params_equal(other.params, members[0].params)

    def test_frozen_backbone_invariant_through_rounds(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=2, learning_rate=2e-3, grad_accumulation=1)
        _, best_models = run_experiment(
            parties(clients, vocab), model, cfg, vocab,
            self._assignment(clients),
        )
        frozen = set(model.params.names) - set(model.trainable_names())
        assert frozen
        for cid, final_model in best_models.items():
            for name in frozen:
                assert np.array_equal(final_model.params.values(name), model.params.values(name))

    def test_determinism(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=2, learning_rate=1e-3, grad_accumulation=2, seed=9)
        r1, m1 = run_experiment(parties(clients, vocab), model, cfg, vocab,
                                self._assignment(clients))
        r2, m2 = run_experiment(parties(clients, vocab), model, cfg, vocab,
                                self._assignment(clients))
        assert r1.best_round == r2.best_round
        assert r1.dev_loss == r2.dev_loss
        assert r1.train_loss == r2.train_loss
        assert r1.ledger.entries == r2.ledger.entries
        assert sorted(m1) == sorted(m2) == sorted(c.id for c in clients)
        for cid in m1:
            assert params_equal(m1[cid].params, m2[cid].params)

    def test_pooled_party_trains_one_model_for_all_its_clients(self, tiny_setup):
        clients, vocab, model = tiny_setup
        cfg = FedConfig(rounds=3, learning_rate=1e-3, grad_accumulation=2)
        result, best_models = run_experiment([Party.pooled(clients, vocab)], model, cfg, vocab,
                                             None)
        ids = sorted(c.id for c in clients)
        assert len(result.dev_loss) == len(result.train_loss) == 4  # rounds 0..3
        assert all(list(dev) == ids for dev in result.dev_loss)
        assert result.train_loss[0] == {}
        assert all(list(train) == ids and len(set(train.values())) == 1
                   for train in result.train_loss[1:])
        assert len(set(result.best_round.values())) == 1
        assert list(best_models) == ids
        assert len({id(selected) for selected in best_models.values()}) == 1
        assert not params_equal(best_models[ids[0]].params, model.params)

    def test_pooled_party_numeric_error_names_the_round(self, tiny_setup, monkeypatch):
        clients, vocab, model = tiny_setup

        def diverge(*args, **kwargs):
            raise NumericError("non-finite loss")

        monkeypatch.setattr(federation, "train_epochs", diverge)
        cfg = FedConfig(rounds=2, learning_rate=1e-3)
        with pytest.raises(NumericError, match=r"^round 1, party pooled: non-finite loss$"):
            run_experiment([Party.pooled(clients, vocab)], model, cfg, vocab, None)

    def test_fedconfig_validation(self):
        with pytest.raises(ConfigurationError):
            FedConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            FedConfig(aggregation="median")
        with pytest.raises(ConfigurationError):
            FedConfig(learning_rate=-1e-3)
