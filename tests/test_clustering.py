"""Cluster assignments: family, gradient (cosine k-means), random."""

import itertools

import numpy as np
import pytest

from fedmt import clustering
from fedmt.clustering import (
    ClusterAssignment,
    assemble,
    cluster_by_family,
    cluster_by_gradient,
    cluster_random,
    compute_gradient_feature,
)
from fedmt.config import METHODS, ExperimentConfig
from fedmt.errors import DegenerateFeatureError, PartitionError
from fedmt.federation import Party
from fedmt.model import ModelConfig, adapter_sites, build_model, param_layout
from fedmt.data import DataConfig, build_vocab, make_batch
from fedmt.presets import MBART50_CONFIG, MODES, make_clients
from fedmt.reporting import write_clusters_txt
from fedmt.runner import build_method_model, make_assignment, prepare_data


@pytest.fixture(scope="module")
def m2en_clients():
    _, clients = make_clients("m2en", 0, DataConfig(scale=1 / 64))
    return clients


@pytest.fixture(scope="module")
def m2m_clients():
    _, clients = make_clients("m2m", 0, DataConfig(scale=1 / 64))
    return clients


class TestClusterAssignment:
    def test_valid_partition_accepted(self):
        a = ClusterAssignment((("a", "b"), ("c",)), (("a", "b", "c"),), "families")
        assert len(a.encoder_clusters) == 2 and len(a.decoder_clusters) == 1
        assert a.client_ids == ("a", "b", "c")

    def test_empty_cluster_rejected(self):
        with pytest.raises(PartitionError):
            ClusterAssignment((("a",), ()), (("a",),), "none")

    def test_overlap_rejected(self):
        with pytest.raises(PartitionError):
            ClusterAssignment((("a", "b"), ("b",)), (("a", "b"),), "none")

    def test_mismatched_sides_rejected(self):
        with pytest.raises(PartitionError):
            ClusterAssignment((("a", "b"),), (("a", "c"),), "none")

    @pytest.mark.parametrize("mode", MODES)
    def test_a_method_training_the_embedding_syncs_it_globally(self, mode):
        # The token embedding sits on the decoder side, and no third side
        # exists for it: every method that trains it must aggregate it over
        # all clients or not at all. A clustered full-model method fails here.
        trains_embedding = []
        for method in METHODS:
            cfg = ExperimentConfig(mode=mode, method=method, data=DataConfig(scale=1 / 64))
            _, clients, vocab = prepare_data(cfg, 1)
            initial = build_method_model(cfg, 1, vocab, backbone=None)
            if "emb.token.weight" not in initial.trainable_names():
                continue
            trains_embedding.append(method)
            parties = [Party.of(client, vocab) for client in clients]
            assignment = make_assignment(cfg, 1, clients, initial, parties)
            if assignment is not None:
                everyone = (assignment.client_ids,)
                assert assignment.encoder_clusters == assignment.decoder_clusters == everyone
        assert trains_embedding

    def test_describe_lists_members(self, tmp_path):
        a = ClusterAssignment((("a", "c"),), (("a",), ("c",)), "random")
        write_clusters_txt(tmp_path / "clusters.txt", a)
        assert (tmp_path / "clusters.txt").read_text(encoding="utf-8") == (
            "strategy: random\n"
            "encoder clusters (1):\n  encoder[0]: a, c\n"
            "decoder clusters (2):\n  decoder[0]: a\n  decoder[1]: c\n")


class TestFamilyClustering:
    def test_m2en_encoder_matches_reference_plan(self, m2en_clients):
        clusters = cluster_by_family(m2en_clients, "encoder")
        assert set(clusters) == {
            ("th-en", "zh-en"), ("ar-en", "he-en"), ("et-en", "fi-en"), ("ru-en", "sl-en"),
        }

    def test_m2en_decoder_is_one_global_cluster(self, m2en_clients):
        clusters = cluster_by_family(m2en_clients, "decoder")
        assert len(clusters) == 1
        assert len(clusters[0]) == 8

    def test_m2m_encoder_groups_by_source_group(self, m2m_clients):
        clusters = cluster_by_family(m2m_clients, "encoder")
        assert set(clusters) == {
            ("de-fr", "en-lt", "nl-pl"),        # Germanic sources
            ("es-lv", "fr-nl", "it-sl"),        # Romance sources
            ("pl-en", "sl-es", "sl-lt"),        # Slavic sources
            ("lt-de", "lv-it", "lv-pl"),        # Baltic sources
        }

    def test_m2m_decoder_groups_by_target_group(self, m2m_clients):
        clusters = cluster_by_family(m2m_clients, "decoder")
        assert set(clusters) == {
            ("fr-nl", "lt-de", "pl-en"),        # Germanic targets
            ("de-fr", "lv-it", "sl-es"),        # Romance targets
            ("it-sl", "lv-pl", "nl-pl"),        # Slavic targets
            ("en-lt", "es-lv", "sl-lt"),        # Baltic targets
        }

    def test_single_family_single_cluster(self, m2en_clients):
        same = [c for c in m2en_clients if c.src.family == "Uralic"]
        assert cluster_by_family(same, "encoder") == (("et-en", "fi-en"),)

    def test_order_independence(self, m2en_clients):
        forward = cluster_by_family(m2en_clients, "encoder")
        backward = cluster_by_family(list(reversed(m2en_clients)), "encoder")
        assert forward == backward


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def features_from_rows(rows):
    return {f"c{i}": unit(row) for i, row in enumerate(rows)}


@pytest.fixture(scope="module")
def probe():
    """A probe model and one client's encoded train split."""
    languages, clients = make_clients("m2en", 0, DataConfig(scale=1 / 64))
    vocab = build_vocab(languages)
    client = clients[0]
    return (build_model(ModelConfig(vocab_size=len(vocab)), 0),
            make_batch([(client.data.train, client.tgt.code)], vocab))


class TestGradientClustering:
    def test_feature_normalized(self, probe):
        model, train = probe
        vector = compute_gradient_feature("zh-en", train, model)
        assert vector.dtype == np.float64 and vector.ndim == 1
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)

    def test_zero_feature_rejected(self, probe, monkeypatch):
        self.assert_rejected(probe, monkeypatch, 0.0)

    def test_nonfinite_feature_rejected(self, probe, monkeypatch):
        self.assert_rejected(probe, monkeypatch, np.nan)

    @staticmethod
    def assert_rejected(probe, monkeypatch, fill):
        # every batch's gradient is ``fill``; the error names the client
        model, train = probe
        monkeypatch.setattr(clustering, "grad", lambda m, batch, names: (
            0.0, np.full(sum(m.params.values(n).size for n in names), fill)))
        with pytest.raises(DegenerateFeatureError, match="'zh-en'"):
            compute_gradient_feature("zh-en", train, model)

    def test_k_equals_n_gives_singletons(self):
        feats = features_from_rows(np.eye(5))
        clusters = cluster_by_gradient(feats, k=5, seed=0)
        assert clusters == (("c0",), ("c1",), ("c2",), ("c3",), ("c4",))

    def test_k_one_gives_single_cluster(self):
        feats = features_from_rows(np.eye(4))
        clusters = cluster_by_gradient(feats, k=1, seed=0)
        assert clusters == (("c0", "c1", "c2", "c3"),)

    def test_orthogonal_groups_recovered_and_optimal(self):
        rng = np.random.default_rng(0)
        rows = []
        for axis in (0, 1):
            for _ in range(4):
                v = np.zeros(8)
                v[axis * 4: axis * 4 + 4] = rng.normal(1.0, 0.05, 4)
                rows.append(v)
        feats = features_from_rows(rows)
        clusters = cluster_by_gradient(feats, k=2, seed=3)
        assert set(clusters) == {("c0", "c1", "c2", "c3"), ("c4", "c5", "c6", "c7")}
        assert kmeans_cost(feats, clusters) == pytest.approx(
            brute_force_best_cost(feats, 2), abs=1e-12
        )

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        feats = features_from_rows(rng.normal(size=(7, 5)))
        a = cluster_by_gradient(feats, k=3, seed=11)
        b = cluster_by_gradient(feats, k=3, seed=11)
        assert a == b

    def test_insertion_order_moves_no_cluster(self):
        rng = np.random.default_rng(4)
        feats = features_from_rows(rng.normal(size=(7, 5)))
        ids = list(feats)
        for seed in range(4):
            expected = cluster_by_gradient(feats, k=3, seed=seed)
            for order in (ids[::-1], [ids[i] for i in rng.permutation(len(ids))]):
                shuffled = {cid: feats[cid] for cid in order}
                assert cluster_by_gradient(shuffled, k=3, seed=seed) == expected


def kmeans_cost(features, clusters):
    total = 0.0
    for cluster in clusters:
        vecs = np.stack([features[c] for c in cluster])
        centroid = vecs.mean(axis=0)
        centroid /= np.linalg.norm(centroid)
        total += float((1.0 - vecs @ centroid).sum())
    return total


def brute_force_best_cost(features, k):
    """Exhaustive minimum of the spherical k-means objective (n <= 8)."""
    ids = list(features)
    best = None
    for labels in itertools.product(range(k), repeat=len(ids)):
        if len(set(labels)) != k:
            continue
        clusters = [
            tuple(i for i, l in zip(ids, labels) if l == g) for g in range(k)
        ]
        cost = kmeans_cost(features, [c for c in clusters if c])
        best = cost if best is None else min(best, cost)
    return best


class TestRandomClustering:
    def test_eight_clients_four_clusters_even(self):
        ids = [f"c{i}" for i in range(8)]
        clusters = cluster_random(ids, k=4, seed=0)
        assert sorted(len(c) for c in clusters) == [2, 2, 2, 2]

    def test_twelve_clients_four_clusters_even(self):
        ids = [f"c{i:02d}" for i in range(12)]
        clusters = cluster_random(ids, k=4, seed=5)
        assert sorted(len(c) for c in clusters) == [3, 3, 3, 3]

    def test_uneven_sizes_differ_by_at_most_one(self):
        ids = [f"c{i}" for i in range(7)]
        clusters = cluster_random(ids, k=3, seed=2)
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [2, 2, 3]

    def test_same_seed_same_partition(self):
        ids = [f"c{i}" for i in range(9)]
        assert cluster_random(ids, 3, seed=7) == cluster_random(ids, 3, seed=7)
        assert cluster_random(ids, 3, seed=7) != cluster_random(ids, 3, seed=8)

    def test_partition_is_valid(self):
        ids = [f"c{i}" for i in range(10)]
        clusters = cluster_random(ids, 4, seed=1)
        flat = sorted(i for c in clusters for i in c)
        assert flat == sorted(ids)


class TestAssemble:
    def test_none_strategy_single_global_clusters(self, m2en_clients):
        a = assemble(m2en_clients, "none", ablation="both", seed=0)
        assert len(a.encoder_clusters) == 1 and len(a.decoder_clusters) == 1

    def test_families_m2en(self, m2en_clients):
        a = assemble(m2en_clients, "families", ablation="both", seed=0)
        assert len(a.encoder_clusters) == 4 and len(a.decoder_clusters) == 1

    def test_gradients_m2en_clusters_decoder_too(self, m2en_clients):
        feats = features_from_rows(np.eye(8))
        a = assemble(m2en_clients, "gradients", ablation="both", seed=0,
                     features=feats)
        assert len(a.encoder_clusters) == len(a.decoder_clusters) == 4
        assert a.encoder_clusters == a.decoder_clusters

    def test_random_m2en_decoder_global(self, m2en_clients):
        # one target family (English): the decoder side is one cluster
        a = assemble(m2en_clients, "random", ablation="both", seed=1)
        assert len(a.encoder_clusters) == len({c.src.family for c in m2en_clients}) == 4
        assert a.decoder_clusters == (tuple(sorted(c.id for c in m2en_clients)),)

    def test_random_m2m_both_sides_clustered(self, m2m_clients):
        # k per side is that side's family count, 4 and 4; the decoder draws
        # from the next seed
        ids = [c.id for c in m2m_clients]
        assert len({c.tgt.family for c in m2m_clients}) == 4
        a = assemble(m2m_clients, "random", ablation="both", seed=1)
        assert a.encoder_clusters == cluster_random(ids, 4, 1)
        assert a.decoder_clusters == cluster_random(ids, 4, 2)

    def test_encoder_only_ablation(self, m2m_clients):
        a = assemble(m2m_clients, "families", ablation="encoder_only", seed=0)
        assert len(a.encoder_clusters) == 4 and len(a.decoder_clusters) == 1

    def test_decoder_only_ablation(self, m2m_clients):
        a = assemble(m2m_clients, "families", ablation="decoder_only", seed=0)
        assert len(a.encoder_clusters) == 1 and len(a.decoder_clusters) == 4

    def test_none_ablation_globalizes_both(self, m2m_clients):
        a = assemble(m2m_clients, "none", ablation="both", seed=0)
        assert len(a.encoder_clusters) == len(a.decoder_clusters) == 1


def test_probe_slice_dim_matches_reference_scale():
    # the probe slice is one bottleneck adapter: at d=1024, b=64, the first
    # encoder site of the layout holds about 131k parameters
    first = adapter_sites(MBART50_CONFIG)[0]
    assert first.side == "encoder"
    size = sum(np.prod(t.shape) for t in param_layout(MBART50_CONFIG) if t.site == first)
    assert size == 132_160
    assert abs(size - 131_000) / 131_000 < 0.01


def test_probe_batch_size_moves_no_feature_and_no_cluster(monkeypatch):
    # The feature is a float64 sum of per-batch float32 gradients, so the
    # probe batch changes only its low bits. Two families, four clients of
    # 30 to 156 training sentences, so most span several probe batches.
    languages, clients = make_clients("m2en", 0, DataConfig(scale=1 / 64))
    clients = [c for c in clients if c.src.family in ("Sino-Tibetan", "Afro-Asiatic")]
    assert len(clients) == 4
    vocab = build_vocab(languages)
    model = build_model(ModelConfig(vocab_size=len(vocab)), 0)
    trains = {c.id: make_batch([(c.data.train, c.tgt.code)], vocab) for c in clients}
    assert max(t.size for t in trains.values()) > 2 * clustering.PROBE_BATCH_SIZE

    def features():
        return {cid: compute_gradient_feature(cid, train, model) for cid, train in trains.items()}

    assert clustering.PROBE_BATCH_SIZE == 32
    default = features()
    monkeypatch.setattr(clustering, "PROBE_BATCH_SIZE", 64)
    wide = features()
    for cid in trains:
        np.testing.assert_allclose(default[cid], wide[cid], rtol=0, atol=1e-6)
    for seed in (1, 2, 3):
        assert cluster_by_gradient(default, 2, seed) == cluster_by_gradient(wide, 2, seed)
