"""Client clustering: language families, gradient features, random.

Encoder clusters and decoder clusters are independent partitions of the
client set. In the m2en layout every target is English, so the decoder side
of the family and random strategies collapses to one global cluster; the
gradient strategy clusters both sides with the same partition. Shared
(embedding) tensors follow the decoder clustering in m2m and the global
cluster in m2en.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import batches
from .errors import DegenerateFeatureError, PartitionError
from .model import Batch, ToyModel, grad
from .params import count_params
from .presets import Client

ABLATIONS = ("both", "encoder_only", "decoder_only")

Cluster = tuple[str, ...]

PROBE_BATCH_SIZE = 32


def _normalize(clusters: Sequence[Sequence[str]]) -> tuple[Cluster, ...]:
    ordered = [tuple(sorted(c)) for c in clusters]
    ordered.sort(key=lambda c: c[0] if c else "")
    return tuple(ordered)


def _check_partition(clusters: Sequence[Cluster], ids: set[str], label: str) -> None:
    if any(len(c) == 0 for c in clusters):
        raise PartitionError(f"{label}: empty cluster")
    flat = [i for c in clusters for i in c]
    if len(flat) != len(set(flat)):
        raise PartitionError(f"{label}: overlapping clusters")
    if set(flat) != ids:
        raise PartitionError(f"{label}: clusters do not cover the client set exactly")


@dataclass(frozen=True)
class ClusterAssignment:
    """Encoder/decoder cluster sets over client ids; both must partition the
    same client set with no empty clusters."""

    encoder_clusters: tuple[Cluster, ...]
    decoder_clusters: tuple[Cluster, ...]
    strategy: str
    mode: str  # m2en | m2m

    def __post_init__(self) -> None:
        object.__setattr__(self, "encoder_clusters", _normalize(self.encoder_clusters))
        object.__setattr__(self, "decoder_clusters", _normalize(self.decoder_clusters))
        ids = {i for c in self.encoder_clusters for i in c}
        _check_partition(self.encoder_clusters, ids, "encoder clusters")
        _check_partition(self.decoder_clusters, ids, "decoder clusters")

    @property
    def client_ids(self) -> tuple[str, ...]:
        return tuple(sorted(i for c in self.encoder_clusters for i in c))

    @property
    def shared_clusters(self) -> tuple[Cluster, ...]:
        if self.mode == "m2m":
            return self.decoder_clusters
        return (self.client_ids,)

    def validate_clients(self, client_ids: Sequence[str]) -> None:
        if set(client_ids) != set(self.client_ids):
            raise PartitionError("assignment does not match the client set")

    def describe(self) -> str:
        lines = [f"strategy: {self.strategy}", f"mode: {self.mode}"]
        for label, clusters in (("encoder", self.encoder_clusters), ("decoder", self.decoder_clusters)):
            lines.append(f"{label} clusters ({len(clusters)}):")
            for idx, cluster in enumerate(clusters):
                lines.append(f"  {label}[{idx}]: {', '.join(cluster)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# strategies


def cluster_by_family(clients: Sequence[Client], side: str) -> tuple[Cluster, ...]:
    """Group clients by source-language family (encoder side) or
    target-language family (decoder side)."""
    groups: dict[str, list[str]] = {}
    for client in clients:
        family = client.src.family if side == "encoder" else client.tgt.family
        groups.setdefault(family, []).append(client.id)
    return _normalize(groups.values())


def compute_gradient_feature(
    client_id: str,
    train: Batch,
    probe_model: ToyModel,
) -> np.ndarray:
    """Mean gradient over a client's encoded training set ``train``,
    restricted to the first active encoder adapter of the probe model
    (every pruning strategy keeps one), flattened in name order and
    L2-normalized: a unit float64 vector. A zero or non-finite one raises
    :class:`DegenerateFeatureError` naming ``client_id``.

    The probe model must be the same checkpoint for every client.
    """
    site = next(s for s in probe_model.active_sites() if s.side == "encoder")
    slice_names = [n for n in probe_model.params.names if n.startswith(site.prefix + ".")]
    accum = np.zeros(count_params(probe_model.params, slice_names), dtype=np.float64)
    for batch in batches(train, PROBE_BATCH_SIZE):
        accum += grad(probe_model, batch, slice_names)[1]
    accum /= train.size
    norm = float(np.linalg.norm(accum))
    if not np.isfinite(norm) or norm < 1e-12:
        raise DegenerateFeatureError(f"client {client_id!r}: zero gradient feature")
    return accum / norm


def _cosine_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return 1.0 - points @ centroids.T


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        dists = _cosine_distances(points, points[chosen]).min(axis=1)
        weights = np.maximum(dists, 0.0) ** 2
        total = weights.sum()
        if total <= 1e-15:
            remaining = [i for i in range(n) if i not in chosen]
            chosen.append(remaining[int(rng.integers(len(remaining)))])
            continue
        chosen.append(int(rng.choice(n, p=weights / total)))
    return points[chosen].copy()


def _renormalize(centroid: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(centroid)
    if norm < 1e-12:
        return fallback.copy()
    return centroid / norm


KMEANS_MAX_ITER = 100
KMEANS_RESTARTS = 8


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator):
    n = points.shape[0]
    centroids = _kmeans_pp_init(points, k, rng)
    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        new_assign = _cosine_distances(points, centroids).argmin(axis=1)
        # repair empty clusters from the largest one, farthest member first
        for cluster_idx in range(k):
            if np.any(new_assign == cluster_idx):
                continue
            sizes = np.bincount(new_assign, minlength=k)
            donor = int(sizes.argmax())
            members = np.flatnonzero(new_assign == donor)
            dists = _cosine_distances(points[members], centroids[donor : donor + 1])[:, 0]
            new_assign[members[int(dists.argmax())]] = cluster_idx
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for cluster_idx in range(k):
            members = np.flatnonzero(assign == cluster_idx)
            centroids[cluster_idx] = _renormalize(
                points[members].mean(axis=0), points[members[0]]
            )
    cost = float(_cosine_distances(points, centroids)[np.arange(n), assign].sum())
    return assign, cost


def cluster_by_gradient(features: Mapping[str, np.ndarray], k: int,
                        seed: int) -> tuple[Cluster, ...]:
    """Spherical k-means (cosine distance) with k-means++ seeding over unit
    ``features`` by client id, taken in id order.

    Deterministic per seed: all restarts draw from one seeded stream and the
    lowest-cost solution wins. Distance ties resolve to the lowest cluster
    index, and an emptied cluster is repaired by moving the point farthest
    from its centroid out of the largest cluster.
    """
    ids = sorted(features)
    points = np.stack([features[i] for i in ids])

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    best_assign, best_cost = None, None
    for _ in range(KMEANS_RESTARTS):
        assign, cost = _kmeans_once(points, k, rng)
        if best_cost is None or cost < best_cost - 1e-12:
            best_assign, best_cost = assign, cost
    clusters = [
        [ids[i] for i in np.flatnonzero(best_assign == cluster_idx)] for cluster_idx in range(k)
    ]
    return _normalize(clusters)


def cluster_random(client_ids: Sequence[str], k: int, seed: int) -> tuple[Cluster, ...]:
    """Seeded shuffle then round-robin; cluster sizes differ by at most one."""
    ids = sorted(client_ids)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A3D]))
    order = [ids[i] for i in rng.permutation(len(ids))]
    clusters: list[list[str]] = [[] for _ in range(k)]
    for idx, cid in enumerate(order):
        clusters[idx % k].append(cid)
    return _normalize(clusters)


# ---------------------------------------------------------------------------
# assembly


def assemble(
    clients: Sequence[Client],
    mode: str,
    strategy: str,
    ablation: str,
    seed: int,
    features: Mapping[str, np.ndarray] | None = None,
) -> ClusterAssignment:
    """Build the encoder/decoder cluster sets for a strategy and ablation.

    ``encoder_only`` collapses the decoder side to one global cluster and
    ``decoder_only`` the encoder side; strategy ``none`` (the no-clustering
    baseline) has one on each side. The random and gradient strategies make
    one cluster per distinct source family, as many as ``families`` makes.
    """
    all_ids = tuple(sorted(c.id for c in clients))
    global_clusters = (all_ids,)
    k = len({c.src.family for c in clients})

    if strategy == "none":
        encoder = decoder = global_clusters
    elif strategy == "families":
        encoder = cluster_by_family(clients, "encoder")
        decoder = cluster_by_family(clients, "decoder")
    elif strategy == "random":
        encoder = cluster_random(all_ids, k, seed)
        decoder = global_clusters if mode == "m2en" else cluster_random(all_ids, k, seed + 1)
    else:  # gradients
        encoder = cluster_by_gradient(features, k, seed)
        decoder = encoder
    if ablation == "encoder_only":
        decoder = global_clusters
    elif ablation == "decoder_only":
        encoder = global_clusters
    return ClusterAssignment(encoder, decoder, strategy, mode)
