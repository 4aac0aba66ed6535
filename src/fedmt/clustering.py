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
from typing import Sequence

import numpy as np

from .data import Vocab, batches
from .errors import ConfigurationError, DegenerateFeatureError, PartitionError
from .model import ToyModel, grad
from .presets import Client

STRATEGIES = ("none", "families", "gradients", "random")
ABLATIONS = ("both", "encoder_only", "decoder_only", "none")

Cluster = tuple[str, ...]

DEFAULT_PROBE_SLICE = "enc.layer0.attn_adapter"


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
    def m_e(self) -> int:
        return len(self.encoder_clusters)

    @property
    def m_d(self) -> int:
        return len(self.decoder_clusters)

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


@dataclass(frozen=True)
class GradientFeature:
    """Unit-norm mean loss-gradient of one client over a designated
    parameter slice of the shared probe model."""

    client_id: str
    vector: np.ndarray

    def __post_init__(self) -> None:
        norm = float(np.linalg.norm(self.vector))
        if not np.isfinite(norm) or norm < 1e-12:
            raise DegenerateFeatureError(f"client {self.client_id!r}: zero gradient feature")
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=np.float64) / norm)

    @property
    def dimension(self) -> int:
        return int(self.vector.size)


# ---------------------------------------------------------------------------
# strategies


def cluster_by_family(clients: Sequence[Client], side: str, mode: str) -> tuple[Cluster, ...]:
    """Group clients by source-language family (encoder side) or
    target-language family (decoder side)."""
    if side not in ("encoder", "decoder"):
        raise ConfigurationError(f"side must be encoder or decoder, got {side!r}")
    all_ids = tuple(sorted(c.id for c in clients))
    if side == "decoder" and mode == "m2en":
        return (all_ids,)
    groups: dict[str, list[str]] = {}
    for client in clients:
        family = client.src.family if side == "encoder" else client.tgt.family
        if not family:
            raise ConfigurationError(f"client {client.id!r} is missing a family tag")
        groups.setdefault(family, []).append(client.id)
    return _normalize(groups.values())


def compute_gradient_feature(
    client: Client,
    probe_model: ToyModel,
    vocab: Vocab,
    slice_prefix: str = DEFAULT_PROBE_SLICE,
    batch_size: int = 64,
) -> GradientFeature:
    """Mean gradient over the client's full training set, restricted to one
    adapter's parameters, flattened in name order and L2-normalized.

    The probe model must be the same checkpoint for every client.
    """
    slice_names = sorted(
        t.name for t in probe_model.params if t.name.startswith(slice_prefix + ".")
    )
    if not slice_names:
        raise ConfigurationError(f"probe slice {slice_prefix!r} not found in model")
    accum = {name: np.zeros(probe_model.params.values(name).shape, dtype=np.float64)
             for name in slice_names}
    needed = set(slice_names)
    samples = [(s, t, client.tgt.code) for s, t in client.data.train]
    for batch in batches(samples, vocab, batch_size):
        _, grads = grad(probe_model, batch, needed=needed)
        for name in slice_names:
            accum[name] += grads[name]
    flat = np.concatenate([accum[name].reshape(-1) for name in slice_names])
    flat /= max(1, len(client.data.train))
    return GradientFeature(client.id, flat)


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


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int):
    n = points.shape[0]
    centroids = _kmeans_pp_init(points, k, rng)
    assign = np.full(n, -1)
    for _ in range(max_iter):
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


def cluster_by_gradient(
    features: Sequence[GradientFeature],
    k: int,
    seed: int,
    max_iter: int = 100,
    restarts: int = 8,
) -> tuple[Cluster, ...]:
    """Spherical k-means (cosine distance) with k-means++ seeding.

    Deterministic per seed: all restarts draw from one seeded stream and the
    lowest-cost solution wins. Distance ties resolve to the lowest cluster
    index, and an emptied cluster is repaired by moving the point farthest
    from its centroid out of the largest cluster.
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if k > len(features):
        raise ConfigurationError(f"k={k} exceeds the number of clients ({len(features)})")
    dims = {f.dimension for f in features}
    if len(dims) != 1:
        raise ConfigurationError(f"feature dimensions differ: {sorted(dims)}")
    feats = sorted(features, key=lambda f: f.client_id)
    ids = [f.client_id for f in feats]
    points = np.stack([f.vector for f in feats])

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    best_assign, best_cost = None, None
    for _ in range(max(1, restarts)):
        assign, cost = _kmeans_once(points, k, rng, max_iter)
        if best_cost is None or cost < best_cost - 1e-12:
            best_assign, best_cost = assign, cost
    clusters = [
        [ids[i] for i in np.flatnonzero(best_assign == cluster_idx)] for cluster_idx in range(k)
    ]
    return _normalize(clusters)


def cluster_random(client_ids: Sequence[str], k: int, seed: int) -> tuple[Cluster, ...]:
    """Seeded shuffle then round-robin; cluster sizes differ by at most one."""
    ids = sorted(client_ids)
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if k > len(ids):
        raise ConfigurationError(f"k={k} exceeds the number of clients ({len(ids)})")
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
    ablation: str = "both",
    k: int | None = None,
    seed: int = 0,
    features: Sequence[GradientFeature] | None = None,
) -> ClusterAssignment:
    """Build the encoder/decoder cluster sets for a strategy and ablation.

    ``encoder_only`` collapses the decoder side to one global cluster,
    ``decoder_only`` the encoder side, and ``none`` both (the no-clustering
    baseline). ``k`` defaults to the number of distinct source families so
    every strategy produces the same number of clusters.
    """
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if ablation not in ABLATIONS:
        raise ConfigurationError(f"unknown ablation {ablation!r}; expected one of {ABLATIONS}")
    all_ids = tuple(sorted(c.id for c in clients))
    global_clusters = (all_ids,)
    if k is None:
        k = len({c.src.family for c in clients})

    if strategy == "none" or ablation == "none":
        encoder = decoder = global_clusters
    elif strategy == "families":
        encoder = cluster_by_family(clients, "encoder", mode)
        decoder = cluster_by_family(clients, "decoder", mode)
    elif strategy == "random":
        encoder = cluster_random(all_ids, k, seed)
        decoder = global_clusters if mode == "m2en" else cluster_random(all_ids, k, seed + 1)
    else:  # gradients
        if features is None:
            raise ConfigurationError("gradient clustering requires features")
        encoder = cluster_by_gradient(features, k, seed)
        decoder = encoder
    if strategy != "none":
        if ablation == "encoder_only":
            decoder = global_clusters
        elif ablation == "decoder_only":
            encoder = global_clusters
    return ClusterAssignment(encoder, decoder, strategy, mode)
