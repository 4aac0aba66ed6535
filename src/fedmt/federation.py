"""Training loop, server/client rounds, and communication metering.

One round is: every party runs ``local_epochs`` epochs of
gradient-accumulated steps on its pooled training set, then the server
averages trainable parameters within each encoder cluster and each decoder
cluster (the decoder side holds the tied token embedding), and broadcasts
the result back to the cluster members. Frozen tensors never move and
never count toward communication. Clients are simulated in-process; a
"transfer" is a ledger event, not I/O. A federated run has one party per
client; the centralized baseline is one party of every client, run through
the same round loop with no aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterAssignment
from .data import Vocab, batches, derive_seed, make_batch
from .errors import ConfigurationError, NumericError
from .model import Batch, ToyModel, grad, loss, merge_batches
from .params import NamedParamSet, count_params
from .presets import Client

AGGREGATIONS = ("fedavg", "fedmean")


@dataclass(frozen=True)
class FedConfig:
    rounds: int = 5
    aggregation: str = "fedmean"
    local_epochs: int = 1
    batch_size: int = 8
    grad_accumulation: int = 2
    learning_rate: float = 2e-3  # adapter methods
    full_model_learning_rate: float | None = 1e-3  # backbone-trainable methods; None: same
    optimizer: str = "adam"
    seed: int = 0
    bandwidth_bps: float = 1e9
    bytes_per_param: int = 4
    eval_batch_size: int = 32  # small enough that activations stay in cache

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigurationError(f"unknown aggregation {self.aggregation!r}")
        if self.optimizer != "adam":
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if min(self.batch_size, self.grad_accumulation, self.local_epochs,
               self.eval_batch_size) < 1:
            raise ConfigurationError(
                "batch_size, grad_accumulation, local_epochs, eval_batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")
        if self.full_model_learning_rate is not None and self.full_model_learning_rate < 0:
            raise ConfigurationError("full_model_learning_rate must be >= 0")
        if self.bandwidth_bps <= 0 or self.bytes_per_param <= 0:
            raise ConfigurationError("bandwidth and bytes_per_param must be positive")

    def rate_for(self, uses_adapters: bool) -> float:
        if uses_adapters or self.full_model_learning_rate is None:
            return self.learning_rate
        return self.full_model_learning_rate

    def transfer(self, param_count: int) -> tuple[int, float]:
        """The bandwidth model: bytes and seconds to send ``param_count``
        values one way. Every payload and transfer time a run reports or
        ``count-params`` prints comes from here."""
        n_bytes = param_count * self.bytes_per_param
        return n_bytes, n_bytes * 8.0 / self.bandwidth_bps


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, flat: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Updated copy of the flat trainable values; ``flat`` is unchanged
        and ``grad`` is overwritten.

        The moments are updated in place and the denominator is written into
        the spent ``grad``, each operation in the order of
        ``lr * (m / c1) / (sqrt(v / c2) + eps)``, so the result is bitwise
        that formula's."""
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += grad * (1 - ADAM_BETA1)
        v *= ADAM_BETA2
        v += (grad * (1 - ADAM_BETA2)) * grad
        denom = np.divide(v, correction2, out=grad)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step = m / correction1
        step *= self.lr
        step /= denom
        return np.subtract(flat, step, out=step)


# ---------------------------------------------------------------------------
# training


def train_epochs(
    model: ToyModel,
    corpus: Batch,
    epoch_seeds: Sequence[int],
    batch_size: int,
    grad_accumulation: int,
    learning_rate: float,
) -> tuple[ToyModel, float]:
    """One shuffled epoch per seed of gradient-accumulated steps over the
    rows of an encoded corpus, starting from a fresh Adam. The single
    training loop of the simulator: the backbone warm-up and every party's
    local update run it. Returns the trained model and its token-mean train
    loss over the epochs.

    The optimizer steps once per ``grad_accumulation`` micro-batches (the
    trailing partial window still steps) on the token-mean gradient. A zero
    learning rate never steps. Frozen tensors are untouched. The trainable
    values live in one flat buffer, so each optimizer step is one
    elementwise update; the step returns the new values in a buffer of its
    own, and the next model is built on views of it.
    """
    names = model.trainable_names()
    shapes = [model.params.values(name).shape for name in names]
    bounds = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
    flat = np.concatenate([model.params.values(name).ravel() for name in names])
    optimizer = _Adam(learning_rate)
    loss_total = 0.0
    tokens_total = 0
    for epoch_seed in epoch_seeds:
        micro = batches(corpus, batch_size, seed=epoch_seed)
        for start in range(0, len(micro), grad_accumulation):
            window = merge_batches(micro[start : start + grad_accumulation])
            window_loss, flat_grad = grad(model, window, names)
            tokens = window.token_count
            loss_total += window_loss
            tokens_total += tokens
            if learning_rate > 0:
                flat_grad /= tokens
                flat = optimizer.step(flat, flat_grad)
                del flat_grad  # now the step's denominator
                values = {name: flat[lo:hi].reshape(shape)
                          for name, lo, hi, shape in zip(names, bounds, bounds[1:], shapes)}
                model = model.with_params(model.params.replace_values(values))
    return model, loss_total / max(1, tokens_total)


@dataclass(frozen=True)
class Party:
    """Clients that train one model on their pooled training sets.

    A federated run has one party per client (:meth:`of`); a centralized run
    has one party of every client (:meth:`pooled`). ``clients`` are in id
    order. ``corpus`` is the pooled train set, encoded by one
    :func:`~fedmt.data.make_batch` call: each client's split in the order
    the clients came in, as one padded batch whose rows every epoch selects
    from. Epoch ``e`` of round ``r`` shuffles with
    ``derive_seed(seed, stream, r, e, *seed_tail)``.
    """

    id: str
    clients: tuple[Client, ...]
    corpus: Batch
    stream: int
    seed_tail: tuple[int, ...]

    @classmethod
    def of(cls, client: Client, vocab: Vocab) -> Party:
        return cls(client.id, (client,), make_batch([(client.data.train, client.tgt.code)], vocab),
                   0x10CA1, (_stable_id(client.id),))

    @classmethod
    def pooled(cls, clients: Sequence[Client], vocab: Vocab) -> Party:
        corpus = make_batch([(c.data.train, c.tgt.code) for c in clients], vocab)
        return cls("pooled", tuple(sorted(clients, key=lambda c: c.id)), corpus, 0xCE27, ())


def local_update(
    party: Party,
    model: ToyModel,
    cfg: FedConfig,
    round_index: int,
) -> tuple[ToyModel, float]:
    """``cfg.local_epochs`` epochs of :func:`train_epochs` on the party's
    pooled train set, with a fresh optimizer each round."""
    epoch_seeds = [
        derive_seed(cfg.seed, party.stream, round_index, epoch, *party.seed_tail)
        for epoch in range(cfg.local_epochs)
    ]
    try:
        return train_epochs(model, party.corpus, epoch_seeds, cfg.batch_size,
                            cfg.grad_accumulation, cfg.learning_rate)
    except NumericError as err:
        raise NumericError(f"round {round_index}, party {party.id}: {err}") from err


def _stable_id(text: str) -> int:
    value = 0
    for ch in text:
        value = (value * 131 + ord(ch)) % (2**31)
    return value


# ---------------------------------------------------------------------------
# aggregation


def inner_cluster_aggregate(
    params_by_client: Mapping[str, NamedParamSet],
    names_by_side: Mapping[str, Sequence[str]],
    assignment: ClusterAssignment,
    rule: str,
    sizes_by_client: Mapping[str, int],
) -> dict[str, NamedParamSet]:
    """Average the tensors ``names_by_side`` names within each cluster and
    broadcast the result to the members.

    The ``encoder`` names follow the encoder clusters and ``decoder`` the
    decoder clusters (a model gives them with ``ToyModel.trainable_by_side``).
    The ``fedmean`` rule weighs members equally, ``fedavg`` by data size
    n_i / sum(n) within the cluster, n_i from ``sizes_by_client``. With a
    single global cluster these are plain FedMean and FedAvg. Tensors not
    named are left as they are. ``assignment`` partitions the client ids;
    :func:`run_experiment` checks that once, before round 1. The sets are
    trusted to hold the names and shapes of one model, as every party's
    model is trained from the run's one initial model.
    """
    client_ids = sorted(params_by_client)
    updates: dict[str, dict[str, np.ndarray]] = {cid: {} for cid in client_ids}
    for clusters, names in ((assignment.encoder_clusters, names_by_side["encoder"]),
                            (assignment.decoder_clusters, names_by_side["decoder"])):
        for cluster in clusters:
            if rule == "fedavg":
                total = float(sum(sizes_by_client[cid] for cid in cluster))
                weights = [sizes_by_client[cid] / total for cid in cluster]
            else:
                weights = [1.0 / len(cluster)] * len(cluster)
            for name in names:
                acc = np.zeros_like(params_by_client[cluster[0]].values(name))
                for w, cid in zip(weights, cluster):
                    acc += w * params_by_client[cid].values(name)
                for cid in cluster:
                    updates[cid][name] = acc
    return {
        cid: params_by_client[cid].replace_values(updates[cid]) for cid in client_ids
    }


# ---------------------------------------------------------------------------
# communication ledger


@dataclass(frozen=True)
class LedgerEntry:
    round: int
    client: str
    direction: str  # uplink | downlink
    param_count: int
    bytes: int
    seconds: float


class CommLedger:
    """Per-round, per-client transfer accounting under ``cfg``'s bandwidth
    model."""

    def __init__(self, cfg: FedConfig):
        self.cfg = cfg
        self.entries: list[LedgerEntry] = []

    def record_sync(self, round_index: int, client: str, param_count: int) -> None:
        """One uplink plus one downlink of the client's trainable payload."""
        n_bytes, seconds = self.cfg.transfer(param_count)
        for direction in ("uplink", "downlink"):
            self.entries.append(
                LedgerEntry(round_index, client, direction, param_count, n_bytes, seconds)
            )

    def total_bytes(self) -> int:
        return sum(e.bytes for e in self.entries)

    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.entries)


# ---------------------------------------------------------------------------
# round loop


@dataclass
class FedRunResult:
    """Per-round losses of every client, parties in the run's order and each
    party's clients in id order; each client's selected round, its party's;
    the ledger. Entry ``r`` of ``dev_loss`` and ``train_loss`` is round
    ``r``; round 0, the initial model, has no train losses."""

    dev_loss: list[dict[str, float]]
    train_loss: list[dict[str, float]]
    best_round: dict[str, int]
    ledger: CommLedger


def evaluate_dev_loss(model: ToyModel, dev: Batch, eval_batch_size: int) -> float:
    """Token-mean loss over an encoded dev split."""
    total = 0.0
    tokens = 0
    for batch in batches(dev, eval_batch_size):
        total += loss(model, batch)
        tokens += batch.token_count
    return total / max(1, tokens)


def run_experiment(
    parties: Sequence[Party],
    initial: ToyModel,
    cfg: FedConfig,
    vocab: Vocab,
    assignment: ClusterAssignment | None,
) -> tuple[FedRunResult, dict[str, ToyModel]]:
    """T rounds of local updates plus (optional) inner-cluster aggregation,
    every party starting from ``initial``. The one round loop of the
    simulator: federated runs have one party per client, centralized runs
    one pooled party.

    ``assignment=None`` disables aggregation entirely (each party trains
    alone; the ledger stays empty); otherwise it clusters the party ids.
    Checkpoint selection is per party, on the mean dev loss over its
    clients: among rounds 1..T, the first round whose post-aggregation
    parameters give the lowest mean. Round 0, the initial model, is never
    selected, even when its dev loss is lower. Each client's dev split is
    encoded once, before round 0. Returns the run's record and each
    client's selected model, its party's; a run is read through these alone.
    """
    ids = [p.id for p in parties]
    if assignment is not None:
        assignment.validate_clients(ids)
    models = {pid: initial for pid in ids}
    sizes = {p.id: p.corpus.size for p in parties}
    names_by_side = initial.trainable_by_side()
    sync_count = count_params(initial.params, initial.trainable_names())
    ledger = CommLedger(cfg)
    dev_sets = {c.id: make_batch([(c.data.dev, c.tgt.code)], vocab)
                for p in parties for c in p.clients}

    def evaluate() -> dict[str, float]:
        return {c.id: evaluate_dev_loss(models[p.id], dev_sets[c.id], cfg.eval_batch_size)
                for p in parties for c in p.clients}

    dev_loss = [evaluate()]
    train_loss: list[dict[str, float]] = [{}]
    best: dict[str, tuple[float, int, ToyModel]] = {}  # party id -> (mean dev, round, model)

    for round_index in range(1, cfg.rounds + 1):
        train = {}
        for party in parties:
            models[party.id], loss = local_update(party, models[party.id], cfg, round_index)
            train.update((c.id, loss) for c in party.clients)
        if assignment is not None:
            params = {pid: models[pid].params for pid in ids}
            aggregated = inner_cluster_aggregate(
                params, names_by_side, assignment, rule=cfg.aggregation, sizes_by_client=sizes
            )
            for pid in ids:
                models[pid] = models[pid].with_params(aggregated[pid])
                ledger.record_sync(round_index, pid, sync_count)
        dev = evaluate()
        for party in parties:
            mean = sum(dev[c.id] for c in party.clients) / len(party.clients)
            if party.id not in best or mean < best[party.id][0]:
                best[party.id] = (mean, round_index, models[party.id])
        dev_loss.append(dev)
        train_loss.append(train)
    best_round = {c.id: best[p.id][1] for p in parties for c in p.clients}
    return (FedRunResult(dev_loss, train_loss, best_round, ledger),
            {c.id: best[p.id][2] for p in parties for c in p.clients})
