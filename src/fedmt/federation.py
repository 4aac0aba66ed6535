"""Training loop, server/client rounds, and communication metering.

One round is: every client runs a local epoch of gradient-accumulated
steps, then the server averages trainable parameters within each encoder
cluster, each decoder cluster, and each shared cluster, and broadcasts the
result back to the cluster members. Frozen tensors never move and never
count toward communication. Clients are simulated in-process; a "transfer"
is a ledger event, not I/O. The centralized baseline runs the same training
loop over the pooled client data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .clustering import ClusterAssignment
from .data import MixedSample, Vocab, batches, derive_seed
from .errors import ConfigurationError, NumericError, StructuralMismatchError
from .model import ToyModel, grad, loss, merge_batches
from .params import NamedParamSet, count_params
from .presets import Client, transfer_seconds

AGGREGATIONS = ("fedavg", "fedmean")
OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class FedConfig:
    rounds: int = 5
    aggregation: str = "fedmean"
    local_epochs: int = 1
    batch_size: int = 8
    grad_accumulation: int = 2
    learning_rate: float = 1e-3  # adapter methods
    full_model_learning_rate: float | None = None  # backbone-trainable methods; None: same
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
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1 or self.grad_accumulation < 1 or self.local_epochs < 1:
            raise ConfigurationError("batch_size, grad_accumulation, local_epochs must be >= 1")
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


# ---------------------------------------------------------------------------
# optimizers


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, values: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        for name, g in grads.items():
            values[name] = values[name] - self.lr * g


class _Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, values: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            v = self.v[name]
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            step = self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)
            values[name] = values[name] - step


def make_optimizer(kind: str, learning_rate: float):
    if kind == "adam":
        return _Adam(learning_rate)
    if kind == "sgd":
        return _Sgd(learning_rate)
    raise ConfigurationError(f"unknown optimizer {kind!r}")


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class LocalStats:
    train_loss: float  # token-mean over the epoch(s)
    tokens: int
    optimizer_steps: int


def train_epochs(
    model: ToyModel,
    samples: Sequence[MixedSample],
    vocab: Vocab,
    epoch_seeds: Sequence[int],
    batch_size: int,
    grad_accumulation: int,
    optimizer_kind: str,
    learning_rate: float,
) -> tuple[ToyModel, LocalStats]:
    """One shuffled epoch per seed of gradient-accumulated steps, starting
    from a fresh optimizer. The single training loop of the simulator:
    backbone warm-up, client updates and centralized training all run it.

    The optimizer steps once per ``grad_accumulation`` micro-batches (the
    trailing partial window still steps) on the token-mean gradient. A zero
    learning rate never steps. Frozen tensors are untouched.
    """
    trainable = set(model.trainable_names())
    values = {name: model.params.values(name) for name in trainable}
    optimizer = make_optimizer(optimizer_kind, learning_rate)
    loss_total = 0.0
    tokens_total = 0
    steps = 0
    for epoch_seed in epoch_seeds:
        micro = batches(samples, vocab, batch_size, seed=epoch_seed)
        for start in range(0, len(micro), grad_accumulation):
            window = merge_batches(micro[start : start + grad_accumulation])
            result, grads = grad(model, window, needed=trainable)
            loss_total += result.total
            tokens_total += result.token_count
            if learning_rate > 0:
                scaled = {n: g / result.token_count for n, g in grads.items()}
                optimizer.step(values, scaled)
                model = model.with_params(model.params.replace_values(values))
            steps += 1
    return model, LocalStats(loss_total / max(1, tokens_total), tokens_total, steps)


def local_update(
    client: Client,
    model: ToyModel,
    cfg: FedConfig,
    vocab: Vocab,
    round_index: int,
) -> tuple[ToyModel, LocalStats]:
    """``cfg.local_epochs`` epochs of :func:`train_epochs` on the client's
    train set, with a fresh optimizer each round."""
    if not client.data.train:
        raise ConfigurationError(f"client {client.id!r} has no training data")
    epoch_seeds = [
        derive_seed(cfg.seed, 0x10CA1, round_index, epoch, _stable_id(client.id))
        for epoch in range(cfg.local_epochs)
    ]
    samples = [(s, t, client.tgt.code) for s, t in client.data.train]
    try:
        return train_epochs(model, samples, vocab, epoch_seeds, cfg.batch_size,
                            cfg.grad_accumulation, cfg.optimizer, cfg.learning_rate)
    except NumericError as err:
        raise NumericError(f"round {round_index}, client {client.id}: {err}") from err


def _stable_id(text: str) -> int:
    value = 0
    for ch in text:
        value = (value * 131 + ord(ch)) % (2**31)
    return value


# ---------------------------------------------------------------------------
# aggregation


def inner_cluster_aggregate(
    params_by_client: Mapping[str, NamedParamSet],
    assignment: ClusterAssignment,
    rule: str = "fedmean",
    sizes_by_client: Mapping[str, int] | None = None,
) -> dict[str, NamedParamSet]:
    """Average trainable tensors within each cluster and broadcast the
    result to the members.

    Encoder-side tensors follow the encoder clusters, decoder-side the
    decoder clusters, shared-side the assignment's shared clusters. The
    ``fedmean`` rule weighs members equally, ``fedavg`` by data size
    n_i / sum(n) within the cluster. With a single global cluster these are
    plain FedMean and FedAvg. Frozen tensors are left as they are.
    """
    if rule not in AGGREGATIONS:
        raise ConfigurationError(f"unknown aggregation rule {rule!r}")
    assignment.validate_clients(list(params_by_client))
    client_ids = sorted(params_by_client)
    base = params_by_client[client_ids[0]]
    for cid in client_ids[1:]:
        other = params_by_client[cid]
        if not base.compatible_with(other) or any(
            a.trainable != b.trainable for a, b in zip(base, other)
        ):
            raise StructuralMismatchError(
                f"client {cid!r} params incompatible with {client_ids[0]!r}"
            )
    if rule == "fedavg":
        if sizes_by_client is None:
            raise ConfigurationError("fedavg aggregation needs client data sizes")
        if any(sizes_by_client.get(cid, 0) <= 0 for cid in client_ids):
            raise ConfigurationError("client data sizes must be positive")

    names_by_side = {
        side: [t.name for t in base if t.trainable and t.side == side]
        for side in ("encoder", "decoder", "shared")
    }
    updates: dict[str, dict[str, np.ndarray]] = {cid: {} for cid in client_ids}
    for clusters, side in (
        (assignment.encoder_clusters, "encoder"),
        (assignment.decoder_clusters, "decoder"),
        (assignment.shared_clusters, "shared"),
    ):
        names = names_by_side[side]
        if not names:
            continue
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


def estimate_transfer(
    payload_bytes: float, n_clients: int, bandwidth_bps: float
) -> tuple[float, float]:
    """(per-client seconds, serialized total) under shared bandwidth."""
    per_client = transfer_seconds(payload_bytes, bandwidth_bps)
    return per_client, per_client * n_clients


class CommLedger:
    """Per-round, per-client transfer accounting under a bandwidth model."""

    def __init__(self, bandwidth_bps: float = 1e9, bytes_per_param: int = 4):
        if bandwidth_bps <= 0 or bytes_per_param <= 0:
            raise ConfigurationError("bandwidth and bytes_per_param must be positive")
        self.bandwidth_bps = bandwidth_bps
        self.bytes_per_param = bytes_per_param
        self.entries: list[LedgerEntry] = []

    def record_sync(self, round_index: int, client: str, param_count: int) -> None:
        """One uplink plus one downlink of the client's trainable payload."""
        n_bytes = param_count * self.bytes_per_param
        seconds = transfer_seconds(n_bytes, self.bandwidth_bps)
        for direction in ("uplink", "downlink"):
            self.entries.append(
                LedgerEntry(round_index, client, direction, param_count, n_bytes, seconds)
            )

    def total_bytes(self, direction: str | None = None) -> int:
        return sum(e.bytes for e in self.entries if direction in (None, e.direction))

    def total_seconds(self, direction: str | None = None) -> float:
        return sum(e.seconds for e in self.entries if direction in (None, e.direction))


# ---------------------------------------------------------------------------
# round loop


@dataclass
class RoundState:
    index: int
    params: dict[str, NamedParamSet]
    dev_loss: dict[str, float]
    train_loss: dict[str, float]


@dataclass
class FedRunResult:
    rounds: list[RoundState]
    ledger: CommLedger
    best_round: dict[str, int]
    best_dev_loss: dict[str, float]
    best_models: dict[str, ToyModel]
    round0_dev_loss: dict[str, float]


def evaluate_dev_loss(model: ToyModel, client: Client, vocab: Vocab, eval_batch_size: int) -> float:
    """Token-mean loss over the client's dev split."""
    total = 0.0
    tokens = 0
    samples = [(s, t, client.tgt.code) for s, t in client.data.dev]
    for batch in batches(samples, vocab, eval_batch_size):
        result = loss(model, batch)
        total += result.total
        tokens += result.token_count
    return total / max(1, tokens)


def run_experiment(
    clients: Sequence[Client],
    initial_models: Mapping[str, ToyModel],
    cfg: FedConfig,
    vocab: Vocab,
    assignment: ClusterAssignment | None,
    round_hook: Callable[[RoundState], None] | None = None,
) -> FedRunResult:
    """T rounds of local updates plus (optional) inner-cluster aggregation.

    ``assignment=None`` disables aggregation entirely (purely local
    training; the ledger stays empty). Checkpoint selection is per client:
    the round whose post-aggregation parameters give the lowest dev loss.
    """
    ids = [c.id for c in clients]
    if sorted(ids) != sorted(initial_models):
        raise ConfigurationError("initial_models must cover exactly the client set")
    if assignment is not None:
        assignment.validate_clients(ids)
    by_id = {c.id: c for c in clients}
    models = {cid: initial_models[cid] for cid in ids}
    sizes = {cid: by_id[cid].n_train for cid in ids}
    ledger = CommLedger(cfg.bandwidth_bps, cfg.bytes_per_param)

    round0 = {
        cid: evaluate_dev_loss(models[cid], by_id[cid], vocab, cfg.eval_batch_size)
        for cid in ids
    }
    best_round = {cid: 0 for cid in ids}
    best_dev = dict(round0)
    best_models = {cid: models[cid] for cid in ids}
    history: list[RoundState] = []

    for round_index in range(1, cfg.rounds + 1):
        train_losses = {}
        for cid in ids:
            models[cid], stats = local_update(
                by_id[cid], models[cid], cfg, vocab, round_index
            )
            train_losses[cid] = stats.train_loss
        if assignment is not None:
            params = {cid: models[cid].params for cid in ids}
            aggregated = inner_cluster_aggregate(
                params, assignment, rule=cfg.aggregation, sizes_by_client=sizes
            )
            sync_count = count_params(params[ids[0]], "trainable_only")
            for cid in ids:
                models[cid] = models[cid].with_params(aggregated[cid])
                ledger.record_sync(round_index, cid, sync_count)
        dev_losses = {
            cid: evaluate_dev_loss(models[cid], by_id[cid], vocab, cfg.eval_batch_size)
            for cid in ids
        }
        for cid in ids:
            if dev_losses[cid] < best_dev[cid] or best_round[cid] == 0:
                best_dev[cid] = dev_losses[cid]
                best_round[cid] = round_index
                best_models[cid] = models[cid]
        state = RoundState(round_index, {cid: models[cid].params for cid in ids},
                           dev_losses, train_losses)
        history.append(state)
        if round_hook is not None:
            round_hook(state)
    return FedRunResult(history, ledger, best_round, best_dev, best_models, round0)


def run_centralized(
    clients: Sequence[Client],
    initial: ToyModel,
    cfg: FedConfig,
    vocab: Vocab,
) -> FedRunResult:
    """The centralized baseline: one model trained on the pooled client
    data, one epoch per round from a fresh optimizer (the same schedule as
    federated local updates), evaluated on every client's dev split.

    Nothing is transferred, so the ledger stays empty. Every client shares
    the checkpoint of the round with the lowest mean dev loss.
    """
    samples = [(s, t, c.tgt.code) for c in clients for s, t in c.data.train]
    by_id = {c.id: c for c in clients}
    ids = sorted(by_id)
    model = initial
    round0 = {cid: evaluate_dev_loss(model, by_id[cid], vocab, cfg.eval_batch_size) for cid in ids}
    best_mean = None
    best_round = 0
    best_model = model
    best_dev = dict(round0)
    history: list[RoundState] = []
    for round_index in range(1, cfg.rounds + 1):
        model, stats = train_epochs(
            model, samples, vocab, [derive_seed(cfg.seed, 0xCE27, round_index)],
            cfg.batch_size, cfg.grad_accumulation, cfg.optimizer, cfg.learning_rate,
        )
        dev = {cid: evaluate_dev_loss(model, by_id[cid], vocab, cfg.eval_batch_size) for cid in ids}
        history.append(RoundState(round_index, {cid: model.params for cid in ids}, dev,
                                  {cid: stats.train_loss for cid in ids}))
        mean_dev = sum(dev.values()) / len(dev)
        if best_mean is None or mean_dev < best_mean:
            best_mean, best_round, best_model, best_dev = mean_dev, round_index, model, dev
    return FedRunResult(
        history,
        CommLedger(cfg.bandwidth_bps, cfg.bytes_per_param),
        {cid: best_round for cid in ids},
        best_dev,
        {cid: best_model for cid in ids},
        round0,
    )
