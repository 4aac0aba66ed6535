"""Experiment orchestration: data prep, backbone warm-up, method dispatch.

The shared backbone is produced in-simulator: a short centralized warm-up
of the full model on a small held-out mixed corpus, identical for every
method under the same seed. Adapter methods then freeze it and train
adapters (+ layer norms); ``model-fed`` and ``centralized-model`` start
from the same checkpoint with everything trainable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .bleu import macro_micro, pair_scores
from .clustering import ClusterAssignment, assemble, compute_gradient_feature
from .config import ExperimentConfig
from .data import LanguageSpec, Vocab, build_vocab, derive_seed, make_batch
from .federation import CommLedger, FedRunResult, run_centralized, run_experiment, train_epochs
from .model import ModelConfig, ToyModel, apply_pruning, build_model, decode_greedy
from .params import NamedParamSet, count_params
from .presets import Client, make_clients, make_warmup_data, num_source_families

_DATA_CACHE: dict = {}
_WARMUP_CACHE: dict = {}


def _data_key(cfg: ExperimentConfig, seed: int):
    return (cfg.mode, dataclasses.astuple(cfg.data), seed)


def prepare_data(cfg: ExperimentConfig, seed: int) -> tuple[list[LanguageSpec], list[Client], Vocab]:
    """Languages, clients, and the vocabulary for one seed (cached)."""
    key = _data_key(cfg, seed)
    if key not in _DATA_CACHE:
        languages, clients = make_clients(
            cfg.mode,
            seed=seed,
            scale=cfg.data.scale,
            intra_family_overlap=cfg.data.intra_family_overlap,
            cross_family_overlap=cfg.data.cross_family_overlap,
            alphabet_size=cfg.data.alphabet_size,
            length_range=cfg.data.length_range,
            zipf_exponent=cfg.data.zipf_exponent,
        )
        vocab = build_vocab([c.data for c in clients], languages)
        _DATA_CACHE[key] = (languages, clients, vocab)
    return _DATA_CACHE[key]


def bind_model_config(cfg: ExperimentConfig, vocab: Vocab) -> ModelConfig:
    return dataclasses.replace(cfg.model, vocab_size=len(vocab))


def warmup_backbone(cfg: ExperimentConfig, seed: int) -> NamedParamSet:
    """Shared frozen backbone for one seed (cached); method-independent."""
    model_key = dataclasses.astuple(cfg.model)
    key = (cfg.mode, dataclasses.astuple(cfg.data), model_key,
           dataclasses.astuple(cfg.warmup), seed)
    if key in _WARMUP_CACHE:
        return _WARMUP_CACHE[key]
    languages, _, vocab = prepare_data(cfg, seed)
    model_cfg = bind_model_config(cfg, vocab)
    model = build_model(model_cfg, _model_seed(seed), with_adapters=False, freeze_backbone=False)
    if cfg.warmup.epochs > 0:
        corpora = make_warmup_data(
            cfg.mode,
            languages,
            seed=seed,
            sentences_per_pair=cfg.warmup.sentences_per_pair,
            alphabet_size=cfg.data.alphabet_size,
            length_range=cfg.data.length_range,
            zipf_exponent=cfg.data.zipf_exponent,
        )
        samples = [(s, t, ds.tgt) for ds in corpora for s, t in ds.train]
        epoch_seeds = [derive_seed(seed, 0xAB1E, epoch) for epoch in range(cfg.warmup.epochs)]
        model, _ = train_epochs(
            model, samples, vocab, epoch_seeds, cfg.warmup.batch_size,
            cfg.warmup.grad_accumulation, "adam", cfg.warmup.learning_rate,
        )
    backbone = NamedParamSet(
        t.with_values(t.values.copy()).with_trainable(False) for t in model.params
    )
    _WARMUP_CACHE[key] = backbone
    return backbone


def _model_seed(seed: int) -> int:
    return derive_seed(seed, 0xB0DE)


def build_method_model(cfg: ExperimentConfig, seed: int, vocab: Vocab,
                       backbone: NamedParamSet) -> ToyModel:
    """The shared initial checkpoint every client starts from."""
    model_cfg = bind_model_config(cfg, vocab)
    if cfg.uses_adapters:
        model = build_model(
            model_cfg, _model_seed(seed), with_adapters=True,
            freeze_backbone=True, backbone=backbone,
        )
        if cfg.pruning != "all":
            model = apply_pruning(model, cfg.pruning)
        return model
    return build_model(
        model_cfg, _model_seed(seed), with_adapters=False,
        freeze_backbone=False, backbone=backbone,
    )


def make_assignment(
    cfg: ExperimentConfig,
    seed: int,
    clients: list[Client],
    probe_model: ToyModel,
    vocab: Vocab,
) -> ClusterAssignment | None:
    """Cluster assignment for the configured method, or None when the method
    never aggregates (adapter-local, centralized)."""
    if not cfg.aggregates:
        return None
    strategy = cfg.strategy
    features = None
    if strategy == "gradients":
        features = [
            compute_gradient_feature(client, probe_model, vocab)
            for client in sorted(clients, key=lambda c: c.id)
        ]
    k = num_source_families(cfg.mode)
    return assemble(
        clients,
        cfg.mode,
        strategy,
        ablation=cfg.ablation if strategy != "none" else "both",
        k=k,
        seed=seed,
        features=features,
    )


# ---------------------------------------------------------------------------
# evaluation


def evaluate_test_bleu(
    models_by_client: dict[str, ToyModel],
    clients: list[Client],
    vocab: Vocab,
    length_cap: int,
    batch_size: int = 128,
) -> tuple[dict[str, float], dict[str, tuple[list, list]]]:
    """Greedy-decode every client's test set and score BLEU per pair."""
    outputs: dict[str, tuple[list, list]] = {}
    for client in sorted(clients, key=lambda c: c.id):
        model = models_by_client[client.id]
        hyps: list[tuple[str, ...]] = []
        refs: list[tuple[str, ...]] = []
        test = client.data.test
        for start in range(0, len(test), batch_size):
            chunk = test[start : start + batch_size]
            batch = make_batch(chunk, vocab, client.tgt.code)
            decoded = decode_greedy(
                model, batch.src, batch.src_mask,
                bos_id=1, eos_id=2, max_len=length_cap,
            )
            hyps.extend(tuple(vocab.decode(ids)) for ids in decoded)
            refs.extend(t for _, t in chunk)
        outputs[client.id] = (hyps, refs)
    per_pair = {s.pair: s.bleu for s in pair_scores(outputs)}
    return per_pair, outputs


# ---------------------------------------------------------------------------
# per-seed run


@dataclass
class SeedResult:
    seed: int
    method: str
    round_rows: list[dict]
    final_rows: list[dict]
    per_pair_bleu: dict[str, float]
    macro: float | None
    micro: float | None
    ledger: CommLedger
    assignment: ClusterAssignment | None
    round0_dev_loss: dict[str, float]
    best_dev_loss: dict[str, float]
    best_round: dict[str, int]
    trainable_params: int
    total_params: int
    backbone: NamedParamSet
    final_models: dict[str, ToyModel]

    @property
    def mean_round0_dev(self) -> float:
        return sum(self.round0_dev_loss.values()) / len(self.round0_dev_loss)

    @property
    def mean_best_dev(self) -> float:
        return sum(self.best_dev_loss.values()) / len(self.best_dev_loss)


def _decode_cap(cfg: ExperimentConfig) -> int:
    return min(cfg.model.max_seq_len - 1, cfg.data.length_range[1] + 4)


def _seed_result(
    cfg: ExperimentConfig,
    seed: int,
    clients: list[Client],
    vocab: Vocab,
    backbone: NamedParamSet,
    initial: ToyModel,
    assignment: ClusterAssignment | None,
    result: FedRunResult,
) -> SeedResult:
    by_id = {c.id: c for c in clients}
    round_rows = []
    for cid in sorted(result.round0_dev_loss):
        round_rows.append({
            "round": 0, "client": cid, "pair": by_id[cid].data.pair,
            "train_loss": None, "dev_loss": result.round0_dev_loss[cid],
        })
    for state in result.rounds:
        for cid in sorted(state.dev_loss):
            round_rows.append({
                "round": state.index, "client": cid, "pair": by_id[cid].data.pair,
                "train_loss": state.train_loss[cid], "dev_loss": state.dev_loss[cid],
            })
    per_pair: dict[str, float] = {}
    macro = micro = None
    if cfg.evaluate_test_bleu:
        per_pair, outputs = evaluate_test_bleu(
            result.best_models, clients, vocab, _decode_cap(cfg)
        )
        macro, micro = macro_micro(outputs)
    final_rows = [
        {
            "client": cid, "pair": by_id[cid].data.pair,
            "best_round": result.best_round[cid],
            "dev_loss": result.best_dev_loss[cid],
            "test_bleu": per_pair.get(cid),
        }
        for cid in sorted(result.best_round)
    ]
    return SeedResult(
        seed=seed,
        method=cfg.method,
        round_rows=round_rows,
        final_rows=final_rows,
        per_pair_bleu=per_pair,
        macro=macro,
        micro=micro,
        ledger=result.ledger,
        assignment=assignment,
        round0_dev_loss=result.round0_dev_loss,
        best_dev_loss=result.best_dev_loss,
        best_round=result.best_round,
        trainable_params=count_params(initial.params, "trainable_only"),
        total_params=count_params(initial.params, "all"),
        backbone=backbone,
        final_models=dict(result.best_models),
    )


def run_seed(cfg: ExperimentConfig, seed: int) -> SeedResult:
    """Run the configured method for one seed and return in-memory results."""
    _, clients, vocab = prepare_data(cfg, seed)
    backbone = warmup_backbone(cfg, seed)
    initial = build_method_model(cfg, seed, vocab, backbone)
    fed_cfg = dataclasses.replace(
        cfg.fed, seed=seed, learning_rate=cfg.fed.rate_for(cfg.uses_adapters)
    )
    if cfg.is_centralized:
        assignment = None
        result = run_centralized(clients, initial, fed_cfg, vocab)
    else:
        assignment = make_assignment(cfg, seed, clients, initial, vocab)
        result = run_experiment(clients, {c.id: initial for c in clients}, fed_cfg, vocab,
                                assignment)
    return _seed_result(cfg, seed, clients, vocab, backbone, initial, assignment, result)
