"""Experiment orchestration: data prep, backbone warm-up, method dispatch.

The shared backbone is produced in-simulator: a short centralized warm-up
of the full model on a small held-out mixed corpus, identical for every
method under the same seed. Adapter methods then freeze it and train
adapters (+ layer norms); ``model-fed`` and ``centralized-model`` start
from the same checkpoint with everything trainable. Federated methods run
one party per client and centralized ones a single pooled party, both
through :func:`fedmt.federation.run_experiment`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .bleu import macro_micro
from .clustering import ClusterAssignment, assemble, compute_gradient_feature
from .config import ExperimentConfig
from .data import BOS, EOS, LanguageSpec, Vocab, batches, build_vocab, derive_seed, make_batch
from .federation import FedRunResult, Party, run_experiment, train_epochs
from .model import ModelConfig, ToyModel, build_model, decode_greedy
from .params import NamedParamSet, count_params
from .presets import Client, make_clients, make_warmup_data

TEST_DECODE_BATCH_SIZE = 128

# One entry each: a run sets up its seeds one after another and never goes
# back to an earlier seed's corpora or backbone.
_DATA_CACHE: dict = {}
_WARMUP_CACHE: dict = {}


def prepare_data(cfg: ExperimentConfig, seed: int) -> tuple[list[LanguageSpec], list[Client], Vocab]:
    """Languages, clients, and the vocabulary for one seed (cached)."""
    key = (cfg.mode, dataclasses.astuple(cfg.data), seed)
    if key not in _DATA_CACHE:
        languages, clients = make_clients(cfg.mode, seed, cfg.data)
        vocab = build_vocab(languages)
        _DATA_CACHE.clear()
        _DATA_CACHE[key] = (languages, clients, vocab)
    return _DATA_CACHE[key]


def bind_model_config(cfg: ExperimentConfig, vocab: Vocab) -> ModelConfig:
    return dataclasses.replace(cfg.model, vocab_size=len(vocab))


def warmup_backbone(cfg: ExperimentConfig, seed: int) -> NamedParamSet:
    """Shared frozen backbone for one seed; method-independent. It is
    cached as one read-only copy of each tensor, which every model built on
    it shares (:func:`build_method_model`), so an in-place write into a
    frozen tensor raises instead of changing every later method's start.
    The random initial model is passed straight to the warm-up's training,
    which drops it at its first step."""
    model_key = dataclasses.astuple(cfg.model)
    key = (cfg.mode, dataclasses.astuple(cfg.data), model_key,
           dataclasses.astuple(cfg.warmup), seed)
    if key in _WARMUP_CACHE:
        return _WARMUP_CACHE[key]
    _, clients, vocab = prepare_data(cfg, seed)
    corpus = make_batch(make_warmup_data(clients, seed, cfg.warmup.sentences_per_pair, cfg.data),
                        vocab)
    epoch_seeds = [derive_seed(seed, 0xAB1E, epoch) for epoch in range(cfg.warmup.epochs)]
    model, _ = train_epochs(
        build_model(bind_model_config(cfg, vocab), _model_seed(seed), adapters=None),
        corpus, epoch_seeds, cfg.warmup.batch_size,
        cfg.warmup.grad_accumulation, cfg.warmup.learning_rate,
    )
    backbone = NamedParamSet({n: model.params.values(n).copy() for n in model.params.names})
    for name in backbone.names:
        backbone.values(name).flags.writeable = False
    _WARMUP_CACHE.clear()
    _WARMUP_CACHE[key] = backbone
    return backbone


def _model_seed(seed: int) -> int:
    return derive_seed(seed, 0xB0DE)


def build_method_model(cfg: ExperimentConfig, seed: int, vocab: Vocab,
                       backbone: NamedParamSet | None) -> ToyModel:
    """The shared initial checkpoint every client starts from: the adapters
    the pruning strategy keeps on a frozen ``backbone``, or for the
    full-model methods the trainable backbone alone. The model holds the
    ``backbone``'s own arrays, not copies. ``backbone`` None draws a random
    one, whose tensors and counts are the same."""
    return build_model(bind_model_config(cfg, vocab), _model_seed(seed),
                       adapters=cfg.pruning if cfg.uses_adapters else None, backbone=backbone)


def sync_param_count(cfg: ExperimentConfig, trainable_params: int) -> int:
    """Values each client sends per sync: its trainable count, or 0 for a
    method that never syncs."""
    return trainable_params if cfg.aggregates else 0


def make_assignment(
    cfg: ExperimentConfig,
    seed: int,
    clients: list[Client],
    probe_model: ToyModel,
    parties: list[Party],
) -> ClusterAssignment | None:
    """Cluster assignment for the configured method, or None when the method
    never aggregates (adapter-local, centralized). The gradient probe reads
    each client's party corpus, the train split the run trains on."""
    if not cfg.aggregates:
        return None
    features = None
    if cfg.strategy == "gradients":
        features = {party.id: compute_gradient_feature(party.id, party.corpus, probe_model)
                    for party in parties}
    return assemble(clients, cfg.strategy, ablation=cfg.ablation, seed=seed, features=features)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_test_bleu(
    models_by_client: dict[str, ToyModel],
    clients: list[Client],
    vocab: Vocab,
    length_cap: int,
) -> dict[str, tuple[list, list]]:
    """Greedy-decode every client's test set, encoded once and decoded in
    batches of ``TEST_DECODE_BATCH_SIZE`` rows: hypotheses and references by
    client id, in id order, as token ids. A reference is its gold row
    without the EOS."""
    outputs: dict[str, tuple[list, list]] = {}
    for client in sorted(clients, key=lambda c: c.id):
        model = models_by_client[client.id]
        hyps: list[list[int]] = []
        test = make_batch([(client.data.test, client.tgt.code)], vocab)
        for batch in batches(test, TEST_DECODE_BATCH_SIZE):
            hyps += decode_greedy(model, batch.src, batch.src_mask,
                                  bos_id=BOS, eos_id=EOS, max_len=length_cap)
        refs = [gold[mask][:-1].tolist() for gold, mask in zip(test.tgt_gold, test.tgt_mask)]
        outputs[client.id] = (hyps, refs)
    return outputs


# ---------------------------------------------------------------------------
# per-seed run


@dataclass
class SeedResult:
    """One seed's report figures. ``test_bleu`` is empty without test
    decoding; the seed means sum in the run's client order."""

    seed: int
    run: FedRunResult
    test_bleu: dict[str, float]
    macro: float | None
    micro: float | None
    assignment: ClusterAssignment | None
    trainable_params: int
    total_params: int

    @property
    def mean_round0_dev(self) -> float:
        losses = self.run.dev_loss[0]
        return sum(losses.values()) / len(losses)

    @property
    def mean_best_dev(self) -> float:
        best = self.run.best_round
        return sum(self.run.dev_loss[r][cid] for cid, r in best.items()) / len(best)


def run_seed(cfg: ExperimentConfig, seed: int) -> tuple[SeedResult, dict[str, ToyModel]]:
    """Run the configured method for one seed. Returns its report figures
    and each client's selected model, which only checkpoints read."""
    _, clients, vocab = prepare_data(cfg, seed)
    backbone = warmup_backbone(cfg, seed)
    initial = build_method_model(cfg, seed, vocab, backbone)
    fed_cfg = dataclasses.replace(
        cfg.fed, seed=seed, learning_rate=cfg.fed.rate_for(cfg.uses_adapters)
    )
    parties = ([Party.pooled(clients, vocab)] if cfg.is_centralized
               else [Party.of(client, vocab) for client in clients])
    assignment = make_assignment(cfg, seed, clients, initial, parties)
    run, best_models = run_experiment(parties, initial, fed_cfg, vocab, assignment)
    test_bleu: dict[str, float] = {}
    macro = micro = None
    if cfg.evaluate_test_bleu:
        length_cap = min(cfg.model.max_seq_len - 1, cfg.data.length_range[1] + 4)
        test_bleu, macro, micro = macro_micro(
            evaluate_test_bleu(best_models, clients, vocab, length_cap))
    return SeedResult(
        seed=seed,
        run=run,
        test_bleu=test_bleu,
        macro=macro,
        micro=micro,
        assignment=assignment,
        trainable_params=count_params(initial.params, initial.trainable_names()),
        total_params=count_params(initial.params),
    ), best_models
