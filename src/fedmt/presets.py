"""Built-in experiment presets and reference-scale parameter arithmetic.

Two client layouts ship with the simulator: ``m2en`` (eight clients, four
source-language families, all translating into English) and ``m2m`` (twelve
clients over ten languages in four groups). Client training-set sizes follow
the skewed per-pair corpus sizes of the reference layout, scaled by
``DataConfig.scale``.

``mbart50_summary`` reproduces the communication arithmetic at full
mBART-50 scale (d=1024, 12+12 layers, bottleneck 64) from the model's own
parameter layout, without ever building tensors of that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .data import (
    ClientDataset,
    DataConfig,
    LanguageSpec,
    SentencePair,
    derive_seed,
    generate_corpus,
    generate_languages,
)
from .model import ModelConfig, adapter_sites, param_layout, pruning_mask

if TYPE_CHECKING:  # fedmt.federation imports this module
    from .federation import FedConfig

# family -> member language codes
M2EN_FAMILY_PLAN: dict[str, tuple[str, ...]] = {
    "Sino-Tibetan": ("zh", "th"),
    "Afro-Asiatic": ("ar", "he"),
    "Uralic": ("fi", "et"),
    "Indo-European": ("ru", "sl"),
    "Germanic": ("en",),  # target side only
}

# (src, tgt, full-scale training size)
M2EN_PAIR_PLAN: tuple[tuple[str, str, int], ...] = (
    ("zh", "en", 9984),
    ("th", "en", 4992),
    ("ar", "en", 9984),
    ("he", "en", 1920),
    ("fi", "en", 1920),
    ("et", "en", 1920),
    ("ru", "en", 9984),
    ("sl", "en", 1920),
)

M2M_FAMILY_PLAN: dict[str, tuple[str, ...]] = {
    "Germanic": ("de", "nl", "en"),
    "Romance": ("fr", "it", "es"),
    "Slavic": ("pl", "sl"),
    "Baltic": ("lt", "lv"),
}

M2M_PAIR_PLAN: tuple[tuple[str, str, int], ...] = (
    ("de", "fr", 11648),
    ("nl", "pl", 3584),
    ("en", "lt", 3712),
    ("fr", "nl", 12160),
    ("it", "sl", 3456),
    ("es", "lv", 3584),
    ("pl", "en", 3712),
    ("sl", "es", 3584),
    ("sl", "lt", 3584),
    ("lt", "de", 3328),
    ("lv", "it", 3584),
    ("lv", "pl", 3712),
)

# mode -> (family plan, pair plan)
PLANS = {"m2en": (M2EN_FAMILY_PLAN, M2EN_PAIR_PLAN), "m2m": (M2M_FAMILY_PLAN, M2M_PAIR_PLAN)}
MODES = tuple(PLANS)


@dataclass(frozen=True)
class Client:
    """One federated client: a language pair plus its local dataset."""

    id: str
    src: LanguageSpec
    tgt: LanguageSpec
    data: ClientDataset


def make_clients(
    mode: str, seed: int, data: DataConfig
) -> tuple[list[LanguageSpec], list[Client]]:
    """Languages plus one client per preset pair, sizes scaled by
    ``data.scale`` and floored at 12."""
    family_plan, pair_plan = PLANS[mode]
    languages = generate_languages(family_plan, data, seed)
    by_code = {spec.code: spec for spec in languages}
    clients = []
    for idx, (src, tgt, full_size) in enumerate(pair_plan):
        n_train = max(12, int(round(full_size * data.scale)))
        corpus = generate_corpus(by_code[src], by_code[tgt], n_train, data,
                                 derive_seed(seed, 0xC11E, idx))
        clients.append(Client(id=f"{src}-{tgt}", src=by_code[src], tgt=by_code[tgt], data=corpus))
    return languages, clients


def make_warmup_data(
    mode: str,
    languages: list[LanguageSpec],
    seed: int,
    sentences_per_pair: int,
    data: DataConfig,
) -> list[tuple[tuple[SentencePair, ...], str]]:
    """Small mixed corpus over the preset pairs, sampled from a stream
    disjoint from the client corpora; used to pre-train the shared backbone.
    One (train pairs, target code) part per pair, as
    :func:`~fedmt.data.make_batch` takes them."""
    by_code = {spec.code: spec for spec in languages}
    return [(generate_corpus(by_code[src], by_code[tgt], sentences_per_pair, data,
                             derive_seed(seed, 0x3A93, idx)).train, tgt)
            for idx, (src, tgt, _) in enumerate(PLANS[mode][1])]


# ---------------------------------------------------------------------------
# reference-scale arithmetic (no tensors are ever built at this size)

MBART50_BACKBONE_PARAMS = 610_900_000
MBART50_CONFIG = ModelConfig(model_dim=1024, num_heads=16, ffn_dim=4096,
                             enc_layers=12, dec_layers=12, adapter_bottleneck=64)

# a Controller-style baseline exchanges 8 dedicated layers where the plain
# model would exchange its 24 original layers
CONTROLLER_LAYERS_EXCHANGED = 8
CONTROLLER_LAYERS_TOTAL = 24


def mbart50_summary(fed: FedConfig) -> dict[str, float]:
    """Communication accounting for the full-scale preset, counted on the
    simulator's own parameter layout at mBART-50 dimensions and priced by
    ``fed``'s bandwidth model."""
    cfg = MBART50_CONFIG
    layout = param_layout(cfg)
    sites = adapter_sites(cfg)
    kept = pruning_mask(cfg, "input_end")  # every third holds the same count

    def count(keep) -> int:
        return sum(math.prod(t.shape) for t in layout if keep(t))

    per_adapter = count(lambda t: t.site == sites[0])
    adapters_total = count(lambda t: t.site is not None)
    layernorm_total = count(lambda t: t.kind in ("ln_weight", "ln_bias"))
    adapters_third = count(lambda t: t.site is not None and kept[t.site.prefix])
    backbone_bytes, backbone_s = fed.transfer(MBART50_BACKBONE_PARAMS)
    adapter_bytes, adapter_s = fed.transfer(adapters_total)
    return {
        "model_dim": cfg.model_dim,
        "bottleneck": cfg.adapter_bottleneck,
        "enc_layers": cfg.enc_layers,
        "dec_layers": cfg.dec_layers,
        "backbone_params": MBART50_BACKBONE_PARAMS,
        "per_adapter_params": per_adapter,
        "adapter_modules": len(sites),
        "adapter_params": adapters_total,
        "adapter_plus_layernorm_params": adapters_total + layernorm_total,
        "adapter_params_third": adapters_third,
        "backbone_gb": backbone_bytes / 1e9,
        "adapter_gb": adapter_bytes / 1e9,
        "backbone_transfer_s": backbone_s,
        "backbone_transfer_s_12_clients": 12 * backbone_s,
        "adapter_transfer_s": adapter_s,
        "adapter_saving_fraction": 1.0 - adapters_total / MBART50_BACKBONE_PARAMS,
        "pruned_saving_fraction": 1.0 - adapters_third / adapters_total,
        "controller_saving_fraction": 1.0 - CONTROLLER_LAYERS_EXCHANGED / CONTROLLER_LAYERS_TOTAL,
    }
