"""Built-in experiment presets and reference-scale parameter arithmetic.

Two client layouts ship with the simulator: ``m2en`` (eight clients, four
source-language families, all translating into English) and ``m2m`` (twelve
clients over ten languages in four groups). Client training-set sizes follow
the skewed per-pair corpus sizes of the reference layout, scaled by a
configurable factor (default 1/16).

``mbart50_summary`` reproduces the communication arithmetic at full
mBART-50 scale (d=1024, 12+12 layers, bottleneck 64) without ever building
tensors of that size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import ClientDataset, LanguageSpec, derive_seed, generate_corpus, generate_languages
from .errors import ConfigurationError

MODES = ("m2en", "m2m")

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

DEFAULT_SCALE = 1.0 / 16.0


def family_plan(mode: str) -> dict[str, tuple[str, ...]]:
    if mode == "m2en":
        return dict(M2EN_FAMILY_PLAN)
    if mode == "m2m":
        return dict(M2M_FAMILY_PLAN)
    raise ConfigurationError(f"unknown mode {mode!r}; expected one of {MODES}")


def pair_plan(mode: str) -> tuple[tuple[str, str, int], ...]:
    if mode == "m2en":
        return M2EN_PAIR_PLAN
    if mode == "m2m":
        return M2M_PAIR_PLAN
    raise ConfigurationError(f"unknown mode {mode!r}; expected one of {MODES}")


def num_source_families(mode: str) -> int:
    plan = pair_plan(mode)
    fams = family_plan(mode)
    code_to_family = {c: f for f, members in fams.items() for c in members}
    return len({code_to_family[src] for src, _, _ in plan})


@dataclass(frozen=True)
class Client:
    """One federated client: a language pair plus its local dataset."""

    id: str
    src: LanguageSpec
    tgt: LanguageSpec
    data: ClientDataset

    @property
    def n_train(self) -> int:
        return self.data.n_train


def make_clients(
    mode: str,
    seed: int,
    scale: float = DEFAULT_SCALE,
    intra_family_overlap: float = 1.0,
    cross_family_overlap: float | None = None,
    alphabet_size: int = 64,
    length_range: tuple[int, int] = (4, 12),
    zipf_exponent: float = 1.0,
) -> tuple[list[LanguageSpec], list[Client]]:
    """Languages plus one client per preset pair, sizes scaled and floored at 12."""
    languages = generate_languages(
        family_plan(mode),
        intra_family_overlap=intra_family_overlap,
        seed=seed,
        alphabet_size=alphabet_size,
        cross_family_overlap=cross_family_overlap,
    )
    by_code = {spec.code: spec for spec in languages}
    clients = []
    for idx, (src, tgt, full_size) in enumerate(pair_plan(mode)):
        n_train = max(12, int(round(full_size * scale)))
        data = generate_corpus(
            by_code[src],
            by_code[tgt],
            n_train,
            length_range=length_range,
            seed=derive_seed(seed, 0xC11E, idx),
            alphabet_size=alphabet_size,
            zipf_exponent=zipf_exponent,
        )
        clients.append(Client(id=f"{src}-{tgt}", src=by_code[src], tgt=by_code[tgt], data=data))
    return languages, clients


def make_warmup_data(
    mode: str,
    languages: list[LanguageSpec],
    seed: int,
    sentences_per_pair: int = 64,
    alphabet_size: int = 64,
    length_range: tuple[int, int] = (4, 12),
    zipf_exponent: float = 1.0,
) -> list[ClientDataset]:
    """Small mixed corpus over the preset pairs, sampled from a stream
    disjoint from the client corpora; used to pre-train the shared backbone."""
    by_code = {spec.code: spec for spec in languages}
    corpora = []
    for idx, (src, tgt, _) in enumerate(pair_plan(mode)):
        corpora.append(
            generate_corpus(
                by_code[src],
                by_code[tgt],
                sentences_per_pair,
                length_range=length_range,
                seed=derive_seed(seed, 0x3A93, idx),
                alphabet_size=alphabet_size,
                zipf_exponent=zipf_exponent,
            )
        )
    return corpora


# ---------------------------------------------------------------------------
# reference-scale arithmetic (no tensors are ever built at this size)

MBART50_BACKBONE_PARAMS = 610_900_000
MBART50_MODEL_DIM = 1024
MBART50_BOTTLENECK = 64
MBART50_ENC_LAYERS = 12
MBART50_DEC_LAYERS = 12
FP32_BYTES = 4
DEFAULT_BANDWIDTH_BPS = 1e9  # 1000 Mbps

# a Controller-style baseline exchanges 8 dedicated layers where the plain
# model would exchange its 24 original layers
CONTROLLER_LAYERS_EXCHANGED = 8
CONTROLLER_LAYERS_TOTAL = 24


def adapter_param_count(model_dim: int, bottleneck: int) -> int:
    """Bottleneck adapter parameters, biases included: 2*d*b + b + d."""
    return 2 * model_dim * bottleneck + bottleneck + model_dim


def adapter_count(enc_layers: int, dec_layers: int) -> int:
    return 2 * enc_layers + 3 * dec_layers


def layernorm_param_count(model_dim: int, enc_layers: int, dec_layers: int) -> int:
    """Gain+bias for the per-layer norms plus the two final norms."""
    return (2 * enc_layers + 3 * dec_layers + 2) * 2 * model_dim


def transfer_seconds(total_bytes: float, bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS) -> float:
    if bandwidth_bps <= 0:
        raise ConfigurationError("bandwidth must be positive")
    return total_bytes * 8.0 / bandwidth_bps


def mbart50_summary() -> dict[str, float]:
    """Communication accounting for the full-scale preset."""
    d, b = MBART50_MODEL_DIM, MBART50_BOTTLENECK
    enc, dec = MBART50_ENC_LAYERS, MBART50_DEC_LAYERS
    per_adapter = adapter_param_count(d, b)
    n_adapters = adapter_count(enc, dec)
    adapters_total = n_adapters * per_adapter
    layernorm_total = layernorm_param_count(d, enc, dec)
    adapters_third = (2 * (enc // 3) + 3 * (dec // 3)) * per_adapter
    backbone_bytes = MBART50_BACKBONE_PARAMS * FP32_BYTES
    adapter_bytes = adapters_total * FP32_BYTES
    return {
        "model_dim": d,
        "bottleneck": b,
        "enc_layers": enc,
        "dec_layers": dec,
        "backbone_params": MBART50_BACKBONE_PARAMS,
        "per_adapter_params": per_adapter,
        "adapter_modules": n_adapters,
        "adapter_params": adapters_total,
        "adapter_plus_layernorm_params": adapters_total + layernorm_total,
        "adapter_params_third": adapters_third,
        "backbone_gb": backbone_bytes / 1e9,
        "adapter_gb": adapter_bytes / 1e9,
        "backbone_transfer_s": transfer_seconds(backbone_bytes),
        "backbone_transfer_s_12_clients": 12 * transfer_seconds(backbone_bytes),
        "adapter_transfer_s": transfer_seconds(adapter_bytes),
        "adapter_saving_fraction": 1.0 - adapters_total / MBART50_BACKBONE_PARAMS,
        "pruned_saving_fraction": 1.0 - adapters_third / adapters_total,
        "controller_saving_fraction": 1.0 - CONTROLLER_LAYERS_EXCHANGED / CONTROLLER_LAYERS_TOTAL,
    }
