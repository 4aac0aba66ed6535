"""Experiment configuration: JSON parsing, validation, defaults, snapshots.

A minimal config only needs ``mode`` and ``method``; everything else
takes the field defaults of the config dataclasses, which are the only
defaults (batch size 8, learning rate 1e-3, 5 rounds, a gradient-
accumulation window of 2 to match the 1/16-scaled corpora). Unknown keys,
values of the wrong JSON type and invalid combinations are rejected with
the offending key path.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigurationError
from .federation import FedConfig
from .model import ModelConfig
from .presets import MODES

METHODS = (
    "model-fed",
    "adapter-fed",
    "adapter-local",
    "adapter-random",
    "adapter-gradients",
    "adapter-families",
    "centralized-model",
    "centralized-adapter",
)
ADAPTER_METHODS = (
    "adapter-fed",
    "adapter-local",
    "adapter-random",
    "adapter-gradients",
    "adapter-families",
    "centralized-adapter",
)
CLUSTERING_METHODS = ("adapter-random", "adapter-gradients", "adapter-families")
AGGREGATING_METHODS = ("model-fed", "adapter-fed") + CLUSTERING_METHODS
CENTRALIZED_METHODS = ("centralized-model", "centralized-adapter")
ABLATIONS = ("both", "encoder_only", "decoder_only")
PRUNINGS = ("all", "input_end", "middle", "output_end")

METHOD_STRATEGY = {
    "adapter-random": "random",
    "adapter-gradients": "gradients",
    "adapter-families": "families",
}


@dataclass(frozen=True)
class DataConfig:
    scale: float = 1.0 / 16.0
    alphabet_size: int = 64
    length_range: tuple[int, int] = (4, 12)
    intra_family_overlap: float = 1.0
    cross_family_overlap: float | None = None
    zipf_exponent: float = 1.0  # skewed latent symbols make token statistics a family signature

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError("data.scale must be positive")
        if self.alphabet_size < 8:
            raise ConfigurationError("data.alphabet_size must be >= 8")
        lo, hi = self.length_range
        if not (1 <= lo <= hi):
            raise ConfigurationError(f"data.length_range invalid: {self.length_range}")
        if not 0.0 <= self.intra_family_overlap <= 1.0:
            raise ConfigurationError("data.intra_family_overlap must be in [0, 1]")
        if self.cross_family_overlap not in (None, 0.0):
            raise ConfigurationError("data.cross_family_overlap must be null (chance) or 0.0")
        if self.zipf_exponent < 0:
            raise ConfigurationError("data.zipf_exponent must be >= 0")


@dataclass(frozen=True)
class WarmupConfig:
    """Centralized warm-up that produces the shared frozen backbone."""

    sentences_per_pair: int = 64
    epochs: int = 2
    learning_rate: float = 1e-3
    batch_size: int = 8
    grad_accumulation: int = 2

    def __post_init__(self) -> None:
        if self.sentences_per_pair < 1 or self.epochs < 0:
            raise ConfigurationError("warmup sizes must be non-negative (epochs) / positive")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.grad_accumulation < 1:
            raise ConfigurationError("invalid warmup hyperparameters")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    method: str
    ablation: str = "both"
    pruning: str = "all"
    aggregation: str = "fedmean"
    seeds: tuple[int, ...] = (1, 2, 3)
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    fed: FedConfig = None  # type: ignore[assignment]  # follows ``aggregation``
    warmup: WarmupConfig = field(default_factory=WarmupConfig)
    evaluate_test_bleu: bool = True

    def __post_init__(self) -> None:
        if self.fed is None:
            object.__setattr__(self, "fed", FedConfig(aggregation=self.aggregation))
        _validate_experiment(self)

    @property
    def strategy(self) -> str:
        return METHOD_STRATEGY.get(self.method, "none")

    @property
    def uses_adapters(self) -> bool:
        return self.method in ADAPTER_METHODS

    @property
    def is_centralized(self) -> bool:
        return self.method in CENTRALIZED_METHODS

    @property
    def aggregates(self) -> bool:
        return self.method in AGGREGATING_METHODS


def _validate_experiment(cfg: ExperimentConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigurationError(f"mode: unknown value {cfg.mode!r}")
    if cfg.method not in METHODS:
        raise ConfigurationError(f"method: unknown value {cfg.method!r}")
    if cfg.ablation not in ABLATIONS:
        raise ConfigurationError(f"ablation: unknown value {cfg.ablation!r}")
    if cfg.pruning not in PRUNINGS:
        raise ConfigurationError(f"pruning: unknown value {cfg.pruning!r}")
    if cfg.aggregation not in ("fedavg", "fedmean"):
        raise ConfigurationError(f"aggregation: unknown value {cfg.aggregation!r}")
    if not cfg.seeds:
        raise ConfigurationError("seeds: need at least one seed")
    if cfg.pruning != "all":
        if cfg.method not in ADAPTER_METHODS:
            raise ConfigurationError(
                f"pruning={cfg.pruning}: method {cfg.method!r} has no adapters to prune"
            )
        if cfg.model.enc_layers % 3 or cfg.model.dec_layers % 3:
            raise ConfigurationError(
                "pruning: enc_layers and dec_layers must be divisible by 3"
            )
    if cfg.ablation != "both" and cfg.method not in CLUSTERING_METHODS:
        raise ConfigurationError(
            f"ablation={cfg.ablation}: method {cfg.method!r} has no clustering to ablate"
        )
    if cfg.fed.aggregation != cfg.aggregation:
        raise ConfigurationError(
            "aggregation: top-level value and fed.aggregation disagree"
        )


# ---------------------------------------------------------------------------
# dict/json plumbing


_EXPECTED = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _check_value(key: str, value: Any, hint: Any) -> None:
    """Reject a JSON value of the wrong type for its field. Booleans must be
    true or false; integers must not be floats or booleans; numbers must not
    be booleans; nested sections are checked when they are built."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return
        (hint,) = [a for a in args if a is not type(None)]
        args = typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return
    if typing.get_origin(hint) is tuple:
        variadic = args[1:] == (Ellipsis,)
        if isinstance(value, (list, tuple)) and (variadic or len(value) == len(args)):
            for i, item in enumerate(value):
                _check_value(f"{key}[{i}]", item, args[0] if variadic else args[i])
            return
        expected = "a list" if variadic else f"a list of {len(args)} items"
    elif hint is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return
        expected = _EXPECTED[hint]
    else:
        if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
            return
        expected = _EXPECTED[hint]
    raise ConfigurationError(f"{key}: expected {expected}, got {json.dumps(value, default=repr)}")


def _build_dataclass(cls, raw: Any, path: str, **extra: Any):
    """``cls`` from a JSON object whose keys are a subset of its fields; the
    fields it leaves out keep their dataclass defaults."""
    if not isinstance(raw, Mapping):
        raise ConfigurationError(f"{path}: expected an object")
    prefix = f"{path}." if path else ""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigurationError(f"{prefix}{unknown[0]}: unknown key")
    kwargs: dict[str, Any] = dict(extra)
    for name, value in raw.items():
        _check_value(f"{prefix}{name}", value, hints[name])
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"{path or 'config'}: {err}") from err


_SECTIONS = {"data": DataConfig, "model": ModelConfig, "fed": FedConfig, "warmup": WarmupConfig}


def config_from_dict(raw: Mapping[str, Any]) -> ExperimentConfig:
    for key in ("mode", "method"):
        if key not in raw:
            raise ConfigurationError(f"{key}: required key missing")
    raw = dict(raw)
    aggregation = raw.get("aggregation", "fedmean")
    for key, cls in _SECTIONS.items():
        # fed.aggregation follows the top-level value unless set
        extra = {"aggregation": aggregation} if key == "fed" else {}
        raw[key] = _build_dataclass(cls, raw.get(key, {}), key, **extra)
    return _build_dataclass(ExperimentConfig, raw, "")


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Full snapshot with every default materialized."""
    return {
        "mode": cfg.mode,
        "method": cfg.method,
        "ablation": cfg.ablation,
        "pruning": cfg.pruning,
        "aggregation": cfg.aggregation,
        "seeds": list(cfg.seeds),
        "data": dataclasses.asdict(cfg.data),
        "model": dataclasses.asdict(cfg.model),
        "fed": dataclasses.asdict(cfg.fed),
        "warmup": dataclasses.asdict(cfg.warmup),
        "evaluate_test_bleu": cfg.evaluate_test_bleu,
    }
