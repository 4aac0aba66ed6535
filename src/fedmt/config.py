"""Experiment configuration: JSON parsing, validation, defaults, snapshots.

A minimal config only needs ``mode`` and ``method``; everything else
takes the field defaults of the config dataclasses. ``ExperimentConfig``
and ``WarmupConfig`` live here, each other section next to the code it
configures: ``DataConfig`` in ``fedmt.data``, ``ModelConfig`` in
``fedmt.model`` and ``FedConfig`` in ``fedmt.federation``. These field
defaults are the only defaults: the functions that read a setting take
its section, or take the value with no default of their own. Unknown
keys, values of the wrong JSON type and invalid combinations are
rejected with the offending key path. The same reader reads the
``ModelConfig`` of a checkpoint directory (``fedmt.reporting``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .clustering import ABLATIONS
from .data import DataConfig
from .errors import ConfigurationError
from .federation import AGGREGATIONS, FedConfig
from .model import PRUNING_STRATEGIES, ModelConfig
from .presets import MODES

# method -> (trains adapters on a frozen backbone, clustering strategy or
# None when it never aggregates, one pooled party rather than one per client)
METHODS = {
    "model-fed": (False, "none", False),
    "adapter-fed": (True, "none", False),
    "adapter-local": (True, None, False),
    "adapter-random": (True, "random", False),
    "adapter-gradients": (True, "gradients", False),
    "adapter-families": (True, "families", False),
    "centralized-model": (False, None, True),
    "centralized-adapter": (True, None, True),
}


@dataclass(frozen=True)
class WarmupConfig:
    """Centralized warm-up that produces the shared frozen backbone."""

    sentences_per_pair: int = 256
    epochs: int = 8
    learning_rate: float = 1e-3
    batch_size: int = 8
    grad_accumulation: int = 2

    def __post_init__(self) -> None:
        if self.sentences_per_pair < 1 or self.epochs < 0:
            raise ConfigurationError("sentences_per_pair must be >= 1 and epochs >= 0")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.grad_accumulation < 1:
            raise ConfigurationError(
                "learning_rate, batch_size and grad_accumulation must be positive"
            )


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
        return METHODS[self.method][1] or "none"

    @property
    def uses_adapters(self) -> bool:
        return METHODS[self.method][0]

    @property
    def is_centralized(self) -> bool:
        return METHODS[self.method][2]

    @property
    def aggregates(self) -> bool:
        return METHODS[self.method][1] is not None


def _validate_experiment(cfg: ExperimentConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigurationError(f"mode: unknown value {cfg.mode!r}")
    if cfg.method not in METHODS:
        raise ConfigurationError(f"method: unknown value {cfg.method!r}")
    if cfg.ablation not in ABLATIONS:
        raise ConfigurationError(f"ablation: unknown value {cfg.ablation!r}")
    if cfg.pruning not in PRUNING_STRATEGIES:
        raise ConfigurationError(f"pruning: unknown value {cfg.pruning!r}")
    if not cfg.seeds:
        raise ConfigurationError("seeds: need at least one seed")
    if min(cfg.seeds) < 0:
        raise ConfigurationError(f"seeds: must be non-negative, got {min(cfg.seeds)}")
    if len(set(cfg.seeds)) < len(cfg.seeds):
        raise ConfigurationError(f"seeds: each seed may appear once, got {list(cfg.seeds)}")
    if cfg.pruning != "all":
        if not cfg.uses_adapters:
            raise ConfigurationError(
                f"pruning={cfg.pruning}: method {cfg.method!r} has no adapters to prune"
            )
        if cfg.model.enc_layers % 3 or cfg.model.dec_layers % 3:
            raise ConfigurationError(
                "pruning: enc_layers and dec_layers must be divisible by 3"
            )
    if cfg.ablation != "both" and cfg.strategy == "none":
        raise ConfigurationError(
            f"ablation={cfg.ablation}: method {cfg.method!r} has no clustering to ablate"
        )
    # encoder rows are tag + tokens + EOS, decoder rows BOS/EOS + tokens + affix
    if cfg.data.length_range[1] + 2 > cfg.model.max_seq_len:
        raise ConfigurationError(
            f"data.length_range: longest sentence {cfg.data.length_range[1]} plus 2 "
            f"special tokens exceeds model.max_seq_len={cfg.model.max_seq_len}"
        )
    if cfg.model.vocab_size:
        raise ConfigurationError(
            "model.vocab_size: set from the corpus vocabulary at run time; leave it 0"
        )
    if cfg.fed.seed:
        raise ConfigurationError(
            "fed.seed: set from each run seed (`seeds` or --seeds); leave it 0"
        )
    if cfg.fed.aggregation != cfg.aggregation:
        raise ConfigurationError(
            "aggregation: top-level value and fed.aggregation disagree"
        )


# ---------------------------------------------------------------------------
# dict/json plumbing


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number",
             str: "a string"}


def _check_value(key: str, value: Any, hint: Any) -> None:
    """Reject a JSON value of the wrong type for its field. Booleans must be
    true or false; integers must not be floats or booleans; numbers must be
    finite and not booleans; nested sections are checked when they are built."""
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
        if (isinstance(value, int) and not isinstance(value, bool)) or (
                isinstance(value, float) and math.isfinite(value)):
            return
        expected = _EXPECTED[hint]
    else:
        if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
            return
        expected = _EXPECTED[hint]
    raise ConfigurationError(f"{key}: expected {expected}, got {json.dumps(value, default=repr)}")


def check_fields(cls, raw: Mapping[str, Any], prefix: str) -> None:
    """Refuse an unknown key of ``raw`` or a value without its field's JSON type."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigurationError(f"{prefix}{unknown[0]}: unknown key")
    for name, value in raw.items():
        _check_value(f"{prefix}{name}", value, hints[name])


def build_dataclass(cls, raw: Any, path: str = "", **extra: Any):
    """``cls`` from a JSON object whose keys are a subset of its fields; the
    fields it leaves out keep their dataclass defaults."""
    if not isinstance(raw, Mapping):
        raise ConfigurationError(f"{path}: expected an object")
    check_fields(cls, raw, f"{path}." if path else "")
    kwargs: dict[str, Any] = dict(extra)
    for name, value in raw.items():
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except ConfigurationError as err:
        # a section's own checks may not name it; the top level's always do
        if not path or str(err).startswith((f"{path}.", f"{path}:")):
            raise
        raise ConfigurationError(f"{path}: {err}") from err
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"{path or 'config'}: {err}") from err


_SECTIONS = {"data": DataConfig, "model": ModelConfig, "fed": FedConfig, "warmup": WarmupConfig}


def config_from_dict(raw: Mapping[str, Any]) -> ExperimentConfig:
    for key in ("mode", "method"):
        if key not in raw:
            raise ConfigurationError(f"{key}: required key missing")
    raw = dict(raw)
    aggregation = raw.get("aggregation", ExperimentConfig.aggregation)
    if aggregation not in AGGREGATIONS:  # checked here: the fed section is built from it
        raise ConfigurationError(f"aggregation: unknown value {aggregation!r}")
    for key, cls in _SECTIONS.items():
        # fed.aggregation follows the top-level value unless set
        extra = {"aggregation": aggregation} if key == "fed" else {}
        raw[key] = build_dataclass(cls, raw.get(key, {}), key, **extra)
    return build_dataclass(ExperimentConfig, raw)


MAX_JSON_DEPTH = 32  # a config nests 3 deep; far deeper would exhaust recursion


def _unique_keys(value: Any, path: str = "", depth: int = 0) -> Any:
    """JSON parsed with ``object_pairs_hook=tuple``, as dicts; refuses a
    repeated key, a key no message could print on one line, and a container
    nested deeper than ``MAX_JSON_DEPTH``."""
    if not isinstance(value, (list, tuple)):
        return value
    if depth == MAX_JSON_DEPTH:
        raise ConfigurationError(f"{path}: nested deeper than {MAX_JSON_DEPTH} levels")
    if isinstance(value, list):
        return [_unique_keys(item, f"{path}[{i}]", depth + 1) for i, item in enumerate(value)]
    out: dict[str, Any] = {}
    for key, item in value:
        if not key.isprintable():
            raise ConfigurationError(f"{path or 'top level'}: key {json.dumps(key)} is unprintable")
        name = f"{path}.{key}" if path else key
        if key in out:
            raise ConfigurationError(f"{name}: repeated key")
        out[key] = _unique_keys(item, name, depth + 1)
    return out


def parse_json(text: str) -> Any:
    """JSON text as a value whose objects are dicts (:func:`_unique_keys`)."""
    try:
        value = json.loads(text, object_pairs_hook=tuple)
    except RecursionError:  # the parser's own, far past MAX_JSON_DEPTH
        raise ConfigurationError(f"nested deeper than {MAX_JSON_DEPTH} levels") from None
    except ValueError as err:  # JSONDecodeError, or an integer too long to convert
        raise ConfigurationError(f"invalid JSON ({err})") from err
    return _unique_keys(value)


def read_json_object(path: Path) -> dict[str, Any]:
    """The top-level object of a UTF-8 JSON file (:func:`parse_json`)."""
    try:
        raw = parse_json(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"not UTF-8 ({err})") from err
    if not isinstance(raw, dict):
        raise ConfigurationError("top level must be an object")
    return raw


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return config_from_dict(read_json_object(path))


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Full snapshot with every default materialized."""
    return dataclasses.asdict(cfg)
