"""Config parsing, validation, defaults, snapshots."""

import json
import re
from pathlib import Path

import pytest

from fedmt.config import (
    config_from_dict,
    config_to_dict,
    parse_config,
)
from fedmt.errors import ConfigurationError


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestParsing:
    def test_minimal_config_gets_all_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"mode": "m2en", "method": "adapter-fed"}))
        assert cfg.seeds == (1, 2, 3)
        assert cfg.fed.rounds == 5
        assert cfg.fed.batch_size == 8
        assert cfg.model.model_dim == 64
        assert cfg.data.length_range == (4, 12)
        assert cfg.pruning == "all" and cfg.ablation == "both"

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigurationError, match="method"):
            parse_config(write_config(tmp_path, {"mode": "m2en"}))

    def test_unknown_top_level_key_with_path(self, tmp_path):
        with pytest.raises(ConfigurationError, match="turbo"):
            parse_config(write_config(
                tmp_path, {"mode": "m2en", "method": "adapter-fed", "turbo": True}
            ))

    def test_unknown_nested_key_with_path(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fed.steps"):
            parse_config(write_config(
                tmp_path,
                {"mode": "m2en", "method": "adapter-fed", "fed": {"steps": 1}},
            ))

    def test_missing_file(self, tmp_path):
        for path in (tmp_path / "absent.json", tmp_path):  # a directory is no file either
            with pytest.raises(ConfigurationError, match="not found"):
                parse_config(path)

    @pytest.mark.parametrize("text, key", [
        ('{"mode": "m2en", "method": "adapter-families", "mode": "m2m"}', "mode"),
        ('{"mode": "m2en", "method": "adapter-fed", "fed": {"rounds": 2, "rounds": 3}}',
         "fed.rounds"),
    ])
    def test_repeated_key_refused_with_path(self, tmp_path, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigurationError, match=f"^{key}: repeated key$"):
            parse_config(path)

    @pytest.mark.parametrize("key, depth", [("seeds", 700), ("mode", 990), ("mode", 5000)])
    def test_deep_nesting_refused(self, tmp_path, key, depth):
        # the recursive key check once overflowed at 700 levels, the parser at 990
        text = json.dumps({"mode": "m2en", "method": "adapter-fed", key: "@"})
        path = tmp_path / "cfg.json"
        path.write_text(text.replace('"@"', "[" * depth + "]" * depth), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="nested deeper than 32 levels"):
            parse_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            parse_config(path)

    def test_overrides_applied(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {
            "mode": "m2m",
            "method": "adapter-families",
            "aggregation": "fedavg",
            "seeds": [7],
            "data": {"scale": 0.05, "intra_family_overlap": 0.5},
            "model": {"enc_layers": 6, "dec_layers": 6},
            "fed": {"rounds": 3, "learning_rate": 0.005},
        }))
        assert cfg.fed.rounds == 3 and cfg.fed.aggregation == "fedavg"
        assert cfg.model.enc_layers == 6
        assert cfg.data.intra_family_overlap == 0.5
        assert cfg.seeds == (7,)


class TestValidation:
    def test_model_fed_with_pruning_rejected(self):
        with pytest.raises(ConfigurationError, match="prune"):
            config_from_dict({"mode": "m2en", "method": "model-fed",
                              "pruning": "input_end"})

    def test_pruning_requires_divisible_layers(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            config_from_dict({"mode": "m2en", "method": "adapter-fed",
                              "pruning": "middle",
                              "model": {"enc_layers": 4, "dec_layers": 4}})

    def test_pruning_allowed_on_adapter_methods(self):
        cfg = config_from_dict({"mode": "m2m", "method": "adapter-families",
                                "pruning": "output_end"})
        assert cfg.pruning == "output_end"

    def test_ablation_requires_clustering_method(self):
        with pytest.raises(ConfigurationError, match="ablation"):
            config_from_dict({"mode": "m2m", "method": "adapter-fed",
                              "ablation": "encoder_only"})

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="method"):
            config_from_dict({"mode": "m2en", "method": "adapter-magic"})

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            config_from_dict({"mode": "m2all", "method": "adapter-fed"})

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            config_from_dict({"mode": "m2en", "method": "adapter-fed", "seeds": []})

    def test_aggregation_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="aggregation"):
            config_from_dict({
                "mode": "m2en", "method": "adapter-fed",
                "aggregation": "fedmean", "fed": {"aggregation": "fedavg"},
            })

    def test_method_properties(self):
        cfg = config_from_dict({"mode": "m2en", "method": "adapter-gradients"})
        assert cfg.uses_adapters and cfg.aggregates and not cfg.is_centralized
        assert cfg.strategy == "gradients"
        central = config_from_dict({"mode": "m2en", "method": "centralized-model"})
        assert central.is_centralized and not central.aggregates
        local = config_from_dict({"mode": "m2en", "method": "adapter-local"})
        assert not local.aggregates and local.strategy == "none"


# Values that only the config refuses: no function behind it checks them again.
REFUSED_AT_PARSE = [
    ({"pruning": "first_half"}, "pruning: unknown value"),
    ({"fed": {"optimizer": "rmsprop"}}, "fed: unknown optimizer"),
    ({"fed": {"aggregation": "median"}}, "fed: unknown aggregation"),
    ({"fed": {"bandwidth_bps": 0}}, "fed: bandwidth .*must be positive"),
    ({"fed": {"batch_size": 0}}, "fed: batch_size.* must be >= 1"),
    ({"fed": {"grad_accumulation": 0}}, "fed: .*grad_accumulation.* must be >= 1"),
    ({"warmup": {"batch_size": 0}}, "warmup: .*batch_size.* must be positive"),
    ({"fed": {"optimizer": "sgd"}}, "fed: unknown optimizer"),  # Adam is the one optimizer
]


class TestValueTypes:
    @pytest.mark.parametrize("override, key", [
        ({"evaluate_test_bleu": "false"}, "evaluate_test_bleu"),
        ({"evaluate_test_bleu": 0}, "evaluate_test_bleu"),
        ({"fed": {"rounds": 2.5}}, "fed.rounds"),
        ({"fed": {"rounds": 2.0}}, "fed.rounds"),
        ({"fed": {"batch_size": True}}, "fed.batch_size"),
        ({"fed": {"learning_rate": True}}, "fed.learning_rate"),
        ({"fed": {"learning_rate": "0.01"}}, "fed.learning_rate"),
        ({"fed": {"optimizer": 1}}, "fed.optimizer"),
        ({"model": {"enc_layers": "3"}}, "model.enc_layers"),
        ({"warmup": {"epochs": False}}, "warmup.epochs"),
        ({"data": {"length_range": [4]}}, "data.length_range"),
        ({"data": {"length_range": [4, 12.5]}}, r"data.length_range\[1\]"),
        ({"data": {"cross_family_overlap": "none"}}, "data.cross_family_overlap"),
        ({"data": 5}, "data"),
        ({"seeds": [1.5]}, r"seeds\[0\]"),
        ({"seeds": "1,2"}, "seeds"),
        # invalid values: the message starts with the key or section path, once
        ({"aggregation": "median"}, "aggregation: "),
        ({"model": {"model_dim": 30}}, "model: model_dim"),
        ({"model": {"num_heads": 0}}, "model: num_heads"),
        ({"fed": {"rounds": 0}}, "fed: rounds"),
        ({"warmup": {"epochs": -1}}, "warmup: "),
        ({"data": {"scale": 0}}, r"data\.scale must"),
        ({"data": {"length_range": [4, 47]}}, r"data\.length_range: "),
        ({"seeds": [-1]}, "seeds: "),
        ({"seeds": [1, 1]}, "seeds: "),
        ({"data": {"intra_family_overlap": 1.5}}, r"data\.intra_family_overlap must"),
        ({"data": {"cross_family_overlap": 0.5}}, r"data\.cross_family_overlap must"),
        ({"data": {"length_range": [5, 4]}}, r"data\.length_range invalid"),
        ({"data": {"alphabet_size": 4}}, r"data\.alphabet_size must"),
        ({"data": {"zipf_exponent": -1}}, r"data\.zipf_exponent must"),
        ({"ablation": "none"}, "ablation: "),
        ({"model": {"vocab_size": 90}}, "model.vocab_size: set from the corpus vocabulary"),
        ({"fed": {"seed": 3}}, "fed.seed: set from each run seed"),
        # non-finite numbers and sizes that used to fail deep inside a run
        ({"fed": {"learning_rate": float("nan")}}, "fed.learning_rate: expected a finite"),
        ({"data": {"scale": float("nan")}}, "data.scale: expected a finite"),
        ({"fed": {"bandwidth_bps": float("inf")}}, "fed.bandwidth_bps: expected a finite"),
        ({"model": {"model_dim": 0}}, "model: model_dim must be >= 2"),
        ({"model": {"model_dim": -4}}, "model: model_dim must be >= 2"),
        ({"model": {"ffn_dim": 0}}, "model: ffn_dim must be >= 1"),
        ({"model": {"ffn_dim": -8}}, "model: ffn_dim must be >= 1"),
        ({"fed": {"eval_batch_size": 0}}, "fed: .*eval_batch_size must be >= 1"),
        *REFUSED_AT_PARSE,
    ])
    def test_wrong_type_rejected_with_key(self, override, key):
        with pytest.raises(ConfigurationError, match=f"^{key}"):
            config_from_dict({"mode": "m2en", "method": "adapter-fed", **override})

    @pytest.mark.parametrize("override", [
        {"evaluate_test_bleu": False},
        {"fed": {"learning_rate": 1}},  # an integer is a number
        {"fed": {"full_model_learning_rate": None}},
        {"data": {"cross_family_overlap": 0.0}},
        {"data": {"length_range": [4, 46]}},  # 46 + 2 fills max_seq_len=48
    ])
    def test_well_typed_value_accepted(self, override):
        config_from_dict({"mode": "m2en", "method": "adapter-fed", **override})


def test_readme_key_set_is_the_default_snapshot():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Full key set.*?```json\n(.*?)```", readme, re.S).group(1)
    defaults = config_from_dict({"mode": "m2en", "method": "adapter-families"})
    assert json.loads(block) == json.loads(json.dumps(config_to_dict(defaults)))


class TestSnapshot:
    def test_round_trip_preserves_everything(self, tmp_path):
        cfg = config_from_dict({
            "mode": "m2m", "method": "adapter-random", "seeds": [4, 5],
            "fed": {"grad_accumulation": 4}, "data": {"alphabet_size": 32},
        })
        snapshot = config_to_dict(cfg)
        rebuilt = config_from_dict(json.loads(json.dumps(snapshot)))
        assert rebuilt == cfg

    def test_snapshot_materializes_defaults(self):
        cfg = config_from_dict({"mode": "m2en", "method": "adapter-fed"})
        snapshot = config_to_dict(cfg)
        assert snapshot["fed"]["batch_size"] == 8
        assert snapshot["model"]["adapter_bottleneck"] == 4
        assert snapshot["warmup"]["sentences_per_pair"] > 0
