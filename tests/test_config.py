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
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config(tmp_path / "absent.json")

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
    ])
    def test_wrong_type_rejected_with_key(self, override, key):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({"mode": "m2en", "method": "adapter-fed", **override})

    @pytest.mark.parametrize("override", [
        {"evaluate_test_bleu": False},
        {"fed": {"learning_rate": 1}},  # an integer is a number
        {"fed": {"full_model_learning_rate": None}},
        {"data": {"cross_family_overlap": 0.0}},
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
