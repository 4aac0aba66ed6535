"""Adapter pruning thirds: selection, held tensors, conservation, counts.

The closed forms below are the oracle for the sublayer table: one adapter
holds 2*d*b + b + d parameters, and a model has 2 adapter sites per encoder
layer and 3 per decoder layer.
"""

import numpy as np
import pytest

from fedmt.federation import FedConfig
from fedmt.model import (
    PRUNING_STRATEGIES,
    THIRDS,
    Batch,
    ModelConfig,
    adapter_sites,
    build_model,
    forward,
    param_layout,
    pruning_mask,
)
from fedmt.params import count_params
from fedmt.presets import MBART50_CONFIG, mbart50_summary

CFG = ModelConfig(vocab_size=20, model_dim=16, num_heads=2, ffn_dim=32,
                  enc_layers=6, dec_layers=6, adapter_bottleneck=4,
                  max_seq_len=12, dtype="float64")


def oracle_adapter_params(d, b):
    return 2 * d * b + b + d


def oracle_sites(enc_layers, dec_layers):
    return 2 * enc_layers + 3 * dec_layers


def active_layers(model, side):
    return sorted({
        site.layer for site in model.active_sites() if site.side == side
    })


class TestThirds:
    def test_input_end_keeps_first_third(self):
        model = build_model(CFG, 0, "input_end")
        assert active_layers(model, "encoder") == [0, 1]
        assert active_layers(model, "decoder") == [0, 1]

    def test_twelve_layer_input_end_keeps_first_four(self):
        cfg = ModelConfig(vocab_size=20, model_dim=16, num_heads=2, ffn_dim=32,
                          enc_layers=12, dec_layers=12, adapter_bottleneck=2,
                          max_seq_len=12)
        model = build_model(cfg, 0, "input_end")
        assert active_layers(model, "encoder") == [0, 1, 2, 3]
        assert active_layers(model, "decoder") == [0, 1, 2, 3]

    def test_all_keeps_everything(self):
        model = build_model(CFG, 0, "all")
        assert len(model.active_sites()) == 2 * 6 + 3 * 6

    def test_thirds_partition_adapter_set(self):
        base = build_model(CFG, 0)
        parts = [
            {s.prefix for s in build_model(CFG, 0, strategy).active_sites()}
            for strategy in ("input_end", "middle", "output_end")
        ]
        assert not (parts[0] & parts[1]) and not (parts[1] & parts[2]) and not (parts[0] & parts[2])
        assert parts[0] | parts[1] | parts[2] == {s.prefix for s in base.active_sites()}

    def test_pruned_adapters_frozen_and_inactive(self):
        # a pruned site holds no tensors, so it has none to train
        model = build_model(CFG, 0, "middle")
        inactive = [prefix for prefix, kept in pruning_mask(CFG, "middle").items() if not kept]
        assert inactive
        active = {s.prefix for s in model.active_sites()}
        for prefix in inactive:
            assert prefix not in active
            assert not [n for n in model.params.names if n.startswith(prefix + ".")]
        trainable = set(model.trainable_names())
        assert all(n in trainable for n in model.params.names if "_adapter." in n)

    @pytest.mark.parametrize("strategy", sorted(THIRDS))
    def test_kept_sites_hold_the_unpruned_values(self, strategy):
        # every site draws its adapter, kept or not: a kept site, and the
        # backbone, hold bitwise what the unpruned model holds
        full = build_model(CFG, 0)
        pruned = build_model(CFG, 0, strategy)
        assert len(pruned.active_sites()) == len(full.active_sites()) // 3
        pruned_trainable, full_trainable = (set(m.trainable_names()) for m in (pruned, full))
        for name in pruned.params.names:
            values = pruned.params.values(name)
            assert values.tobytes() == full.params.values(name).tobytes(), name
            assert (name in pruned_trainable) == (name in full_trainable), name


class TestCounts:
    def adapter_count(self, model):
        return count_params(model.params, [n for n in model.trainable_names() if "_adapter." in n])

    def test_third_counts_match_formula(self):
        base = build_model(CFG, 0)
        per = oracle_adapter_params(CFG.model_dim, CFG.adapter_bottleneck)
        assert self.adapter_count(base) == 30 * per
        for strategy in ("input_end", "middle", "output_end"):
            pruned = build_model(CFG, 0, strategy)
            assert self.adapter_count(pruned) == 10 * per
            # the pruned adapters are not held at all
            assert count_params(pruned.params) == count_params(base.params) - 20 * per

    def test_reference_dims_match_published_scale(self):
        # formula at d=1024, b=64, 12+12 layers: thirds of 60 adapters
        per = oracle_adapter_params(1024, 64)
        full = 60 * per
        third = 20 * per
        assert full == 7_929_600
        assert third == 2_643_200
        assert abs(third - 2.7e6) / 2.7e6 < 0.05
        assert abs(full - 8.1e6) / 8.1e6 < 0.05
        s = mbart50_summary(FedConfig())
        assert (s["per_adapter_params"], s["adapter_params"], s["adapter_params_third"]) == (
            per, full, third)
        # per-layer norms (2 per encoder, 3 per decoder layer) plus the two final ones
        assert s["adapter_plus_layernorm_params"] - full == (60 + 2) * 2 * 1024

    @pytest.mark.parametrize("strategy", PRUNING_STRATEGIES)
    @pytest.mark.parametrize("config", [CFG, MBART50_CONFIG], ids=["toy", "mbart50"])
    def test_layout_counts_match_closed_form(self, config, strategy):
        layout = param_layout(config)
        per = oracle_adapter_params(config.model_dim, config.adapter_bottleneck)
        n_sites = oracle_sites(config.enc_layers, config.dec_layers)
        sites = adapter_sites(config)
        assert len(sites) == n_sites
        for site in sites:
            assert sum(np.prod(t.shape) for t in layout if t.site == site) == per
        kept = pruning_mask(config, strategy)
        kept_sites = n_sites if strategy == "all" else n_sites // 3
        assert sum(kept.values()) == kept_sites
        assert sum(
            np.prod(t.shape) for t in layout if t.site is not None and kept[t.site.prefix]
        ) == kept_sites * per


class TestForwardSemantics:
    def test_pruned_adapters_do_not_alter_forward(self):
        # randomize all up-projections, then drop the pruned sites' tensors:
        # the forward pass must match a model that holds every site, with
        # the pruned sites' up-projections zeroed instead
        model = build_model(CFG, 1)
        rng = np.random.default_rng(0)
        model = model.with_params(model.params.replace_values({
            name: rng.normal(0, 0.3, model.params.values(name).shape)
            for name in model.params.names if name.endswith("up.weight")
        }))
        kept = pruning_mask(CFG, "output_end")
        site_of = {spec.name: spec.site for spec in param_layout(CFG)}
        dropped = {name for name in model.params.names
                   if site_of[name] is not None and not kept[site_of[name].prefix]}
        pruned = model.with_params(model.params.filter(lambda name: name not in dropped))
        assert {s.prefix for s in pruned.active_sites()} == {p for p, k in kept.items() if k}
        zeroed = model.with_params(model.params.replace_values({
            name: np.zeros(model.params.values(name).shape)
            for name in dropped if name.endswith("up.weight")
        }))
        rng2 = np.random.default_rng(3)
        src = rng2.integers(4, 20, size=(2, 5))
        batch = Batch(src, np.ones((2, 5), bool),
                      np.concatenate([np.ones((2, 1), int), src[:, :4]], axis=1),
                      src, np.ones((2, 5), bool))
        la, _ = forward(pruned, batch, lambda _: True)
        lb, _ = forward(zeroed, batch, lambda _: True)
        assert np.allclose(la, lb, atol=1e-12)
