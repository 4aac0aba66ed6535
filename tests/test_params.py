"""Parameter set storage, counting, payload sizes, and linear combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmt.errors import ConfigurationError
from fedmt.federation import FedConfig
from fedmt.model import ModelConfig, adapter_sites, build_model
from fedmt.params import NamedParamSet, count_params
from fedmt.presets import mbart50_summary

from test_federation import global_aggregate, names_by_side, params_equal
from test_pruning import oracle_adapter_params


def make_set(spec, dtype=np.float64, rng=None):
    """spec: list of (name, shape, trainable, side); ``names_by_side(spec)``
    names the trainable tensors."""
    rng = rng or np.random.default_rng(0)
    return NamedParamSet({
        name: rng.normal(size=shape).astype(dtype) for name, shape, _, _ in spec
    })


BASIC = [
    ("enc.w", (3, 2), True, "encoder"),
    ("dec.w", (4,), True, "decoder"),
    ("emb.w", (2, 2), False, "decoder"),
]


class TestCountParams:
    def test_empty_set_counts_zero(self):
        assert count_params(NamedParamSet({})) == 0

    def test_filters(self):
        pset = make_set(BASIC)
        assert count_params(pset) == 6 + 4 + 4
        assert count_params(pset, ["enc.w", "dec.w"]) == 10

    def test_trainable_plus_frozen_is_all(self):
        pset = make_set(BASIC)
        frozen = sum(pset.values(n).size for n in pset.names if n not in ("enc.w", "dec.w"))
        assert count_params(pset) == count_params(pset, ["enc.w", "dec.w"]) + frozen

    def test_reference_scale_adapter_set(self):
        # 12+12 layers, 2 adapters per encoder layer and 3 per decoder layer,
        # d=1024, bottleneck 64
        d, b = 1024, 64
        tensors = {}
        for i in range(60):
            prefix = f"layer{i:02d}.adapter"
            tensors.update({
                f"{prefix}.down.weight": np.zeros((d, b), np.float32),
                f"{prefix}.down.bias": np.zeros(b, np.float32),
                f"{prefix}.up.weight": np.zeros((b, d), np.float32),
                f"{prefix}.up.bias": np.zeros(d, np.float32),
            })
        pset = NamedParamSet(tensors)
        assert count_params(pset) == 60 * 132_160 == 7_929_600
        # within 1% of the quoted "about 8M"
        assert abs(count_params(pset) - 8e6) / 8e6 < 0.01

    def test_single_adapter_count(self):
        # every site of a built model holds one bottleneck adapter
        config = ModelConfig(vocab_size=20, model_dim=16, num_heads=2, ffn_dim=32,
                             enc_layers=1, dec_layers=1, adapter_bottleneck=3)
        model = build_model(config, 0)
        for site in adapter_sites(config):
            one = model.params.filter(lambda name: name.startswith(site.prefix + "."))
            assert count_params(one) == oracle_adapter_params(16, 3) == 2 * 16 * 3 + 3 + 16


class TestPayload:
    """Payload sizes are parameter counts times the bytes per parameter
    (decimal units, 1 GB = 1e9 B)."""

    def test_reference_full_model_bytes(self):
        s = mbart50_summary(FedConfig())
        assert s["backbone_params"] * 4 == 2_443_600_000
        assert s["backbone_gb"] == pytest.approx(2.44, abs=0.005)

    def test_adapter_total_bytes(self):
        assert mbart50_summary(FedConfig())["adapter_gb"] * 1e9 == pytest.approx(31_718_400)

    def test_reference_figures_follow_the_bandwidth_model(self):
        # half the bytes per value at a tenth of the bandwidth: half the
        # bytes and five times the seconds of the 1000 Mbps, fp32 figures
        base = mbart50_summary(FedConfig())
        s = mbart50_summary(FedConfig(bandwidth_bps=1e8, bytes_per_param=2))
        assert s["backbone_gb"] == pytest.approx(base["backbone_gb"] / 2, rel=1e-12)
        assert s["adapter_gb"] == pytest.approx(base["adapter_gb"] / 2, rel=1e-12)
        for key in ("backbone_transfer_s", "backbone_transfer_s_12_clients",
                    "adapter_transfer_s"):
            assert s[key] == pytest.approx(5 * base[key], rel=1e-12)
        assert s["backbone_transfer_s"] == pytest.approx(610_900_000 * 2 * 8 / 1e8, rel=1e-12)
        # counts and saving fractions do not depend on the bandwidth model
        assert {k: v for k, v in s.items() if not k.endswith(("_gb", "_s", "_clients"))} == {
            k: v for k, v in base.items() if not k.endswith(("_gb", "_s", "_clients"))}

    def test_bad_bytes_per_param(self):
        with pytest.raises(ConfigurationError):
            FedConfig(bytes_per_param=0)


class TestLinearCombine:
    """Weighted sums of parameter sets, as the aggregation kernel computes
    them for one global cluster."""

    def _pair(self, a, b):
        mk = lambda v: NamedParamSet({"x": np.array([float(v)])})
        return mk(a), mk(b)

    def test_mean(self):
        s1, s2 = self._pair(2, 4)
        assert global_aggregate([s1, s2]).values("x")[0] == 3.0

    def test_weighted(self):
        s1, s2 = self._pair(0, 4)
        assert global_aggregate([s1, s2], "fedavg", [1, 3]).values("x")[0] == 3.0

    def test_identity(self):
        pset = make_set(BASIC)
        assert params_equal(global_aggregate([pset], names_by_side=names_by_side(BASIC)), pset)

    def test_frozen_copied_from_first(self):
        # frozen tensors are never averaged: the first client keeps its own
        rng = np.random.default_rng(1)
        s1 = make_set(BASIC, rng=rng)
        s2 = make_set(BASIC, rng=rng)
        out = global_aggregate([s1, s2], names_by_side=names_by_side(BASIC))
        assert np.array_equal(out.values("emb.w"), s1.values("emb.w"))
        assert not np.array_equal(out.values("enc.w"), s1.values("enc.w"))

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_permutation_equivariance(self, perm):
        # share the frozen tensor across sets (the realistic case: one frozen
        # backbone), so every client's aggregate is comparable
        rng = np.random.default_rng(7)
        frozen = rng.normal(size=(2, 2))
        sets = [
            make_set(BASIC, rng=rng).replace_values({"emb.w": frozen})
            for _ in range(4)
        ]
        sizes = [1, 2, 3, 4]
        by_side = names_by_side(BASIC)
        base = global_aggregate(sets, "fedavg", sizes, by_side)
        shuffled = global_aggregate([sets[i] for i in perm], "fedavg", [sizes[i] for i in perm],
                                    by_side)
        for name in base.names:
            assert np.allclose(shuffled.values(name), base.values(name), atol=1e-12)
