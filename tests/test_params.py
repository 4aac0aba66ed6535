"""Parameter set storage, counting, payloads, and linear combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmt.errors import ConfigurationError, StructuralMismatchError
from fedmt.params import (
    CommPayloadSpec,
    NamedParamSet,
    ParamTensor,
    count_params,
    payload,
)
from fedmt.presets import adapter_param_count

from test_federation import global_aggregate


def make_set(spec, dtype=np.float64, rng=None):
    """spec: list of (name, shape, trainable, side)."""
    rng = rng or np.random.default_rng(0)
    return NamedParamSet(
        ParamTensor(name, rng.normal(size=shape).astype(dtype), trainable, side)
        for name, shape, trainable, side in spec
    )


BASIC = [
    ("enc.w", (3, 2), True, "encoder"),
    ("dec.w", (4,), True, "decoder"),
    ("emb.w", (2, 2), False, "shared"),
]


class TestCountParams:
    def test_empty_set_counts_zero(self):
        assert count_params(NamedParamSet([]), "all") == 0

    def test_filters(self):
        pset = make_set(BASIC)
        assert count_params(pset, "all") == 6 + 4 + 4
        assert count_params(pset, "trainable_only") == 10
        assert count_params(pset, "side=encoder") == 6
        assert count_params(pset, "side=decoder") == 4

    def test_trainable_plus_frozen_is_all(self):
        pset = make_set(BASIC)
        frozen = sum(t.size for t in pset if not t.trainable)
        assert count_params(pset, "all") == count_params(pset, "trainable_only") + frozen

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            count_params(make_set(BASIC), "side=emb")

    def test_reference_scale_adapter_set(self):
        # 12+12 layers, 2 adapters per encoder layer and 3 per decoder layer,
        # d=1024, bottleneck 64
        d, b = 1024, 64
        tensors = []
        for i in range(60):
            side = "encoder" if i < 24 else "decoder"
            prefix = f"layer{i:02d}.adapter"
            tensors += [
                ParamTensor(f"{prefix}.down.weight", np.zeros((d, b), np.float32), True, side),
                ParamTensor(f"{prefix}.down.bias", np.zeros(b, np.float32), True, side),
                ParamTensor(f"{prefix}.up.weight", np.zeros((b, d), np.float32), True, side),
                ParamTensor(f"{prefix}.up.bias", np.zeros(d, np.float32), True, side),
            ]
        pset = NamedParamSet(tensors)
        assert count_params(pset, "all") == 60 * 132_160 == 7_929_600
        # within 1% of the quoted "about 8M"
        assert abs(count_params(pset, "all") - 8e6) / 8e6 < 0.01

    def test_single_adapter_count(self):
        assert adapter_param_count(1024, 64) == 2 * 1024 * 64 + 64 + 1024 == 132_160
        assert abs(adapter_param_count(1024, 64) - 131_000) / 131_000 < 0.01


class TestPayload:
    def test_reference_full_model_bytes(self):
        spec = payload(610_900_000, bytes_per_param=4)
        assert spec.total_bytes == 2_443_600_000
        assert spec.gigabytes == pytest.approx(2.44, abs=0.005)

    def test_zero_params(self):
        assert payload(0).total_bytes == 0

    def test_adapter_total_bytes(self):
        assert payload(7_929_600, bytes_per_param=4).total_bytes == 31_718_400

    def test_from_param_set(self):
        pset = make_set(BASIC)
        assert payload(pset, "trainable_only", 4).total_bytes == 40

    def test_linear_scaling(self):
        base = payload(1234, bytes_per_param=4).total_bytes
        assert payload(3 * 1234, bytes_per_param=4).total_bytes == 3 * base

    def test_invariant_enforced(self):
        spec = CommPayloadSpec(10, 4, 40)
        assert spec.total_bytes == spec.param_count * spec.bytes_per_param

    def test_bad_bytes_per_param(self):
        with pytest.raises(ValueError):
            payload(10, bytes_per_param=0)


class TestLinearCombine:
    """Weighted sums of parameter sets, as the aggregation kernel computes
    them for one global cluster."""

    def _pair(self, a, b):
        mk = lambda v: NamedParamSet([ParamTensor("x", np.array([float(v)]), True, "shared")])
        return mk(a), mk(b)

    def test_mean(self):
        s1, s2 = self._pair(2, 4)
        assert global_aggregate([s1, s2]).values("x")[0] == 3.0

    def test_weighted(self):
        s1, s2 = self._pair(0, 4)
        assert global_aggregate([s1, s2], "fedavg", [1, 3]).values("x")[0] == 3.0

    def test_identity(self):
        pset = make_set(BASIC)
        assert global_aggregate([pset]).equals(pset)

    def test_frozen_copied_from_first(self):
        # frozen tensors are never averaged: the first client keeps its own
        rng = np.random.default_rng(1)
        s1 = make_set(BASIC, rng=rng)
        s2 = make_set(BASIC, rng=rng)
        out = global_aggregate([s1, s2])
        assert np.array_equal(out.values("emb.w"), s1.values("emb.w"))
        assert not np.array_equal(out.values("enc.w"), s1.values("enc.w"))

    def test_incompatible_rejected(self):
        s1 = make_set(BASIC)
        s2 = make_set([("enc.w", (3, 3), True, "encoder")])
        with pytest.raises(StructuralMismatchError):
            global_aggregate([s1, s2])

    def test_weight_count_mismatch(self):
        s1, s2 = self._pair(1, 2)
        with pytest.raises(ConfigurationError):
            global_aggregate([s1, s2], "fedavg", [1])

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
        base = global_aggregate(sets, "fedavg", sizes)
        shuffled = global_aggregate([sets[i] for i in perm], "fedavg", [sizes[i] for i in perm])
        for t in base:
            assert np.allclose(shuffled.values(t.name), t.values, atol=1e-12)
