"""Analytic gradients against central finite differences (float64)."""

import dataclasses

import numpy as np
import pytest

import fedmt.model
from fedmt.errors import NumericError
from fedmt.model import Batch, ModelConfig, build_model, grad, loss

SMOOTH = ModelConfig(vocab_size=19, model_dim=8, num_heads=2, ffn_dim=16,
                     enc_layers=1, dec_layers=1, adapter_bottleneck=4,
                     max_seq_len=12, adapter_nonlinearity="gelu", dtype="float64")

EPS = 1e-4


def randomized_model(seed):
    model = build_model(SMOOTH, seed)
    rng = np.random.default_rng(seed + 100)
    # zero-init up-projections get generic values so every path carries signal
    updates = {
        name: rng.normal(0, 0.3, model.params.values(name).shape)
        for name in model.params.names
        if name.endswith("up.weight") or name.endswith("up.bias")
    }
    return model.with_params(model.params.replace_values(updates))


def by_name(model, names, vector):
    """The tensors of a gradient vector that ``grad(model, batch, names)``
    returned, by name: each a view of its slice of the vector."""
    tensors = [model.params.values(name) for name in names]
    assert sum(t.size for t in tensors) == vector.size
    pieces = np.split(vector, np.cumsum([t.size for t in tensors])[:-1])
    return {name: piece.reshape(t.shape) for name, piece, t in zip(names, pieces, tensors)}


def every_gradient(model, batch):
    """Loss and the gradients of every tensor, backbone included, by name."""
    names = model.params.names
    summed, vector = grad(model, batch, names)
    return summed, by_name(model, names, vector)


def random_batch(seed):
    rng = np.random.default_rng(seed)
    bsz, s_len, t_len = 2, 5, 5
    src = rng.integers(4, SMOOTH.vocab_size, size=(bsz, s_len))
    src_mask = np.ones((bsz, s_len), bool)
    src_mask[0, 3:] = False
    tgt_in = rng.integers(4, SMOOTH.vocab_size, size=(bsz, t_len))
    tgt_in[:, 0] = 1
    tgt_gold = rng.integers(4, SMOOTH.vocab_size, size=(bsz, t_len))
    tgt_mask = np.ones((bsz, t_len), bool)
    tgt_mask[1, 4:] = False
    return Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask)


def fd_max_rel_error(model, batch, coords_per_tensor=25, seed=0):
    _, grads = every_gradient(model, batch)
    picker = np.random.default_rng(seed)
    worst = 0.0
    for name in sorted(grads):
        flat = model.params.values(name).reshape(-1)
        analytic = grads[name].reshape(-1)
        if flat.size <= coords_per_tensor:
            idxs = np.arange(flat.size)
        else:
            idxs = picker.choice(flat.size, coords_per_tensor, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + EPS
            up = loss(model, batch)
            flat[i] = orig - EPS
            down = loss(model, batch)
            flat[i] = orig
            fd = (up - down) / (2 * EPS)
            denom = max(abs(fd), abs(analytic[i]), 1e-6)
            worst = max(worst, abs(fd - analytic[i]) / denom)
    return worst


class TestGradients:
    def test_all_paths_against_finite_differences(self):
        # every tensor, backbone and adapters, covers every gradient path
        model = randomized_model(3)
        assert fd_max_rel_error(model, random_batch(1)) < 1e-3

    def test_multiple_batches(self):
        model = randomized_model(7)
        for batch_seed in range(3):
            assert fd_max_rel_error(
                model, random_batch(batch_seed), coords_per_tensor=6, seed=batch_seed
            ) < 1e-3

    def test_frozen_tensors_get_no_gradient(self):
        model = randomized_model(5)
        batch = random_batch(2)
        trainable = model.trainable_names()
        _, vector = grad(model, batch, trainable)
        assert set(model.params.names) - set(trainable)
        _, everything = every_gradient(model, batch)
        assert np.array_equal(vector, np.concatenate([everything[n].ravel() for n in trainable]))

    def test_linearity_in_loss_scale(self):
        # duplicating every sentence duplicates the summed loss and gradients
        model = randomized_model(9)
        batch = random_batch(4)
        doubled = Batch(
            np.concatenate([batch.src] * 2),
            np.concatenate([batch.src_mask] * 2),
            np.concatenate([batch.tgt_in] * 2),
            np.concatenate([batch.tgt_gold] * 2),
            np.concatenate([batch.tgt_mask] * 2),
        )
        loss1, g1 = every_gradient(model, batch)
        loss2, g2 = every_gradient(model, doubled)
        assert loss2 == pytest.approx(2 * loss1, rel=1e-12)
        for name in g1:
            assert np.allclose(g2[name], 2 * g1[name], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("wanted", [{"enc.layer0.attn_adapter.up.weight"},
                                        {"enc.layer0.attn_adapter.up.bias"}],
                             ids=["weight", "bias"])
    def test_needed_filter_restricts_outputs(self, wanted):
        # the forward names the whole layer, so the backward also writes
        # the gradient of the tensor not asked for; the vector leaves it out
        model = randomized_model(11)
        batch = random_batch(5)
        _, vector = grad(model, batch, sorted(wanted))
        _, everything = every_gradient(model, batch)
        (name,) = wanted
        assert np.array_equal(vector, everything[name].ravel())

    def test_vector_concatenates_the_tensors_in_the_order_given(self):
        model = build_model(dataclasses.replace(SMOOTH, dtype="float32"), 2)
        batch = random_batch(6)
        names = ["enc.layer0.attn_adapter.up.weight", "dec.layer0.ln2.bias", "emb.token.weight"]
        alone = {name: grad(model, batch, [name])[1] for name in names}
        for order in (names, names[::-1]):
            _, vector = grad(model, batch, order)
            assert vector.dtype == np.float32
            assert np.array_equal(vector, np.concatenate([alone[name] for name in order]))


def poison_backward(monkeypatch, victims):
    """Make ``fedmt.model.backward`` write a NaN into each tensor ``victims``."""
    real = fedmt.model.backward

    def backward(*args):
        grads = real(*args)
        for name in victims:
            grads[name].flat[-1] = np.nan
        return grads

    monkeypatch.setattr(fedmt.model, "backward", backward)


class TestNonFiniteGradient:
    LAYER = ["enc.layer0.attn_adapter.up.weight", "enc.layer0.attn_adapter.up.bias"]

    def test_names_the_first_non_finite_tensor_in_the_order_given(self, monkeypatch):
        model = randomized_model(13)
        poison_backward(monkeypatch, self.LAYER)
        for names in (self.LAYER, self.LAYER[::-1]):
            with pytest.raises(NumericError, match=rf"^non-finite gradient for '{names[0]}'$"):
                grad(model, random_batch(7), names)

    def test_a_tensor_not_named_is_not_checked(self, monkeypatch):
        # naming the weight makes the backward write the layer's bias too
        model = randomized_model(13)
        weight, bias = self.LAYER
        poison_backward(monkeypatch, [bias])
        _, vector = grad(model, random_batch(7), [weight])
        assert np.isfinite(vector).all()
        with pytest.raises(NumericError, match=rf"^non-finite gradient for '{bias}'$"):
            grad(model, random_batch(7), self.LAYER)
