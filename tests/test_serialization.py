"""Binary parameter files and model checkpoints with metadata sidecars."""

import numpy as np
import pytest

from fedmt.errors import CheckpointError
from fedmt.model import ModelConfig, apply_pruning, build_model, load_checkpoint, save_checkpoint
from fedmt.params import NamedParamSet, ParamTensor, load_param_set, save_param_set


def test_param_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pset = NamedParamSet([
        ParamTensor("enc.a", rng.normal(size=(3, 4)).astype(np.float32), True, "encoder"),
        ParamTensor("dec.b", rng.normal(size=(7,)).astype(np.float32), False, "decoder"),
        ParamTensor("emb.c", rng.normal(size=(2, 2, 2)).astype(np.float32), True, "shared"),
    ])
    path = tmp_path / "params.bin"
    save_param_set(pset, path)
    loaded = load_param_set(path, dtype=np.float32)
    assert loaded.names == pset.names
    for t in pset:
        other = loaded[t.name]
        assert other.trainable == t.trainable
        assert other.side == t.side
        assert np.array_equal(other.values, t.values)


def test_param_file_is_stable_bytes(tmp_path):
    pset = NamedParamSet([
        ParamTensor("x", np.arange(6, dtype=np.float32).reshape(2, 3), True, "shared"),
    ])
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_param_set(pset, p1)
    save_param_set(pset, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip(tmp_path):
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=3, dec_layers=3, adapter_bottleneck=2,
                         max_seq_len=12, dtype="float32")
    model = apply_pruning(build_model(config, 11), "middle")
    save_checkpoint(model, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config == config
    assert loaded.adapter_mask == model.adapter_mask
    assert loaded.params.names == model.params.names
    for t in model.params:
        assert np.array_equal(loaded.params.values(t.name), t.values)
        assert loaded.params[t.name].trainable == t.trainable


@pytest.mark.parametrize("cut", ["magic", "header", "payload", "trailing"])
def test_damaged_param_file_raises_checkpoint_error(tmp_path, cut):
    pset = NamedParamSet([
        ParamTensor("enc.a", np.ones((3, 4), np.float32), True, "encoder"),
        ParamTensor("dec.b", np.ones(5, np.float32), False, "decoder"),
    ])
    path = tmp_path / "params.bin"
    save_param_set(pset, path)
    data = path.read_bytes()
    payload_start = len(data) - 4 * (12 + 5)
    damaged = {
        "magic": b"XXXX" + data[4:],
        "header": data[:20],  # inside the first tensor's header
        "payload": data[: payload_start + 10],
        "trailing": data + b"\0",
    }[cut]
    path.write_bytes(damaged)
    with pytest.raises(CheckpointError):
        load_param_set(path)
