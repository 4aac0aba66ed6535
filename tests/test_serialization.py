"""Binary parameter files and model checkpoints with metadata sidecars."""

import struct

import numpy as np
import pytest

from fedmt.config import METHODS, config_from_dict
from fedmt.errors import CheckpointError
from fedmt.model import (
    PRUNING_STRATEGIES,
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from fedmt.params import NamedParamSet, load_param_set, save_param_set
from fedmt.runner import build_method_model, prepare_data

from test_federation import params_equal


def test_param_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pset = NamedParamSet({
        "enc.a": rng.normal(size=(3, 4)).astype(np.float32),
        "dec.b": rng.normal(size=(7,)).astype(np.float32),
        "emb.c": rng.normal(size=(2, 2, 2)),  # float64
    })
    path = tmp_path / "params.bin"
    save_param_set(pset, path)
    loaded = load_param_set(path)
    assert loaded.names == pset.names
    for name in pset.names:
        assert loaded.values(name).dtype == pset.values(name).dtype
        assert np.array_equal(loaded.values(name), pset.values(name))


def test_param_file_refuses_other_dtypes(tmp_path):
    pset = NamedParamSet({"x": np.arange(3)})  # int64
    with pytest.raises(CheckpointError):
        save_param_set(pset, tmp_path / "params.bin")


def test_param_file_is_stable_bytes(tmp_path):
    pset = NamedParamSet({"x": np.arange(6, dtype=np.float32).reshape(2, 3)})
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_param_set(pset, p1)
    save_param_set(pset, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip(tmp_path):
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=3, dec_layers=3, adapter_bottleneck=2,
                         max_seq_len=12, dtype="float32")
    model = build_model(config, 11, "middle")
    save_checkpoint(model, tmp_path / "ckpt")
    assert "adapter." not in (tmp_path / "ckpt.meta").read_text()
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config == config
    assert [s.layer for s in loaded.active_sites()] == [1] * 5
    assert loaded.active_sites() == model.active_sites()
    assert loaded.params.names == model.params.names
    for name in model.params.names:
        assert np.array_equal(loaded.params.values(name), model.params.values(name))
    assert loaded.trainable_names() == model.trainable_names()
    assert loaded.trainable_by_side() == model.trainable_by_side()


def _method_runs():
    for method, (uses_adapters, _, _) in METHODS.items():
        for pruning in (PRUNING_STRATEGIES if uses_adapters else ("all",)):
            yield method, pruning


@pytest.mark.parametrize("method,pruning", list(_method_runs()))
def test_checkpoint_keeps_what_trains_and_where_it_syncs(tmp_path, method, pruning):
    # what trains and each tensor's side are read from the model's layout,
    # so a loaded checkpoint reports what the model it was saved from does
    cfg = config_from_dict({
        "mode": "m2en", "method": method, "pruning": pruning, "seeds": [1],
        "data": {"scale": 0.01, "alphabet_size": 16, "length_range": [3, 6]},
        "model": {"model_dim": 8, "num_heads": 2, "ffn_dim": 16, "enc_layers": 3,
                  "dec_layers": 3, "adapter_bottleneck": 2, "max_seq_len": 16},
    })
    _, _, vocab = prepare_data(cfg, 1)
    model = build_method_model(cfg, 1, vocab, backbone=None)
    save_checkpoint(model, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert params_equal(loaded.params, model.params)
    assert loaded.trainable_names() == model.trainable_names()
    assert loaded.trainable_by_side() == model.trainable_by_side()
    trainable = set(model.trainable_names())
    if cfg.uses_adapters:
        assert "emb.token.weight" not in trainable
        assert trainable == {n for n in model.params.names if "_adapter." in n or "ln" in n}
    else:
        assert trainable == set(model.params.names)


def test_float64_checkpoint_round_trips_bitwise(tmp_path):
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=1, dec_layers=1, adapter_bottleneck=2,
                         max_seq_len=12, dtype="float64")
    model = build_model(config, 5)
    model = model.with_params(model.params.replace_values(
        {"emb.token.weight": np.full((20, 8), 0.1)}
    ))
    save_checkpoint(model, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config == config
    assert loaded.params.values("emb.token.weight")[0, 0] == 0.1
    for name in model.params.names:
        other = loaded.params.values(name)
        assert other.dtype == np.float64
        assert other.tobytes() == model.params.values(name).tobytes()


@pytest.mark.parametrize("damage", ["missing", "unparsable", "invalid", "unknown", "legacy",
                                    "disagrees", "dtype"])
def test_damaged_meta_raises_checkpoint_error(tmp_path, damage):
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=1, dec_layers=1, adapter_bottleneck=2, max_seq_len=12)
    save_checkpoint(build_model(config, 0), tmp_path / "ckpt")
    meta = tmp_path / "ckpt.meta"
    text = meta.read_text()
    meta.write_text({
        "missing": text.replace("model_dim=8\n", ""),
        "unparsable": text.replace("model_dim=8", "model_dim=eight"),
        "invalid": text.replace("num_heads=2", "num_heads=0"),
        "unknown": text + "colour=blue\n",
        # the adapter lines of checkpoints from before the parameter set was
        # the only record of a model's adapters
        "legacy": text + "adapter.enc.layer0.attn_adapter=1\n",
        "disagrees": text.replace("model_dim=8\n", "model_dim=16\n"),
        "dtype": text.replace("dtype=float32", "dtype=float64"),
    }[damage])
    assert meta.read_text() != text
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("dropped", ["enc.layer0.attn_adapter.up.bias",
                                     "dec.layer0.cross_adapter.down.weight",
                                     "dec.layer0.ln2.weight"])
def test_params_missing_a_tensor_raise_checkpoint_error(tmp_path, dropped):
    # one tensor of an adapter site, or of the backbone, is missing; a site
    # missing all of its tensors is a pruned one and loads
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=1, dec_layers=1, adapter_bottleneck=2, max_seq_len=12)
    model = build_model(config, 0)
    save_checkpoint(model, tmp_path / "ckpt")
    save_param_set(model.params.filter(lambda name: name != dropped), tmp_path / "ckpt.params")
    with pytest.raises(CheckpointError, match="missing tensor"):
        load_checkpoint(tmp_path / "ckpt")
    prefix = dropped.rsplit(".", 2)[0]
    if prefix.endswith("_adapter"):
        save_param_set(model.params.filter(lambda name: not name.startswith(prefix + ".")),
                       tmp_path / "ckpt.params")
        assert prefix not in {s.prefix for s in load_checkpoint(tmp_path / "ckpt").active_sites()}


@pytest.mark.parametrize("cut", ["magic", "version", "header", "payload", "trailing", "twice"])
def test_damaged_param_file_raises_checkpoint_error(tmp_path, cut):
    pset = NamedParamSet({
        "enc.a": np.ones((3, 4), np.float32),
        "dec.b": np.ones(5, np.float32),
    })
    path = tmp_path / "params.bin"
    save_param_set(pset, path)
    data = path.read_bytes()
    payload_start = len(data) - 4 * (12 + 5)
    damaged = {
        "magic": b"XXXX" + data[4:],
        "version": data[:4] + (1).to_bytes(4, "little") + data[8:],  # the float32-only format
        "header": data[:20],  # inside the first tensor's header
        "payload": data[: payload_start + 10],
        "trailing": data + b"\0",
        "twice": data.replace(b"dec.b", b"enc.a"),  # one name for both tensors
    }[cut]
    path.write_bytes(damaged)
    with pytest.raises(CheckpointError):
        load_param_set(path)


def test_version_2_param_file_is_refused(tmp_path):
    # the format that stored a side and a trainable byte per tensor
    name = b"enc.a"
    data = b"".join([
        b"FMPS", struct.pack("<II", 2, 1),
        struct.pack("<H", len(name)), name,
        struct.pack("<BBBB", 0, 1, 0, 1), struct.pack("<I", 3),  # side, trainable, dtype, ndim
        np.ones(3, np.float32).tobytes(),
    ])
    path = tmp_path / "params.bin"
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match="unsupported format version 2"):
        load_param_set(path)
