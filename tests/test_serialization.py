"""Binary parameter files and a seed's checkpoint directory: the config and
every tensor all clients hold as one array, once, and per client the rest."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from fedmt.config import METHODS, config_from_dict
from fedmt.errors import CheckpointError
from fedmt.model import PRUNING_STRATEGIES, ModelConfig, build_model
from fedmt.params import NamedParamSet, load_param_set, save_param_set
from fedmt.reporting import load_checkpoint, save_checkpoints
from fedmt.runner import build_method_model, prepare_data, run_seed

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
    save_checkpoints({"ckpt": model}, tmp_path)
    # the bound config as a JSON object, written the way config.json is
    meta = (tmp_path / "backbone.meta").read_text(encoding="utf-8")
    assert meta == json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n"
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
    save_checkpoints({"ckpt": model}, tmp_path)
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert params_equal(loaded.params, model.params)
    assert loaded.trainable_names() == model.trainable_names()
    assert loaded.trainable_by_side() == model.trainable_by_side()
    trainable = set(model.trainable_names())
    # one client shares every tensor with itself: the backbone file holds
    # them all, the client file none
    assert load_param_set(tmp_path / "ckpt.params").names == ()
    assert load_param_set(tmp_path / "backbone.params").names == model.params.names
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
    save_checkpoints({"ckpt": model}, tmp_path)
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config == config
    assert loaded.params.values("emb.token.weight")[0, 0] == 0.1
    for name in model.params.names:
        other = loaded.params.values(name)
        assert other.dtype == np.float64
        assert other.tobytes() == model.params.values(name).tobytes()


def _key_value_text(meta_text):
    # the key=value format backbone.meta had before it was JSON
    return "".join(f"{key}={value}\n" for key, value in json.loads(meta_text).items())


# damage -> (the edit to backbone.meta's text, what the error names besides the file)
META_DAMAGE = {
    "missing": (lambda t: t.replace('  "model_dim": 8,\n', ""),
                "model_dim: required key missing"),
    "string": (lambda t: t.replace('"model_dim": 8', '"model_dim": "8"'), "model_dim: expected"),
    "float": (lambda t: t.replace('"model_dim": 8', '"model_dim": 8.0'), "model_dim: expected"),
    "bool": (lambda t: t.replace('"model_dim": 8', '"model_dim": true'), "model_dim: expected"),
    "unparsable": (lambda t: t.replace('"model_dim": 8', '"model_dim": 0_8'), "invalid JSON"),
    "legacy": (_key_value_text, "invalid JSON"),
    # a second value for a key the file already holds, valid on its own
    "repeated": (lambda t: t.replace("{", '{\n  "adapter_nonlinearity": "gelu",', 1),
                 "adapter_nonlinearity: repeated key"),
    "unknown": (lambda t: t.replace("{", '{\n  "colour": "blue",', 1), "colour: unknown key"),
    "invalid": (lambda t: t.replace('"num_heads": 2', '"num_heads": 0'), "num_heads must be"),
    "not_utf8": (None, "not UTF-8"),
    "array": (lambda t: f"[{t}]", "top level must be an object"),
    "nested": (lambda t: t.replace('"model_dim": 8', '"model_dim": ' + "[" * 5000 + "]" * 5000),
               "nested deeper than"),
    "disagrees": (lambda t: t.replace('"model_dim": 8', '"model_dim": 16'), "backbone.meta says"),
    "dtype": (lambda t: t.replace('"float32"', '"float64"'), "backbone.meta says"),
}


@pytest.mark.parametrize("damage", list(META_DAMAGE))
def test_damaged_meta_raises_checkpoint_error(tmp_path, damage):
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=1, dec_layers=1, adapter_bottleneck=2, max_seq_len=12)
    save_checkpoints({"ckpt": build_model(config, 0)}, tmp_path)
    meta = tmp_path / "backbone.meta"
    text = meta.read_text()
    edit, names = META_DAMAGE[damage]
    if edit is None:
        meta.write_bytes(b"\xff" + text.encode())
    else:
        meta.write_text(edit(text))
    assert meta.read_bytes() != text.encode()
    with pytest.raises(CheckpointError) as refused:
        load_checkpoint(tmp_path / "ckpt")
    assert "backbone.meta" in str(refused.value) and names in str(refused.value)


@pytest.mark.parametrize("max_seq_len", [-3, 0, 1, 2])
def test_meta_with_too_short_max_seq_len_raises_checkpoint_error(tmp_path, max_seq_len):
    # no row is shorter than a one-token sentence plus its two special
    # tokens; positions are computed, not stored, so no tensor disagrees
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=1, dec_layers=1, adapter_bottleneck=2, max_seq_len=12)
    save_checkpoints({"ckpt": build_model(config, 0)}, tmp_path)
    meta = tmp_path / "backbone.meta"
    meta.write_text(meta.read_text().replace('"max_seq_len": 12', f'"max_seq_len": {max_seq_len}'))
    with pytest.raises(CheckpointError, match=r"backbone\.meta: .*max_seq_len"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("dropped", ["enc.layer0.attn_adapter.up.bias",
                                     "dec.layer0.cross_adapter.down.weight",
                                     "dec.layer0.ln2.weight",
                                     "enc.layer0.ffn.fc1.bias"])
def test_params_missing_a_tensor_raise_checkpoint_error(tmp_path, dropped):
    # one tensor of an adapter site, or of the backbone, is missing from the
    # file that holds it; a site missing all of its tensors is a pruned one
    # and loads
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=1, dec_layers=1, adapter_bottleneck=2, max_seq_len=12)
    model = build_model(config, 0)
    save_checkpoints({"ckpt": model}, tmp_path)
    holder = next(path for path in (tmp_path / "ckpt.params", tmp_path / "backbone.params")
                  if dropped in load_param_set(path))
    written = load_param_set(holder)
    save_param_set(written.filter(lambda name: name != dropped), holder)
    with pytest.raises(CheckpointError, match="missing tensor"):
        load_checkpoint(tmp_path / "ckpt")
    prefix = dropped.rsplit(".", 2)[0]
    if prefix.endswith("_adapter"):
        save_param_set(written.filter(lambda name: not name.startswith(prefix + ".")), holder)
        assert prefix not in {s.prefix for s in load_checkpoint(tmp_path / "ckpt").active_sites()}


@pytest.mark.parametrize("damage", ["backbone.meta", "backbone.params", "client file",
                                    "full client file"])
def test_old_or_mixed_directory_raises_checkpoint_error(tmp_path, damage):
    # a directory written before the backbone was stored once holds a full
    # model per client and no backbone files; a full client file next to a
    # backbone file repeats every tensor that file holds; a client file that
    # holds no tensor is still the record that the client exists
    config = ModelConfig(vocab_size=20, model_dim=8, num_heads=2, ffn_dim=16,
                         enc_layers=1, dec_layers=1, adapter_bottleneck=2, max_seq_len=12)
    model = build_model(config, 0)
    save_checkpoints({"ckpt": model}, tmp_path)
    save_param_set(model.params, tmp_path / "ckpt.params")
    if damage == "full client file":
        match = f"tensor '{model.params.names[0]}' is also in"
    else:
        path = tmp_path / ("ckpt.params" if damage == "client file" else damage)
        path.unlink()
        match = f"{path.name}: missing"
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(tmp_path / "ckpt")


def _seed_models(method):
    cfg = config_from_dict({
        "mode": "m2en", "method": method, "seeds": [1], "evaluate_test_bleu": False,
        "data": {"scale": 0.01, "alphabet_size": 16, "length_range": [3, 6]},
        "model": {"model_dim": 8, "num_heads": 2, "ffn_dim": 16, "enc_layers": 1,
                  "dec_layers": 1, "adapter_bottleneck": 2, "max_seq_len": 16},
        "fed": {"rounds": 1, "grad_accumulation": 1},
        "warmup": {"sentences_per_pair": 8, "epochs": 1},
    })
    return run_seed(cfg, 1)


def _assert_loads_bitwise(directory, models):
    for cid, model in models.items():
        loaded = load_checkpoint(directory / cid)
        assert loaded.config == model.config
        assert loaded.params.names == model.params.names
        for name in model.params.names:
            ours, saved = loaded.params.values(name), model.params.values(name)
            assert ours.shape == saved.shape
            assert ours.dtype == saved.dtype and ours.tobytes() == saved.tobytes()


@pytest.mark.parametrize("method", ["adapter-families", "model-fed", "centralized-adapter"])
def test_seed_checkpoints_load_to_each_clients_model(tmp_path, method):
    # run_seed's selected models: each client loads bitwise to its own, and
    # its file holds only what it does not share with every other client
    result, models = _seed_models(method)
    save_checkpoints(models, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == (
        {"backbone.meta", "backbone.params"} | {f"{cid}.params" for cid in models})
    _assert_loads_bitwise(tmp_path, models)
    for cid, model in models.items():
        held = load_param_set(tmp_path / f"{cid}.params").names
        if method == "adapter-families":
            # the encoder side is averaged per family cluster, the decoder
            # side over every client, which all selected the same round
            assert result.run.best_round[cid] == 1
            assert list(held) == model.trainable_by_side()["encoder"]
        else:
            # one aggregation over every client, or one pooled party
            assert held == ()


@pytest.mark.parametrize("method", ["adapter-families", "model-fed"])
def test_directory_split_by_what_trains_loads(tmp_path, method):
    # a directory written when backbone.params held every tensor no client
    # trains and each client file its trainable_names() loads unchanged
    _, models = _seed_models(method)
    save_checkpoints(models, tmp_path)
    trained = {name for model in models.values() for name in model.trainable_names()}
    first = next(iter(models.values()))
    save_param_set(first.params.filter(lambda name: name not in trained),
                   tmp_path / "backbone.params")
    for cid, model in models.items():
        names = set(model.trainable_names())
        save_param_set(model.params.filter(names.__contains__), tmp_path / f"{cid}.params")
    _assert_loads_bitwise(tmp_path, models)


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
