"""The boundary under random damage: a config file, a ``--seeds`` value, a
``backbone.meta`` and a ``.params`` file each either load or raise a
:class:`FedmtError`; through ``fedmt run`` that is exit 1 or 2 with one
stderr line, never a traceback. A damaged ``.params`` file that loads gives
back the saved tensors bit for bit.

Each draw starts from a valid input and applies up to three edits: a bit
flip, a cut, an inserted run of bytes, or a container nested 40, 900 or
5,000 levels deep (where the parser and the recursive checks once ran out
of interpreter stack). ``fedmt run`` is given an ``--out`` that is a file,
so a config and seeds that both parse stop at exit 2 before any work.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmt.cli import main
from fedmt.errors import CheckpointError
from fedmt.model import ModelConfig, ToyModel, build_model
from fedmt.reporting import load_checkpoint, save_checkpoints

CONFIG = {
    "mode": "m2m", "method": "adapter-gradients", "seeds": [1, 2],
    "data": {"scale": 0.01, "length_range": [3, 6]},
    "model": {"model_dim": 16, "num_heads": 2, "max_seq_len": 16},
    "fed": {"rounds": 2, "learning_rate": 0.002},
}
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def damaged(draw, original: bytes) -> bytes:
    data = bytearray(original)
    # placed uniformly: hypothesis's own integers favour small values, the
    # start of the input, and seldom reach a binary file's values
    uniform = draw(st.randoms(use_true_random=True))
    for _ in range(draw(st.integers(1, 3))):
        at = uniform.randint(0, len(data))
        kind = draw(st.sampled_from(["flip", "cut", "insert", "nest"]))
        if kind == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "cut":
            del data[at : at + draw(st.integers(1, 16))]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "nest":
            depth = draw(st.sampled_from([40, 900, 5000]))
            closed = draw(st.booleans())
            data[at:at] = b"[" * depth + (b"]" * depth if closed else b"")
    return bytes(data)


def nested_value(obj: dict, key: str, depth: int) -> bytes:
    """``obj`` as JSON text with ``key``'s value a list nested ``depth`` deep."""
    text = json.dumps({**obj, key: "@"}, indent=2)
    return text.replace('"@"', "[" * depth + "]" * depth).encode()


def json_inputs(obj: dict) -> st.SearchStrategy[bytes]:
    """``obj``'s JSON text damaged, with one value nested deep, or with an
    extra key (an unknown key is named in the error)."""
    return st.one_of(
        damaged(json.dumps(obj, indent=2).encode()),
        st.builds(nested_value, st.just(obj), st.sampled_from(sorted(obj)),
                  st.sampled_from([33, 700, 990, 5000])),
        st.builds(lambda key: json.dumps({**obj, key: 1}).encode(), st.text(max_size=4)),
    )


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_refused_on_one_line(code: int, err: str) -> None:
    assert code in (1, 2), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith("configuration error: " if code == 1 else "runtime error: "), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("boundary")
    (path / "cfg.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    (path / "out").write_text("a file, so `fedmt run` stops before any work")
    return path


@PROPERTY
@given(text=json_inputs(CONFIG))
def test_damaged_config_exits_1_or_2_on_one_line(workdir, text):
    config = workdir / "damaged.json"
    config.write_bytes(text)
    assert_refused_on_one_line(*run_cli(["run", "--config", str(config),
                                         "--out", str(workdir / "out")]))


SEED_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789,-+.e_[]{}\": \n٥"), max_size=12),
    st.builds(lambda depth, tail: "[" * depth + tail, st.sampled_from([40, 900, 5000]),
              st.sampled_from(["", "1", "]" * 40, "]" * 5000])),
    st.builds(lambda digits: "1" * digits, st.sampled_from([19, 4301, 5000])),
)


@PROPERTY
@given(seeds=SEED_TEXT)
def test_seed_override_exits_1_or_2_on_one_line(workdir, seeds):
    assert_refused_on_one_line(*run_cli(["run", "--config", str(workdir / "cfg.json"),
                                         "--out", str(workdir / "out"), f"--seeds={seeds}"]))


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> tuple[Path, ToyModel]:
    """A tiny saved client, ``ckpt``, and the model it was saved from."""
    config = ModelConfig(vocab_size=12, model_dim=4, num_heads=2, ffn_dim=8, enc_layers=1,
                         dec_layers=1, adapter_bottleneck=2, max_seq_len=8)
    directory = tmp_path_factory.mktemp("checkpoint")
    model = build_model(config, 0)
    save_checkpoints({"ckpt": model}, directory)
    return directory, model


def load_damaged(directory: Path, name: str, data: bytes) -> ToyModel | None:
    """The client ``ckpt`` loaded with the file ``name`` replaced by
    ``data``, or None where that raises :class:`CheckpointError`."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(shutil.copytree(directory, Path(scratch) / "ckpt"))
        (copy / name).write_bytes(data)
        try:
            return load_checkpoint(copy / "ckpt")
        except CheckpointError:
            return None


@PROPERTY
@given(data=st.data())
def test_damaged_meta_loads_or_raises_checkpoint_error(checkpoint, data):
    directory, _ = checkpoint
    meta = json.loads((directory / "backbone.meta").read_text())
    load_damaged(directory, "backbone.meta", data.draw(json_inputs(meta)))


# more draws than PROPERTY: about 4 in 100 of these damages loaded as a
# different model from the hand-written format the zip archive replaced,
# which 120 draws miss with a chance under 1 in 100
@settings(max_examples=120, deadline=None)
@given(data=st.data(), name=st.sampled_from(["backbone.params", "ckpt.params"]))
def test_damaged_params_load_or_raise_checkpoint_error(checkpoint, data, name):
    # a damage that loads is one zip reads past, such as a trailing byte;
    # a damaged value fails its member's CRC-32
    directory, saved = checkpoint
    loaded = load_damaged(directory, name, data.draw(damaged((directory / name).read_bytes())))
    if loaded is not None:
        assert loaded.params.names == saved.params.names
        for tensor in saved.params.names:
            ours, theirs = loaded.params.values(tensor), saved.params.values(tensor)
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
            assert ours.tobytes() == theirs.tobytes()
