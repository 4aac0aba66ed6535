"""CLI commands end to end on tiny configs."""

import contextlib
import csv
import io
import json
import math
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fedmt import cli
from fedmt.cli import main
from fedmt.config import METHODS, parse_config
from fedmt.model import THIRDS, param_layout, pruning_mask

from test_config import REFUSED_AT_PARSE

TINY_RUN = {
    "mode": "m2en",
    "method": "adapter-families",
    "seeds": [1],
    "evaluate_test_bleu": True,
    "data": {"scale": 0.01, "alphabet_size": 16, "length_range": [3, 6]},
    "model": {"model_dim": 16, "num_heads": 2, "ffn_dim": 32, "enc_layers": 1,
              "dec_layers": 1, "adapter_bottleneck": 2, "max_seq_len": 16},
    "fed": {"rounds": 2, "grad_accumulation": 1},
    "warmup": {"sentences_per_pair": 8, "epochs": 1},
}


# every (method, pruning) pair the config accepts
METHOD_PRUNING = [(m, "all") for m in METHODS] + [
    (m, p) for m, (adapters, _, _) in METHODS.items() if adapters for p in THIRDS
]
SMOKE_RUN = {
    "mode": "m2en",
    "seeds": [1],
    "evaluate_test_bleu": False,
    "data": {"scale": 1 / 64},
    "model": {"model_dim": 16, "num_heads": 2, "ffn_dim": 32, "adapter_bottleneck": 2},
    "fed": {"rounds": 1},
    "warmup": {"sentences_per_pair": 16, "epochs": 1},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    """The report directory of one TINY_RUN, and what the run printed."""
    tmp_path = tmp_path_factory.mktemp("cli_run")
    cfg_path = write_config(tmp_path, TINY_RUN)
    out = tmp_path / "report"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    return out, printed.getvalue()


@pytest.fixture(scope="module")
def run_dir(run_output):
    return run_output[0]


class TestRun:
    def test_report_layout(self, run_dir):
        # every file under --out, and nothing else: summary.json is the one summary
        with open(run_dir / "seed_1" / "metrics.csv") as handle:
            clients = {row["client"] for row in csv.DictReader(handle)}
        assert len(clients) == 8
        checkpoints = {"backbone.meta", "backbone.params"} | {f"{cid}.params" for cid in clients}
        assert {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file()} == (
            {"config.json", "summary.json"}
            | {f"seed_1/{name}" for name in ("metrics.csv", "comm.csv", "clusters.txt")}
            | {f"seed_1/checkpoints/{name}" for name in checkpoints})

    def test_printed_lines_agree_with_summary(self, run_output):
        # stdout is the run's one human-readable summary
        out, printed = run_output
        summary = json.loads((out / "summary.json").read_text())
        assert printed == (
            f"seed 1: mean dev loss {summary['mean_round0_dev_loss']:.4f} -> "
            f"{summary['mean_best_dev_loss']:.4f}, macro BLEU {summary['macro_bleu']:.2f}\n"
            f"adapter-families: macro {summary['macro_bleu']:.2f} "
            f"micro {summary['micro_bleu']:.2f}\n"
            f"report written to {out}\n")

    def test_no_bleu_printed_without_test_decoding(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(TINY_RUN, evaluate_test_bleu=False))
        out = tmp_path / "report"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--no-checkpoints"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["macro_bleu"] is None
        assert capsys.readouterr().out == (
            f"seed 1: mean dev loss {summary['mean_round0_dev_loss']:.4f} -> "
            f"{summary['mean_best_dev_loss']:.4f}\n"
            f"report written to {out}\n")

    def test_metrics_csv_structure(self, run_dir):
        with open(run_dir / "seed_1" / "metrics.csv") as handle:
            assert handle.readline() == (
                "phase,round,client,train_loss,dev_loss,best_round,test_bleu\n")
            handle.seek(0)
            rows = list(csv.DictReader(handle))
        phases = {r["phase"] for r in rows}
        assert phases == {"round0", "round", "final"}
        finals = [r for r in rows if r["phase"] == "final"]
        assert len(finals) == 8
        assert all(r["test_bleu"] != "" for r in finals)
        # round-major with the clients sorted, then the final rows
        clients = sorted(r["client"] for r in finals)
        rounds = [r for r in rows if r["phase"] != "final"]
        assert [(r["round"], r["client"]) for r in rounds] == [
            (str(index), cid) for index in range(3) for cid in clients]
        assert [r["client"] for r in finals] == clients
        dev = {(r["round"], r["client"]): r["dev_loss"] for r in rounds}
        assert all(r["dev_loss"] == dev[r["best_round"], r["client"]] for r in finals)

    def test_cluster_table_in_report(self, run_dir):
        text = (run_dir / "seed_1" / "clusters.txt").read_text()
        assert "families" in text
        assert "encoder clusters (4)" in text

    def test_comm_csv_has_sync_events(self, run_dir):
        with open(run_dir / "seed_1" / "comm.csv") as handle:
            rows = list(csv.DictReader(handle))
        # 2 rounds x 8 clients x 2 directions
        assert len(rows) == 32
        assert {r["direction"] for r in rows} == {"uplink", "downlink"}

    def test_config_snapshot_reproduces_run(self, run_dir, tmp_path):
        out2 = tmp_path / "rerun"
        assert main(["run", "--config", str(run_dir / "config.json"),
                     "--out", str(out2)]) == 0
        original = (run_dir / "seed_1" / "metrics.csv").read_bytes()
        rerun = (out2 / "seed_1" / "metrics.csv").read_bytes()
        assert original == rerun


class TestAdapterLocalLedger:
    def test_no_aggregation_events(self, tmp_path):
        payload = dict(TINY_RUN, method="adapter-local", evaluate_test_bleu=False)
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "report"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        with open(out / "seed_1" / "comm.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert rows == []
        # nothing is sent, so every payload figure of the summary is 0, while
        # trainable_params still counts what each client trains
        summary = json.loads((out / "summary.json").read_text())
        transfer = summary["transfer"]
        assert transfer["payload_bytes_per_client"] == 0
        assert transfer["per_client_seconds"] == transfer["serialized_seconds_all_clients"] == 0
        assert summary["trainable_params"] > 0


class TestCountParams:
    def test_mbart50_preset_output(self, capsys):
        assert main(["count-params", "--preset", "mbart50"]) == 0
        out = capsys.readouterr().out
        assert "610,900,000" in out
        assert "7,929,600" in out
        assert "2,643,200" in out
        assert "98.7" in out
        assert "66.7 %" in out

    def test_toy_config_counts_match(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY_RUN)
        assert main(["count-params", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        trainable = int(out.split("trainable params:")[1].split()[0].replace(",", ""))
        payload = int(out.split("payload per sync:")[1].split()[0].replace(",", ""))
        assert payload == 4 * trainable > 0

    @pytest.mark.parametrize("method, pruning", [("adapter-families", "all"),
                                                 ("adapter-families", "middle"),
                                                 ("model-fed", "all"),
                                                 ("adapter-local", "all")])
    def test_payload_is_what_a_run_sends(self, tmp_path, capsys, method, pruning):
        # count-params builds the model the run builds: the method's and the
        # pruning's, so its payload is every ledger row's bytes; a method
        # that never syncs has no rows and a payload of 0. The summary
        # states the same payload.
        cfg_path = write_config(tmp_path, dict(SMOKE_RUN, method=method, pruning=pruning))
        assert main(["count-params", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        payload = int(out.split("payload per sync:")[1].split()[0].replace(",", ""))
        report = tmp_path / "report"
        assert main(["run", "--config", cfg_path, "--out", str(report), "--no-checkpoints"]) == 0
        with open(report / "seed_1" / "comm.csv") as handle:
            sent = {(int(row["param_count"]), int(row["bytes"])) for row in csv.DictReader(handle)}
        summary = json.loads((report / "summary.json").read_text())
        assert summary["transfer"]["payload_bytes_per_client"] == payload
        # the values each client sends per sync: the summary's payload over
        # config.json's bytes_per_param, which every ledger row carries
        bytes_per_param = json.loads((report / "config.json").read_text())["fed"]["bytes_per_param"]
        values, rest = divmod(payload, bytes_per_param)
        assert rest == 0
        assert sent == ({(values, payload)} if payload else set())

    def test_adapter_count_is_the_layouts(self, tmp_path, capsys):
        # the adapter tensors of the layout at the sites "middle" keeps
        cfg_path = write_config(tmp_path, dict(SMOKE_RUN, method="adapter-families",
                                               pruning="middle"))
        assert main(["count-params", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        printed = int(out.split("adapter params:")[1].split()[0].replace(",", ""))
        model_cfg = parse_config(cfg_path).model
        kept = pruning_mask(model_cfg, "middle")
        sizes = [(math.prod(spec.shape), kept[spec.site.prefix])
                 for spec in param_layout(model_cfg) if spec.site is not None]
        assert printed == sum(size for size, keep in sizes if keep)
        assert 0 < printed < sum(size for size, _ in sizes)

    def test_unknown_preset_is_config_error(self):
        assert main(["count-params", "--preset", "m2m100"]) == 1

    def test_preset_and_config_together_is_config_error(self, tmp_path, capsys):
        # refused before the config is read, so a missing file cannot hide it
        missing = str(tmp_path / "missing.json")
        assert main(["count-params", "--preset", "mbart50", "--config", missing]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: count-params takes --preset or --config, not both\n"

    def test_no_arguments_is_config_error(self):
        assert main(["count-params"]) == 1


class TestGenData:
    def test_writes_parallel_files(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(TINY_RUN, seeds=[2]))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        files = sorted((out / "seed_2").glob("*.tsv"))
        assert len(files) == 24  # 8 pairs x 3 splits
        line = files[0].read_text().splitlines()[0]
        assert "\t" in line


class TestExitCodes:
    def test_config_error_exit_1(self, tmp_path):
        cfg_path = write_config(tmp_path, {"mode": "m2en"})
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1

    def test_bad_combination_exit_1(self, tmp_path):
        payload = dict(TINY_RUN, method="model-fed", pruning="input_end")
        cfg_path = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1

    def test_wrongly_typed_value_exit_1(self, tmp_path, capsys):
        payload = dict(TINY_RUN, evaluate_test_bleu="false")
        cfg_path = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
        assert "evaluate_test_bleu" in capsys.readouterr().err

    def test_non_finite_value_exit_1_without_traceback(self, tmp_path, capsys):
        payload = dict(TINY_RUN, data=dict(TINY_RUN["data"], scale=float("nan")))
        cfg_path = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "configuration error: data.scale" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "count-params"])
    def test_config_not_utf8_exit_1_without_traceback(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff" + json.dumps(TINY_RUN).encode())
        out = tmp_path / "x"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg_path), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("override, key", REFUSED_AT_PARSE)
    def test_value_refused_at_parse_exit_1_before_any_output(self, tmp_path, capsys,
                                                             override, key):
        cfg_path = write_config(tmp_path, {"mode": "m2en", "method": "adapter-fed", **override})
        out = tmp_path / "x"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        assert re.search(f"^configuration error: {key}", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("data", [
        {"alphabet_size": 8, "length_range": [1, 1]},  # 8 distinct sentences, 20 needed
        {"zipf_exponent": 60},  # all the mass on one symbol
    ])
    def test_corpus_with_too_few_distinct_sentences_exit_1(self, tmp_path, capsys, data):
        cfg_path = write_config(tmp_path, {"mode": "m2en", "method": "adapter-fed", "data": data})
        start = time.perf_counter()
        assert main(["gen-data", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        for key in ("data.alphabet_size", "data.length_range", "data.zipf_exponent"):
            assert key in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--out", "x"], "fedmt run: the following arguments are required: --config"),
        (["gen-data", "--config", "c.json", "--out", "x", "--bogus"],
         "fedmt: unrecognized arguments: --bogus"),
        (["train"], "fedmt: argument command: invalid choice: 'train'"),
        ([], "fedmt: the following arguments are required: command"),
    ])
    def test_usage_error_exit_1_on_one_line(self, capsys, argv, message):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fedmt")

    @pytest.mark.parametrize("seeds", ["1_0", "+3", "\u0665", "08", "1.0", "true", "[1]", "1;2"])
    def test_seed_override_is_read_as_json_integers(self, tmp_path, capsys, seeds):
        # each entry is read as a config's seeds items are: int() read the
        # first four as 10, 3, 5 (Arabic-Indic five) and 8, and JSON reads
        # the next three as a float, a boolean and a list
        cfg_path = write_config(tmp_path, TINY_RUN)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg_path, "--out", str(out), f"--seeds={seeds}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --seeds") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [  # an unknown key, in a section, repeated
        r'{"mode": "m2en", "method": "adapter-fed", "a\nb": 1}',
        r'{"mode": "m2en", "method": "adapter-fed", "data": {"a\nb": 1}}',
        r'{"a\nb": 0, "mode": "m2en", "method": "adapter-fed", "a\nb": 1}',
    ])
    def test_key_with_a_line_break_is_named_on_one_line(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert r'"a\nb"' in err and err.count("\n") == 1

    def test_deeply_nested_seed_override_exit_1_on_one_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY_RUN)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--seeds", "[" * 5000]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --seeds") and err.count("\n") == 1
        assert not out.exists()

    def test_seed_override_runs_each_seed(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(SMOKE_RUN, method="adapter-local"))
        out = tmp_path / "x"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--seeds", "1,2",
                     "--no-checkpoints"]) == 0
        assert json.loads((out / "config.json").read_text())["seeds"] == [1, 2]
        assert (out / "seed_1" / "metrics.csv").is_file()
        assert (out / "seed_2" / "metrics.csv").is_file()

    @pytest.mark.parametrize("command", ["count-params", "run"])
    def test_config_beyond_memory_exit_2_on_one_line(self, tmp_path, capsys, command):
        # numpy refuses an array beyond the address space at once, so
        # building this model allocates nothing
        cfg_path = write_config(tmp_path, {"mode": "m2en", "method": "adapter-fed",
                                           "model": {"ffn_dim": 1_000_000_000_000}})
        extra = ["--out", str(tmp_path / "x")] if command == "run" else []
        assert main([command, "--config", cfg_path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: Unable to allocate") and err.count("\n") == 1

    def test_negative_seed_override_exit_1(self, tmp_path, capsys):
        # an empty override or entry is refused like a bad one, not skipped
        cfg_path = write_config(tmp_path, TINY_RUN)
        out = tmp_path / "x"
        for seeds in ("--seeds=-3", "--seeds=", "--seeds=1,,2"):
            assert main(["run", "--config", cfg_path, "--out", str(out), seeds]) == 1, seeds
            assert "seeds: " in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("method, pruning", METHOD_PRUNING)
def test_every_method_and_pruning_runs(tmp_path, method, pruning):
    assert len(METHOD_PRUNING) == 26
    cfg_path = write_config(tmp_path, dict(SMOKE_RUN, method=method, pruning=pruning))
    out = tmp_path / "report"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--no-checkpoints"]) == 0
    assert (out / "seed_1" / "metrics.csv").exists()


def test_gradient_clustering_with_pruned_first_layer_exit_0(tmp_path):
    # the probe reads the first active encoder adapter, not a pruned one
    payload = dict(SMOKE_RUN, mode="m2m", method="adapter-gradients", pruning="output_end")
    cfg_path = write_config(tmp_path, payload)
    out = tmp_path / "report"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--no-checkpoints"]) == 0
    assert "gradients" in (out / "seed_1" / "clusters.txt").read_text()


# Calls cli.main, then runs one gradient to touch its working set, then
# prints the minor page faults of four more gradients (default model
# dimensions, a ragged batch of 64 sentences).
_FAULTS_AFTER_MAIN = """
import contextlib, io, resource, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from fedmt import cli
from fedmt.model import Batch, ModelConfig, build_model, grad
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["count-params", "--preset", "mbart50"])
model = build_model(ModelConfig(vocab_size=90), 0)
rng = np.random.default_rng(0)
src_len, tgt_len = rng.integers(5, 15, size=(2, 64))
src_mask = np.arange(14) < src_len[:, None]
tgt_mask = np.arange(14) < tgt_len[:, None]
src, tgt_in, tgt_gold = rng.integers(3, 90, size=(3, 64, 14))
tgt_in[:, 0] = 1
batch = Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask)
needed = model.trainable_names()
grad(model, batch, needed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    grad(model, batch, needed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap policy is glibc-only")
def test_main_keeps_freed_gradient_memory_mapped():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _FAULTS_AFTER_MAIN, str(src)],
                          capture_output=True, text=True, check=True)
    # glibc's defaults hand each batch's ~49 MB of activations back to the
    # kernel and fault them in again: about 38k faults for these four grads
    assert int(done.stdout.strip().splitlines()[-1]) < 5000
    assert cli._keep_heap_mapped()


def test_heap_policy_is_left_alone_off_glibc(monkeypatch):
    opened = []
    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2"))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda *args, **kwargs: opened.append(args))
    assert cli._keep_heap_mapped() is False
    assert opened == []
