"""CLI commands end to end on tiny configs."""

import csv
import json

import pytest

from fedmt.cli import main

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


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_run")
    cfg_path = write_config(tmp_path, TINY_RUN)
    out = tmp_path / "report"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    return out


class TestRun:
    def test_report_layout(self, run_dir):
        assert (run_dir / "config.json").exists()
        assert (run_dir / "summary.csv").exists()
        assert (run_dir / "summary.txt").exists()
        seed_dir = run_dir / "seed_1"
        for name in ("metrics.csv", "comm.csv", "clusters.txt"):
            assert (seed_dir / name).exists()
        assert any((seed_dir / "checkpoints").glob("*.params"))

    def test_metrics_csv_structure(self, run_dir):
        with open(run_dir / "seed_1" / "metrics.csv") as handle:
            rows = list(csv.DictReader(handle))
        phases = {r["phase"] for r in rows}
        assert phases == {"round0", "round", "final"}
        finals = [r for r in rows if r["phase"] == "final"]
        assert len(finals) == 8
        assert all(r["test_bleu"] != "" for r in finals)

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
        assert "trainable params" in out

    def test_unknown_preset_is_config_error(self):
        assert main(["count-params", "--preset", "m2m100"]) == 1

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
