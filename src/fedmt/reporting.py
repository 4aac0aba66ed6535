"""Run-report writers: metrics.csv, comm.csv, clusters.txt, summaries.

All floats are formatted with a fixed ``%.10g`` so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

from .clustering import ClusterAssignment
from .config import ExperimentConfig, config_to_dict
from .federation import CommLedger
from .runner import SeedResult, sync_param_count


def fnum(value) -> str:
    if value is None:
        return ""
    return f"{value:.10g}"


def write_metrics_csv(path: Path, result: SeedResult) -> None:
    """Round rows, round-major with clients sorted, then final rows."""
    run = result.run
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["phase", "round", "client",
                         "train_loss", "dev_loss", "best_round", "test_bleu"])
        for index, losses in enumerate(run.dev_loss):
            phase = "round0" if index == 0 else "round"
            for cid in sorted(losses):
                writer.writerow([phase, index, cid, fnum(run.train_loss[index].get(cid)),
                                 fnum(losses[cid]), "", ""])
        for cid, best in sorted(run.best_round.items()):
            writer.writerow(["final", "", cid, "", fnum(run.dev_loss[best][cid]),
                             best, fnum(result.test_bleu.get(cid))])


def write_comm_csv(path: Path, ledger: CommLedger) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["round", "client", "direction", "param_count", "bytes", "seconds"])
        for e in ledger.entries:
            writer.writerow([e.round, e.client, e.direction, e.param_count,
                             e.bytes, fnum(e.seconds)])


def write_clusters_txt(path: Path, assignment: ClusterAssignment | None) -> None:
    text = assignment.describe() if assignment is not None else "no clustering (no aggregation or global sharing)"
    path.write_text(text + "\n", encoding="utf-8")


def write_config_snapshot(path: Path, cfg: ExperimentConfig) -> None:
    path.write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def write_summary(out_dir: Path, cfg: ExperimentConfig, results: list[SeedResult]) -> dict:
    """Seed-averaged per-pair BLEU, macro/micro, and transfer-time table."""
    pairs = sorted(results[0].test_bleu)
    summary: dict = {
        "method": cfg.method,
        "mode": cfg.mode,
        "seeds": [r.seed for r in results],
        "trainable_params": results[0].trainable_params,
        "total_params": results[0].total_params,
        "per_pair_bleu": {
            p: _mean([r.test_bleu[p] for r in results]) for p in pairs
        },
        "macro_bleu": _mean([r.macro for r in results]) if pairs else None,
        "micro_bleu": _mean([r.micro for r in results]) if pairs else None,
        "mean_round0_dev_loss": _mean([r.mean_round0_dev for r in results]),
        "mean_best_dev_loss": _mean([r.mean_best_dev for r in results]),
        "comm_total_bytes": _mean([float(r.run.ledger.total_bytes()) for r in results]),
        "comm_total_seconds": _mean([r.run.ledger.total_seconds() for r in results]),
    }

    sync_params = sync_param_count(cfg, results[0].trainable_params)
    payload_bytes, per_client_s = cfg.fed.transfer(sync_params)
    n_clients = len(results[0].run.best_round)
    serialized_s = per_client_s * n_clients
    summary["transfer"] = {
        "payload_bytes_per_client": payload_bytes,
        "per_client_seconds": per_client_s,
        "serialized_seconds_all_clients": serialized_s,
        "bandwidth_bps": cfg.fed.bandwidth_bps,
    }

    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method"] + pairs + ["macro_avg", "micro_avg",
                                              "comm_params_per_client_round",
                                              "comm_total_bytes"])
        writer.writerow(
            [cfg.method]
            + [fnum(summary["per_pair_bleu"][p]) for p in pairs]
            + [fnum(summary["macro_bleu"]), fnum(summary["micro_bleu"]),
               sync_params, fnum(summary["comm_total_bytes"])]
        )

    lines = [
        f"method: {cfg.method}   mode: {cfg.mode}   seeds: {', '.join(str(r.seed) for r in results)}",
        f"trainable params per client: {results[0].trainable_params}"
        f" / total {results[0].total_params}",
        f"payload per client per sync: {payload_bytes} B"
        f" ({per_client_s:.4g} s at {cfg.fed.bandwidth_bps / 1e6:.0f} Mbps;"
        f" {serialized_s:.4g} s serialized over {n_clients} clients)",
        f"mean dev loss: round0 {summary['mean_round0_dev_loss']:.4f}"
        f" -> best {summary['mean_best_dev_loss']:.4f}",
    ]
    if pairs:
        header = ["pair".ljust(8)] + [p.ljust(8) for p in pairs] + ["Macro", "Micro"]
        values = ["BLEU".ljust(8)] + [
            f"{summary['per_pair_bleu'][p]:.2f}".ljust(8) for p in pairs
        ] + [f"{summary['macro_bleu']:.2f}", f"{summary['micro_bleu']:.2f}"]
        lines += ["", " ".join(header), " ".join(values)]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def write_seed_report(seed_dir: Path, result: SeedResult) -> None:
    seed_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(seed_dir / "metrics.csv", result)
    write_comm_csv(seed_dir / "comm.csv", result.run.ledger)
    write_clusters_txt(seed_dir / "clusters.txt", result.assignment)
