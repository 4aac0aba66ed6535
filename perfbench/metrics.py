"""Metric definitions, per-layer extraction and output checks.

End-to-end metrics come from untraced runs; per-layer metrics come from one
traced run. BENCHMARK.json lists both, with their units and bounds. Each
per-layer entry also names the end-to-end metric it should move and the
workloads that must exercise it: a traced run on such a workload whose span
records zero calls fails.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from spans import NN_PRIMITIVES

FAMILIES = "m2en-families"
MODEL_FED = "m2en-model-fed"
GRADIENTS = "m2m-gradients-r1"
ALL = (FAMILIES, MODEL_FED, GRADIENTS)
ADAPTERS = (FAMILIES, GRADIENTS)  # model-fed has no adapter modules

# Names, units, directions and bounds come from BENCHMARK.json. Its timing
# bounds are the widest allowed: on the 2-vCPU VM the benchmark was written
# on, the host's load swings the speed of a fixed numpy loop by up to 40%
# over seconds, and back-to-back runs of one seed by up to 13%, in CPU time
# as much as in wall time. Peak RSS depends on the seed's data (about 109 or
# 123 MB on m2en-families).
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
GATED_END_TO_END = tuple(SPEC["end_to_end"])

# Printed but not gated. Macro BLEU of these barely trained models moves by
# about a fifth between workload seeds (quartile spread over six seeds: 0.22
# on m2en-families, 0.17 on m2m-gradients-r1), wider than any bound a gate
# may use; the output check compares it with the seed's reference instead.
# failed_ops is 0 on a correct run; the result line carries it as
# attempted/failed.
PRINTED_END_TO_END = (
    {"name": "macro_bleu", "unit": "BLEU", "better": "higher"},
    {"name": "failed_ops", "unit": "share", "better": "lower"},
)

# Output-check tolerances against a recorded reference. comm_bytes is an
# exact count; the losses and BLEU allow for BLAS kernels that round
# differently on another CPU.
DEV_LOSS_RTOL = 1e-4
BLEU_ATOL = 0.1

NN_MOVES = "train_tokens_per_s on both m2en workloads"
ADAPTER_PRIMITIVES = ("relu_fwd", "relu_bwd", "adapter_fwd", "adapter_bwd")

# Per span or counter: the end-to-end metric it should move, and the
# workloads that must exercise it (a traced run there that records no work
# fails). A span's metrics are its ``.calls``, ``.s`` and ``.self_s``.
MOVES = {
    "runner.prepare_data": ("setup_s, all workloads", ALL),
    "runner.warmup_backbone": ("setup_s, all workloads", ALL),
    "runner.make_assignment": ("run_s on m2m-gradients-r1", (GRADIENTS,)),
    "runner.evaluate_test_bleu": ("run_s, mostly m2m-gradients-r1", ALL),
    "data.batches": ("train_tokens_per_s, all workloads", ALL),
    "data.real_token_fraction": ("train_tokens_per_s on both m2en workloads", ALL),
    "model.grad": ("train_tokens_per_s on both m2en workloads", ALL),
    "model.forward": ("train_tokens_per_s on both m2en workloads", ALL),
    "model.backward": ("train_tokens_per_s on both m2en workloads", ALL),
    "model.loss": ("run_s, all workloads", ALL),
    "model.merge_batches": ("train_tokens_per_s", ALL),
    "model.decode_greedy": ("run_s on m2m-gradients-r1", ALL),
    "model.decode_logits.positions": ("run_s on m2m-gradients-r1", ALL),
    **{f"nn.{prim}": (NN_MOVES, ADAPTERS if prim in ADAPTER_PRIMITIVES else ALL)
       for prim in NN_PRIMITIVES},
    "federation.local_update": ("train_tokens_per_s", ALL),
    "federation.optimizer_step": ("train_tokens_per_s, mostly m2en-model-fed", ALL),
    "federation.evaluate_dev_loss": ("run_s, all workloads", ALL),
    "federation.inner_cluster_aggregate": ("run_s (no movement predicted)", ALL),
    "federation.ledger.entries": ("comm_bytes", ALL),
    "federation.ledger.bytes": ("comm_bytes", ALL),
    "params.replace_values": ("train_tokens_per_s on m2en-model-fed", ALL),
    "params.save_param_set": ("run_s, largest on m2en-model-fed", ALL),
    "clustering.compute_gradient_feature": ("run_s on m2m-gradients-r1", (GRADIENTS,)),
    "clustering.cluster_by_gradient": ("run_s on m2m-gradients-r1", (GRADIENTS,)),
    "bleu.pair_scores": ("run_s on m2m-gradients-r1", ALL),
    "reporting.write_seed_report": ("run_s, all workloads", ALL),
    "reporting.write_summary": ("run_s, all workloads", ALL),
    "trace.overhead_s": ("traced run_s minus the untraced median", ()),
}


def moves_key(name: str) -> str:
    """The ``MOVES`` key of a per-layer metric: itself, or its span."""
    return name if name in MOVES else name.rsplit(".", 1)[0]


LAYER_METRICS = tuple(
    {**m, "moves": MOVES[moves_key(m["name"])][0], "required": MOVES[moves_key(m["name"])][1]}
    for m in SPEC["per_layer"]
)

COUNTERS = ("data.real_token_fraction", "model.decode_logits.positions",
            "federation.ledger.entries", "federation.ledger.bytes")


def _reading(summary: dict, name: str) -> tuple[float, float]:
    """(value, work recorded) of one per-layer metric in a traced summary."""
    counters = summary["counters"]
    if name == "data.real_token_fraction":
        slots = counters.get("grad.slots", 0)
        return (counters.get("grad.real", 0) / slots if slots else 0.0), slots
    if name in COUNTERS:
        return float(counters.get(name, 0)), counters.get(name, 0)
    span, stat = name.rsplit(".", 1)
    entry = summary["stats"].get(span, {})
    return entry.get(stat, 0), entry.get("calls", 0)


def layer_values(summary: dict) -> dict[str, float]:
    """Per-layer metric values from a traced child's summary (overhead aside)."""
    return {m["name"]: _reading(summary, m["name"])[0]
            for m in LAYER_METRICS if m["name"] != "trace.overhead_s"}


def zero_call_failures(summary: dict, workload: str) -> list[str]:
    """Listed per-layer metrics that recorded no work on a workload that must
    exercise them."""
    return [m["name"] for m in LAYER_METRICS
            if workload in m["required"] and not _reading(summary, m["name"])[1]]


# ---------------------------------------------------------------------------
# output checks


def read_outputs(out_dir: Path, seed: int) -> dict:
    """The quality and communication figures of one ``fedmt run`` report."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    with open(out_dir / f"seed_{seed}" / "comm.csv", newline="", encoding="utf-8") as handle:
        comm_rows = list(csv.DictReader(handle))
    with open(out_dir / f"seed_{seed}" / "metrics.csv", newline="", encoding="utf-8") as handle:
        final_rows = [r for r in csv.DictReader(handle) if r["phase"] == "final"]
    return {
        "summary": summary,
        "comm_rows": comm_rows,
        "final_rows": final_rows,
        "comm_bytes": sum(int(r["bytes"]) for r in comm_rows),
        "best_dev_loss": summary["mean_best_dev_loss"],
        "macro_bleu": summary["macro_bleu"],
    }


def check_outputs(outputs: dict, pinned: dict, reference: dict | None) -> list[str]:
    """Problems with one run's report; an empty list means it passed.

    Always checked: the ledger has one uplink and one downlink row per client
    and round, each of the trainable payload; the summary agrees with the
    per-client rows; losses and BLEU are finite and in range. With a
    reference recorded for the seed, comm_bytes must match exactly and the
    quality figures within DEV_LOSS_RTOL and BLEU_ATOL.
    """
    problems = []
    summary, rows, finals = outputs["summary"], outputs["comm_rows"], outputs["final_rows"]
    n_clients = len(finals)
    rounds = pinned["fed"]["rounds"]
    per_param = pinned["fed"]["bytes_per_param"]
    if n_clients == 0:
        return ["metrics.csv has no final rows"]
    if len(rows) != 2 * rounds * n_clients:
        problems.append(f"comm.csv has {len(rows)} rows, expected {2 * rounds * n_clients}")
    for row in rows:
        if int(row["param_count"]) != summary["trainable_params"]:
            problems.append(f"comm.csv param_count {row['param_count']} is not the trainable "
                            f"count {summary['trainable_params']}")
            break
        if int(row["bytes"]) != int(row["param_count"]) * per_param:
            problems.append(f"comm.csv bytes {row['bytes']} != param_count x {per_param}")
            break
    if outputs["comm_bytes"] != summary["comm_total_bytes"]:
        problems.append(f"comm.csv total {outputs['comm_bytes']} != summary "
                        f"{summary['comm_total_bytes']}")
    dev = outputs["best_dev_loss"]
    bleu = outputs["macro_bleu"]
    if not (isinstance(dev, float) and math.isfinite(dev) and dev > 0):
        problems.append(f"best_dev_loss {dev!r} is not a positive finite number")
    elif not math.isclose(dev, sum(float(r["dev_loss"]) for r in finals) / n_clients,
                          rel_tol=1e-8):
        problems.append("summary mean_best_dev_loss disagrees with metrics.csv")
    if not (isinstance(bleu, float) and 0.0 <= bleu <= 100.0):
        problems.append(f"macro_bleu {bleu!r} is not within [0, 100]")
    elif not math.isclose(bleu, sum(float(r["test_bleu"]) for r in finals) / n_clients,
                          rel_tol=1e-8, abs_tol=1e-8):
        problems.append("summary macro_bleu disagrees with metrics.csv")
    if reference is not None and not problems:
        if outputs["comm_bytes"] != reference["comm_bytes"]:
            problems.append(f"comm_bytes {outputs['comm_bytes']} != reference "
                            f"{reference['comm_bytes']}")
        if not math.isclose(dev, reference["best_dev_loss"], rel_tol=DEV_LOSS_RTOL):
            problems.append(f"best_dev_loss {dev:.6f} != reference "
                            f"{reference['best_dev_loss']:.6f} (rtol {DEV_LOSS_RTOL})")
        if abs(bleu - reference["macro_bleu"]) > BLEU_ATOL:
            problems.append(f"macro_bleu {bleu:.3f} != reference "
                            f"{reference['macro_bleu']:.3f} (atol {BLEU_ATOL})")
    return problems
