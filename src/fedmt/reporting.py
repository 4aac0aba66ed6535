"""Run reports: writes every file under ``fedmt run --out`` and reads one
client's checkpoint back. :func:`write_json` writes every JSON file
(``config.json``, ``summary.json``, ``backbone.meta``) and CSV floats use a
fixed ``%.10g``, so identical runs give byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from .clustering import ClusterAssignment
from .config import ExperimentConfig, build_dataclass, read_json_object
from .errors import CheckpointError, ConfigurationError
from .federation import CommLedger
from .model import AdapterSite, ModelConfig, ToyModel, param_layout
from .params import NamedParamSet, load_param_set, save_param_set
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
    if assignment is None:
        lines = ["no clustering (no aggregation or global sharing)"]
    else:
        lines = [f"strategy: {assignment.strategy}"]
        for label, clusters in (("encoder", assignment.encoder_clusters),
                                ("decoder", assignment.decoder_clusters)):
            lines.append(f"{label} clusters ({len(clusters)}):")
            lines += [f"  {label}[{idx}]: {', '.join(cluster)}"
                      for idx, cluster in enumerate(clusters)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, value: Any) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def write_summary(out_dir: Path, cfg: ExperimentConfig, results: list[SeedResult]) -> dict:
    """Write ``summary.json``, the run's one summary, and return it: the
    seed-averaged per-pair, macro and micro BLEU (None without test
    decoding), dev losses and ledger totals, and the ``transfer`` block, what
    each client sends per sync and how long that takes. ``fedmt run`` prints
    its BLEU line from the returned dict."""
    pairs = sorted(results[0].test_bleu)
    payload_bytes, per_client_s = cfg.fed.transfer(
        sync_param_count(cfg, results[0].trainable_params))
    summary = {
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
        "transfer": {
            "payload_bytes_per_client": payload_bytes,
            "per_client_seconds": per_client_s,
            "serialized_seconds_all_clients": per_client_s * len(results[0].run.best_round),
            "bandwidth_bps": cfg.fed.bandwidth_bps,
        },
    }
    write_json(out_dir / "summary.json", summary)
    return summary


def write_seed_report(seed_dir: Path, result: SeedResult) -> None:
    seed_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(seed_dir / "metrics.csv", result)
    write_comm_csv(seed_dir / "comm.csv", result.run.ledger)
    write_clusters_txt(seed_dir / "clusters.txt", result.assignment)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoints(models: Mapping[str, ToyModel], directory: Path) -> None:
    """Write client models that share one config into ``directory``:
    ``backbone.meta`` holds the ``ModelConfig`` as a JSON object,
    ``backbone.params`` every tensor that all the clients hold as one array,
    and ``<client>.params`` the rest of that client's tensors."""
    directory.mkdir(exist_ok=True)
    first = next(iter(models.values()))
    shared = {name for name in first.params.names if all(
        model.params.values(name) is first.params.values(name) for model in models.values())}
    save_param_set(first.params.filter(shared.__contains__), directory / "backbone.params")
    write_json(directory / "backbone.meta", dataclasses.asdict(first.config))
    for cid in sorted(models):
        save_param_set(models[cid].params.filter(lambda name: name not in shared),
                       directory / f"{cid}.params")


def load_checkpoint(path_prefix: str | Path) -> ToyModel:
    """Read one client's model, written by :func:`save_checkpoints`: the
    backbone files next to ``path_prefix`` merged with ``path_prefix.params``.
    :class:`CheckpointError` is raised for a missing file, a client tensor the
    backbone file also holds, a ``backbone.meta`` that the config reader
    refuses or that leaves out a field, a damaged ``.params`` file, and
    tensors that disagree with the config's layout (:func:`param_layout`): a
    name, shape or dtype, a missing backbone tensor, or an adapter site
    holding only some of its tensors."""
    prefix = Path(path_prefix)
    meta_path = prefix.parent / "backbone.meta"
    backbone_path = prefix.parent / "backbone.params"
    client_path = prefix.parent / (prefix.name + ".params")
    for path in (meta_path, backbone_path, client_path):
        if not path.is_file():
            raise CheckpointError(f"{path}: missing")
    try:
        raw = read_json_object(meta_path)
        missing = [f.name for f in dataclasses.fields(ModelConfig) if f.name not in raw]
        if missing:  # before building, where a default would stand in for it
            raise ConfigurationError(f"{missing[0]}: required key missing")
        config = build_dataclass(ModelConfig, raw)
    except ConfigurationError as err:
        raise CheckpointError(f"{meta_path}: {err}") from err
    backbone = load_param_set(backbone_path)
    client = load_param_set(client_path)
    for name in client.names:
        if name in backbone:
            raise CheckpointError(f"{client_path}: tensor {name!r} is also in {backbone_path}")
    params = NamedParamSet({name: pset.values(name)
                            for pset in (backbone, client) for name in pset.names})
    layout = {s.name: s for s in param_layout(config)}
    held: set[AdapterSite | None] = {None}  # the backbone, then each site with a tensor
    for name in params.names:
        spec = layout.pop(name, None)
        if spec is None:
            raise CheckpointError(f"{prefix}: tensor {name!r} is not in backbone.meta's layout")
        values = params.values(name)
        found = (values.shape, values.dtype.name)
        expected = (spec.shape, config.dtype)
        if found != expected:
            raise CheckpointError(f"{prefix}: tensor {name!r} has (shape, dtype) "
                                  f"{found}, but backbone.meta says {expected}")
        held.add(spec.site)
    missing = [name for name, spec in layout.items() if spec.site in held]
    if missing:
        raise CheckpointError(f"{prefix}: missing tensor {missing[0]!r}")
    return ToyModel(config, params)
