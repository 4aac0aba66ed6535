"""Command-line interface.

Commands:
    fedmt run --config cfg.json --out dir [--seeds 1,2,3]
    fedmt count-params --preset mbart50 | --config cfg.json
    fedmt gen-data --config cfg.json --out dir

Exit codes: 0 success, 1 configuration or usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import platform
import sys
from pathlib import Path

from .config import parse_config
from .data import export_corpus
from .errors import ConfigurationError, FedmtError
from .federation import FedConfig
from .model import param_layout, save_checkpoints
from .params import count_params
from .presets import mbart50_summary
from .reporting import write_config_snapshot, write_seed_report, write_summary
from .runner import build_method_model, prepare_data, run_seed, sync_param_count


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_mapped() -> bool:
    """Make glibc keep freed heap memory mapped; True if it took both settings.

    A gradient batch frees tens of MB of activations. By default glibc
    serves blocks that large from fresh mmaps, or trims them off the heap
    top, and returns them to the kernel; the next batch then faults every
    page back in. A 32 MiB mmap threshold and a 256 MiB trim threshold keep
    them mapped for reuse. Both must be set: fixing either one alone turns
    off glibc's dynamic threshold and faults more than the default does.
    Elsewhere (musl, macOS) nothing is changed.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    return mmap_set == 1 and trim_set == 1


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise ConfigurationError(f"--seeds: {err}") from err


def cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    if args.seeds is not None:
        cfg = dataclasses.replace(cfg, seeds=_parse_seeds(args.seeds))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_snapshot(out_dir / "config.json", cfg)
    results = []
    for seed in cfg.seeds:
        result, models = run_seed(cfg, seed)
        seed_dir = out_dir / f"seed_{seed}"
        write_seed_report(seed_dir, result)
        if args.save_checkpoints:
            save_checkpoints(models, seed_dir / "checkpoints")
        del models  # not held through the next seed's run
        results.append(result)
        print(f"seed {seed}: mean dev loss {result.mean_round0_dev:.4f} -> "
              f"{result.mean_best_dev:.4f}"
              + (f", macro BLEU {result.macro:.2f}" if result.macro is not None else ""))
    summary = write_summary(out_dir, cfg, results)
    if summary["macro_bleu"] is not None:
        print(f"{cfg.method}: macro {summary['macro_bleu']:.2f} "
              f"micro {summary['micro_bleu']:.2f}")
    print(f"report written to {out_dir}")
    return 0


def _print_mbart50() -> None:
    fed = FedConfig()
    s = mbart50_summary(fed)
    print("reference-scale preset (mbart50): d=%d, %d+%d layers, bottleneck %d"
          % (s["model_dim"], s["enc_layers"], s["dec_layers"], s["bottleneck"]))
    print(f"backbone params:            {s['backbone_params']:>13,}")
    print(f"adapter modules:            {s['adapter_modules']:>13,}"
          f"  ({s['per_adapter_params']:,} params each)")
    print(f"adapter params:             {s['adapter_params']:>13,}")
    print(f"adapters + layer-norm:      {s['adapter_plus_layernorm_params']:>13,}")
    print(f"pruned third (adapters):    {s['adapter_params_third']:>13,}")
    print(f"payload full model:         {s['backbone_gb']:>10.3f} GB")
    print(f"payload adapters:           {s['adapter_gb']:>10.4f} GB")
    print(f"transfer full model:        {s['backbone_transfer_s']:>10.2f} s"
          f" at {fed.bandwidth_bps / 1e6:.0f} Mbps")
    print(f"transfer full, 12 clients:  {s['backbone_transfer_s_12_clients']:>10.1f} s")
    print(f"transfer adapters:          {s['adapter_transfer_s']:>10.3f} s")
    print(f"adapter comm saving:        {100 * s['adapter_saving_fraction']:>10.1f} %")
    print(f"pruning extra saving:       {100 * s['pruned_saving_fraction']:>10.1f} %")
    print("controller-style baseline (8 of 24 layers exchanged): "
          f"{100 * s['controller_saving_fraction']:.1f} % saving")


def _print_toy_counts(config_path: str) -> None:
    cfg = parse_config(config_path)
    seed = cfg.seeds[0]
    _, _, vocab = prepare_data(cfg, seed)
    model = build_method_model(cfg, seed, vocab, backbone=None)
    model_cfg = model.config
    total = count_params(model.params)
    trainable = count_params(model.params, model.trainable_names())
    adapters = count_params(model.params, [spec.name for spec in param_layout(model_cfg)
                                           if spec.site is not None and spec.name in model.params])
    payload, _ = cfg.fed.transfer(sync_param_count(cfg, trainable))
    print(f"toy model ({cfg.mode}, {cfg.method}, pruning {cfg.pruning}): vocab {len(vocab)}, "
          f"d={model_cfg.model_dim}, {model_cfg.enc_layers}+{model_cfg.dec_layers} layers, "
          f"bottleneck {model_cfg.adapter_bottleneck}")
    print(f"total params:      {total:>10,}")
    print(f"trainable params:  {trainable:>10,}")
    print(f"adapter params:    {adapters:>10,}")
    print(f"payload per sync:  {payload:>10,} B")
    backbone = total - adapters
    print(f"saving vs full:    {100 * (1 - trainable / backbone):>10.2f} %")


def cmd_count_params(args: argparse.Namespace) -> int:
    if args.preset is not None and args.config is not None:
        raise ConfigurationError("count-params takes --preset or --config, not both")
    if args.preset:
        if args.preset != "mbart50":
            raise ConfigurationError(f"unknown preset {args.preset!r}")
        _print_mbart50()
        return 0
    if args.config:
        _print_toy_counts(args.config)
        return 0
    raise ConfigurationError("count-params needs --preset or --config")


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds:
        _, clients, _ = prepare_data(cfg, seed)
        seed_dir = out_dir / f"seed_{seed}"
        for client in clients:
            export_corpus(client.data, client.id, seed_dir)
        print(f"seed {seed}: wrote {3 * len(clients)} files to {seed_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error; its subparsers too."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedmt",
        description="Desk-scale federated multilingual translation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to JSON config")
    p_run.add_argument("--out", required=True, help="report output directory")
    p_run.add_argument("--seeds", default=None, help="comma-separated seed override")
    p_run.add_argument("--no-checkpoints", dest="save_checkpoints",
                       action="store_false", help="skip writing final checkpoints")
    p_run.set_defaults(func=cmd_run)

    p_count = sub.add_parser("count-params", help="print parameter/cost tables")
    p_count.add_argument("--preset", default=None, help="built-in preset (mbart50)")
    p_count.add_argument("--config", default=None, help="toy config path")
    p_count.set_defaults(func=cmd_count_params)

    p_gen = sub.add_parser("gen-data", help="export synthetic corpora as text")
    p_gen.add_argument("--config", required=True, help="path to JSON config")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    _keep_heap_mapped()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except FedmtError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
