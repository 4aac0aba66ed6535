"""One benchmark process: set up a pinned workload and optionally run it.

    python3 perfbench/child.py --config CFG --seed N --work DIR --mode setup|run [--trace]

Set-up is what a fresh ``fedmt run`` pays before training: import, parse
the config, generate the corpora (``runner.prepare_data``) and warm up the
shared backbone (``runner.warmup_backbone``). Both are cached in-process, so
the ``fedmt run`` that follows in ``run`` mode reuses them and its wall time
is the run alone. The parent times set-up from spawn to ``setup_done`` on the
system-wide monotonic clock. With ``--trace`` the set-up spans are wrapped
before set-up and every other span after it (``spans.SETUP_SPANS``). Results
go to ``DIR/result.json``; the report goes to ``DIR/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_pinned(config_module, path: Path):
    """Parse a pinned config and insist every pinned key reads back unchanged."""
    pinned = json.loads(path.read_text(encoding="utf-8"))
    cfg = config_module.parse_config(path)
    echoed = config_module.config_to_dict(cfg)
    changed = sorted(
        key for key in pinned
        if json.loads(json.dumps(echoed.get(key))) != pinned[key]
    )
    if changed:
        raise SystemExit(f"pinned config {path.name} no longer reads back: {changed}")
    return cfg


def train_target_tokens(clients) -> int:
    """Target tokens, EOS included, in one pass over every client's train split."""
    return sum(len(tgt) + 1 for c in clients for _, tgt in c.data.train)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from fedmt import cli, config, runner

    tracer = None
    if args.trace:
        from spans import HOOKS, SETUP_SPANS, TARGETS, Tracer
        tracer = Tracer(run_id=f"{args.config.stem}-s{args.seed}-{time.time_ns()}")
        tracer.install({name: TARGETS[name] for name in SETUP_SPANS})

    cfg = load_pinned(config, args.config)
    _, clients, _ = runner.prepare_data(cfg, args.seed)
    runner.warmup_backbone(cfg, args.seed)
    result = {"setup_done": time.monotonic()}
    if tracer is not None:
        tracer.install({name: target for name, target in TARGETS.items()
                        if name not in SETUP_SPANS}, hooks=HOOKS)

    if args.mode == "run":
        out_dir = args.work / "out"
        cli_args = ["run", "--config", str(args.config), "--out", str(out_dir),
                    "--seeds", str(args.seed)]
        with open(args.work / "fedmt_stdout.txt", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log):
            start = time.perf_counter()
            exit_code = cli.main(cli_args)
            result["run_s"] = time.perf_counter() - start
        result["exit_code"] = exit_code
        result["train_tokens"] = (cfg.fed.rounds * cfg.fed.local_epochs
                                  * train_target_tokens(clients))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.dump(args.work / "spans.npz")
        result["trace"] = tracer.summary()
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
