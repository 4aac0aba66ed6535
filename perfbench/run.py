"""Outside-in benchmark for fedmt: pinned desk-scale runs of the public CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--record]

Run from the root of a checkout (``src/fedmt`` must exist). ``NAME`` is a
pinned config in ``perfbench/workloads`` or ``all``. The workload seed is
handed to fedmt only as ``fedmt run --seeds N``.

Load is a closed loop: one process at a time, each a fresh child
(``child.py``) with the BLAS thread count set to ``THREADS``.

``--trace 0`` (end-to-end): two fresh set-up processes, then ``fedmt run``
processes until ``--seconds`` of run time is spent (at least one, and no
more than fit in the workload's time budget). Reports median ``run_s`` and
``setup_s``, tokens per second, peak RSS, the ledger total and the quality
figures, and checks every run's report.

``--trace 1`` (per layer): an untraced, a traced and, if it fits in the time
budget, a second untraced run of the same seed. The traced child wraps the
layers' public functions (``spans.py``) and reports calls, inclusive and
self seconds per layer and the nn primitive table. The tracing overhead is
the traced ``run_s`` minus the median untraced one. All reports must be
byte-identical.

Each report is checked (``metrics.check_outputs``) and, where
``references.json`` holds the seed, compared with the recorded figures.
``--record`` adds the figures of a passing run for a seed with no reference.
The last stdout line is one JSON object; the exit code is non-zero when any
run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_DIR = BENCH_DIR / "workloads"
REFERENCES = BENCH_DIR / "references.json"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3  # set-up samples: the run processes add more
DEADLINE_S = 170.0  # per workload, so a one-workload invocation ends inside 180 s
THREADS = min(2, len(os.sched_getaffinity(0)))  # BLAS threads per child
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Bench:
    """Spawns children for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.config = WORKLOAD_DIR / f"{workload}.json"
        self.pinned = json.loads(self.config.read_text(encoding="utf-8"))
        self.env = {**os.environ, **{var: str(THREADS) for var in THREAD_VARS}}
        self.started = time.monotonic()
        self.work = WORK / f"{workload}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.children = 0
        self.failures: dict[int, str] = {}  # child number -> first problem

    def fail(self, child: int, message: str) -> None:
        self.failures.setdefault(child, message)

    def fits(self, last: dict) -> bool:
        """Whether another run like ``last`` (set-up included) fits in the
        time budget, with a quarter to spare for a slower host."""
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        return remaining > 1.25 * (last["setup_s"] + last["run_s"])

    def spawn(self, mode: str, trace: bool = False) -> dict | None:
        """Run one child to completion; None (and a recorded failure) if it
        did not finish cleanly."""
        self.children += 1
        work = self.work / f"{self.children:02d}-{mode}{'-traced' if trace else ''}"
        work.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--config", str(self.config),
               "--seed", str(self.seed), "--work", str(work), "--mode", mode]
        if trace:
            cmd.append("--trace")
        budget = DEADLINE_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            self.fail(self.children, f"{work.name}: no result within the time budget")
            return None
        result_path = work / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            self.fail(self.children, f"{work.name}: exit {proc.returncode}: {' | '.join(tail)}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["setup_done"] - spawned
        result["work"] = work
        result["child"] = self.children
        if mode == "run" and not self._check_run(result):
            return None
        return result

    def _check_run(self, result: dict) -> bool:
        name, child = result["work"].name, result["child"]
        if result["exit_code"] != 0:
            self.fail(child, f"{name}: fedmt run exit {result['exit_code']}")
            return False
        out = result["work"] / "out"
        try:
            outputs = metrics.read_outputs(out, self.seed)
        except (OSError, KeyError, ValueError) as err:
            self.fail(child, f"{name}: unreadable report: {err}")
            return False
        problems = metrics.check_outputs(outputs, self.pinned, self.reference())
        if problems:
            self.fail(child, f"{name}: " + "; ".join(problems))
            return False
        result["outputs"] = {k: outputs[k] for k in ("comm_bytes", "best_dev_loss", "macro_bleu")}
        result["report"] = [(out / f"seed_{self.seed}" / name).read_bytes()
                            for name in ("metrics.csv", "comm.csv")]
        return True

    def reference(self) -> dict | None:
        return load_references().get(self.workload, {}).get(str(self.seed))

    def identical_reports(self, runs: list[dict]) -> bool:
        for run in runs[1:]:
            if run["report"] != runs[0]["report"]:
                self.fail(run["child"], "metrics.csv/comm.csv differ between runs of one seed")
                return False
        return True


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def record_reference(workload: str, seed: int, outputs: dict) -> None:
    refs = load_references()
    refs.setdefault(workload, {})[str(seed)] = outputs
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: str(THREADS) for var in THREAD_VARS},
        "inherited": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[dict]]:
    setups = [bench.spawn("setup") for _ in range(SETUP_REPEATS - 1)]
    runs: list[dict] = []
    measured = 0.0
    while not bench.failures:
        run = bench.spawn("run")
        if run is None:
            break
        runs.append(run)
        measured += run["run_s"]
        if measured >= seconds or not bench.fits(run):
            break
    if not runs or bench.failures or not bench.identical_reports(runs):
        return {}, runs
    run_s = statistics.median(r["run_s"] for r in runs)
    outputs = runs[0]["outputs"]
    values = {
        "run_s": run_s,
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
        "train_tokens_per_s": runs[0]["train_tokens"] / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        **outputs,
    }
    return values, runs


def per_layer(bench: Bench) -> tuple[dict, list[dict]]:
    plain = [bench.spawn("run")]
    traced = bench.spawn("run", trace=True) if plain[0] is not None else None
    if traced is not None and bench.fits(plain[0]):
        plain.append(bench.spawn("run"))  # brackets the traced run against drift
    runs = [r for r in (*plain, traced) if r is not None]
    if traced is None or bench.failures or not bench.identical_reports(runs):
        return {}, runs
    summary = traced["trace"]
    missing = metrics.zero_call_failures(summary, bench.workload)
    if missing:
        bench.fail(traced["child"], "no calls recorded for: " + ", ".join(missing))
    values = metrics.layer_values(summary)
    untraced_s = statistics.median(r["run_s"] for r in plain)
    values["trace.overhead_s"] = traced["run_s"] - untraced_s
    print_layer_tables(bench, summary, values, untraced_s, traced)
    return values, runs


# ---------------------------------------------------------------------------
# printing


def print_e2e_table(workload: str, values: dict) -> None:
    print(f"== {workload}: end-to-end")
    for metric in metrics.GATED_END_TO_END + metrics.PRINTED_END_TO_END:
        print(f"  {metric['name']:<20} {values[metric['name']]:>16.6g} {metric['unit']}")


def print_layer_tables(bench: Bench, summary: dict, values: dict, untraced_s: float,
                       traced: dict) -> None:
    print(f"== {bench.workload}: per layer (run id {summary['run_id']}, "
          f"{summary['spans']} spans)")
    for metric in metrics.LAYER_METRICS:
        print(f"  {metric['name']:<40} {values[metric['name']]:>14.6g} "
              f"{metric['unit']:<6} -> {metric['moves']}")
    print(f"  tracing overhead: traced run_s {traced['run_s']:.3f} s - untraced median "
          f"{untraced_s:.3f} s = {values['trace.overhead_s']:+.3f} s; wrapper cost "
          f"{1e6 * summary['wrapper_cost_s']:.2f} us x {summary['spans']} spans = "
          f"{summary['wrapper_cost_s'] * summary['spans']:.2f} s")
    print("  bindings wrapped: " + ", ".join(f"{name} x{count}" for name, count
                                             in sorted(summary["bindings"].items())))
    print(f"== {bench.workload}: nn primitives on real traffic")
    print(f"  {'primitive':<16} {'calls':>9} {'incl s':>9} {'self s':>9} {'us/call':>9}  shapes")
    for name, stat in sorted(summary["stats"].items()):
        if not name.startswith("nn."):
            continue
        per_call = 1e6 * stat["s"] / stat["calls"] if stat["calls"] else 0.0
        shapes = ", ".join(f"{'x'.join(map(str, s)) if s else '?'}:{n}"
                           for s, n in stat.get("shapes", []))
        print(f"  {name[3:]:<16} {stat['calls']:>9} {stat['s']:>9.3f} {stat['self_s']:>9.3f} "
              f"{per_call:>9.1f}  {shapes}")


def run_workload(workload: str, args) -> tuple[dict, int, int]:
    bench = Bench(workload, args.seed)
    if args.trace:
        values, runs = per_layer(bench)
    else:
        values, runs = end_to_end(bench, args.seconds)
    failed = len(bench.failures)
    attempted = max(bench.children, 1)
    for failure in bench.failures.values():
        print(f"FAILED {workload} seed {args.seed}: {failure}", file=sys.stderr)
    if not failed:
        if not args.trace:
            print_e2e_table(workload, {**values, "failed_ops": failed / attempted})
        if bench.reference() is None:
            print(f"  (no reference recorded for {workload} seed {args.seed}: "
                  f"consistency checks only)")
            if args.record:
                record_reference(workload, args.seed, runs[0]["outputs"])
                print(f"  recorded reference for {workload} seed {args.seed}")
    return values, attempted, failed


def main(argv=None) -> int:
    names = sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run time to measure per workload: at least one run, "
                             "and no more than fit in the time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the figures of a passing run as the seed's reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fedmt" / "cli.py").is_file():
        print(f"no fedmt source under {ROOT / 'src'}; run from a fedmt checkout",
              file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine_block(), sort_keys=True))
    workloads = names if args.workload == "all" else [args.workload]
    exit_code = 0
    for workload in workloads:
        values, attempted, failed = run_workload(workload, args)
        reported = metrics.LAYER_METRICS if args.trace else metrics.GATED_END_TO_END
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in reported if m["name"] in values},
        }
        if failed:
            exit_code = 1
        print(json.dumps(result))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
