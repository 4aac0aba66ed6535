"""Run the benchmark once per seed and report medians and quartile spreads.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--out FILE] [run.py options]

Each seed is one ``run.py`` invocation, one after another. For every metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the distance between the quartiles as a share of the median. Options
it does not know are passed to ``run.py`` unchanged. ``--out`` also writes
the per-seed values and the summary as JSON, e.g. to commit as a baseline.
Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--out", type=Path)
    args, passthrough = parser.parse_known_args(argv)

    runs, units, failed = [], {}, 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             *passthrough], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        machine = next((line for line in lines if line.startswith("machine: ")), None)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failed += 1
            print(f"seed {seed}: FAILED (exit {proc.returncode}) {proc.stderr.strip()[-300:]}")
            continue
        values = {name: m["value"] for name, m in result["metrics"].items()}
        units.update((name, m["unit"]) for name, m in result["metrics"].items())
        runs.append({"seed": seed, "metrics": values})
        print(f"seed {seed}: " + "  ".join(f"{k} {v:.6g}" for k, v in values.items()),
              flush=True)

    summary = {}
    if runs:
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name] for r in runs])
            s = summary[name]
            print(f"{name:<24} median {s['median']:.6g} {units.get(name, '')}  "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "options": passthrough,
            "machine": json.loads(machine[len("machine: "):]) if machine else None,
            "runs": runs,
            "failed": failed,
            "summary": summary,
        }, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
