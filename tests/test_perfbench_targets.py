"""The benchmark's span table names functions that exist in fedmt, and a
traced run reaches every layer a gated workload must exercise."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from spans import TARGETS  # noqa: E402


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_span_target_resolves_to_a_callable():
    missing = [span for span, (module_name, attr) in sorted(TARGETS.items())
               if not callable(_resolve(module_name, attr))]
    assert missing == []


# Runs a small config under the benchmark's tracer and prints which listed
# per-layer metrics recorded no work. A subprocess keeps the wrapped fedmt
# functions out of the other tests.
_TRACED_RUN = """
import json, sys
from pathlib import Path
root, workload, config, out = Path(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from fedmt import cli
import metrics
from spans import HOOKS, TARGETS, Tracer
tracer = Tracer(workload).install(TARGETS, hooks=HOOKS)
code = cli.main(["run", "--config", config, "--out", out, "--seeds", "1"])
print(json.dumps([code, metrics.zero_call_failures(tracer.summary(), workload)]))
"""

SMALL_RUN = {
    "seeds": [1],
    "data": {"scale": 1 / 64},
    "fed": {"rounds": 1},
    "warmup": {"sentences_per_pair": 16, "epochs": 1},
}


@pytest.mark.parametrize("workload, mode, method", [
    ("m2en-families", "m2en", "adapter-families"),
    ("m2m-gradients-r1", "m2m", "adapter-gradients"),
])
def test_traced_run_exercises_every_layer_the_workload_requires(tmp_path, workload, mode,
                                                                method):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": mode, "method": method, **SMALL_RUN}),
                      encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(root), workload, str(config),
         str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
    )
    code, missing = json.loads(done.stdout.strip().splitlines()[-1])
    assert code == 0
    assert missing == []
