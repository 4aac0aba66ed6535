"""The benchmark's span table names functions that exist in fedmt."""

import importlib
import sys
from pathlib import Path

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
