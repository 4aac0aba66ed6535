"""The package defines nothing that only tests use.

Every function, class and method defined under ``src/fedmt`` must be
referenced somewhere in ``src/`` besides its own definition; a helper that
only a test calls belongs in the tests. Definitions come from an ``ast``
walk, references from a whole-word match over the source text.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedmt"

# The README names it as the way to read a checkpoint; no module calls it.
PUBLIC_ONLY = {"load_checkpoint"}


def unreferenced_definitions() -> list[str]:
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    defined: Counter[str] = Counter()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] += 1
    unused = []
    for name, definitions in defined.items():
        if name.startswith("__") and name.endswith("__"):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if sum(len(word.findall(text)) for text in sources) <= definitions:
            unused.append(name)
    return sorted(unused)


def test_every_definition_is_referenced_in_src():
    assert unreferenced_definitions() == sorted(PUBLIC_ONLY)
