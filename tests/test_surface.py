"""The package defines nothing that only tests use.

Every function, class and method defined under ``src/fedmt`` must be
referenced somewhere in ``src/`` besides its own definition; a helper that
only a test calls belongs in the tests. Every field of a dataclass there
must be read somewhere in ``src/`` as ``.field``; a field that only a test
reads is a value the program computes for nothing. Every parameter of a
function there (``self`` and ``cls`` aside) must be read in its body; a
parameter that nothing reads is an option that changes nothing. Every
parameter with a default must be passed by some call in ``src/`` that names
its function; a default that no caller overrides is an option only a test
uses. Definitions, fields, parameters and calls come from an ``ast`` walk,
references to definitions and fields from a match over the source text.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedmt"

# The README names it as the way to read a checkpoint; no module calls it.
PUBLIC_ONLY = {"load_checkpoint"}

# The console script calls it with no argv; the tests and perfbench pass one.
DEFAULT_ONLY = {"cli.main(argv)"}


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


def is_dataclass(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(decorator).partition("(")[0] == "dataclass"
        for decorator in node.decorator_list)


def unread_dataclass_fields() -> list[str]:
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    text = "\n".join(sources)
    unread = []
    for source in sources:
        for node in filter(is_dataclass, ast.walk(ast.parse(source))):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    field = stmt.target.id
                    if not re.search(rf"\.{re.escape(field)}\b", text):
                        unread.append(f"{node.name}.{field}")
    return sorted(unread)


def unread_parameters() -> list[str]:
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)}
            unread += [f"{path.stem}.{getattr(node, 'name', '<lambda>')}({param.arg})"
                       for param in params
                       if param.arg not in ("self", "cls") and param.arg not in read]
    return sorted(unread)


def passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether ``call`` gives the parameter ``name``, the ``index``-th
    positional one (None for keyword-only), a value of its own."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def unpassed_defaults() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    unpassed = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            # a function no call names is reached through a table (nn.ACTIVATIONS)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name not in calls:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            defaulted = [(index - bound, param.arg) for index, param in enumerate(positional)
                         if index >= len(positional) - len(args.defaults)]
            defaulted += [(None, param.arg) for param, default
                          in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            unpassed += [f"{stem}.{node.name}({name})" for index, name in defaulted
                         if not any(passes(call, index, name) for call in calls[node.name])]
    return sorted(unpassed)


def test_every_definition_is_referenced_in_src():
    assert unreferenced_definitions() == sorted(PUBLIC_ONLY)


def test_every_dataclass_field_is_read_in_src():
    assert unread_dataclass_fields() == []


def test_every_parameter_is_read_in_its_body():
    assert unread_parameters() == []


def test_every_default_is_passed_by_a_call_in_src():
    assert unpassed_defaults() == sorted(DEFAULT_ONLY)
