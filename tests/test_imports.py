"""Import hygiene of the package, checked with the standard library only.

Each module must use every name it imports (the package `__init__` only
re-exports, so it is exempt), every `__all__` entry must exist, every
public function must have a user, `simulator.iterate` is the one loop
that calls `simulator.step`, `expr` alone decides how deep a goal side
may be, and `prng` alone decides the layout of the PRNG words.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import goalchase

PACKAGE = Path(goalchase.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"goalchase.{name} imports unused {unused}"


# importing __main__ would start the CLI
@pytest.mark.parametrize("name", [m for m in MODULES if m != "__main__"])
def test_all_entries_are_defined(name):
    module = importlib.import_module(f"goalchase.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"goalchase.{name}.__all__ names undefined {missing}"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_public_function_has_a_user():
    # a function in a module's __all__ is loaded by name in the package
    # outside its own definition, imported by the package __init__, or
    # named by the benchmark (the tracer's targets and the layer timings)
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text())
             for name in MODULES + ["__init__"]}
    reexported = set(imported_names(trees["__init__"]))
    benchmark = "\n".join(p.read_text() for p in PERFBENCH.glob("*.py"))
    unused = []
    for name in (m for m in MODULES if m != "__main__"):  # importing it starts the CLI
        exported = getattr(importlib.import_module(f"goalchase.{name}"), "__all__", ())
        for fn in (n for n in trees[name].body
                   if isinstance(n, ast.FunctionDef) and n.name in exported):
            own = {id(n) for n in ast.walk(fn)}
            loaded = any(getattr(n, "id", getattr(n, "attr", None)) == fn.name
                         and isinstance(getattr(n, "ctx", None), ast.Load)
                         and id(n) not in own
                         for tree in trees.values() for n in ast.walk(tree))
            if not (loaded or fn.name in reexported
                    or re.search(rf"\b{fn.name}\b", benchmark)):
                unused.append(f"{name}.{fn.name}")
    assert not unused, f"public functions nothing uses: {unused}"


def step_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == "step" or getattr(f, "attr", None) == "step":
                yield node


def test_only_iterate_calls_step():
    calls = {
        f"{name}:{node.lineno}"
        for name in MODULES
        for node in step_calls(ast.parse((PACKAGE / f"{name}.py").read_text()))
    }
    tree = ast.parse((PACKAGE / "simulator.py").read_text())
    (iterate,) = [n for n in tree.body
                  if isinstance(n, ast.FunctionDef) and n.name == "iterate"]
    inside = {f"simulator:{node.lineno}" for node in step_calls(iterate)}
    assert len(inside) == 1 and calls == inside, sorted(calls - inside)


def test_only_expr_names_the_depth_bound():
    # `expr.parse_sequence` is the one check of a goal side's depth
    names = {}
    for name in MODULES + ["__init__"]:
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            for attr in ("id", "attr", "name"):
                names.setdefault(getattr(node, attr, None), set()).add(name)
    assert names.get("MAX_DEPTH") == {"expr"}, names.get("MAX_DEPTH")
    assert "tree_depth" not in names, names["tree_depth"]


def _names_words(node):
    # `rng_words`, a local `words`, or the words `prng` hands out
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None)) in {
        "rng_words", "words", "new_words", "rng_to_words"}


def test_only_prng_looks_inside_the_words():
    # elsewhere the words are passed, kept and compared whole: never
    # indexed, sliced, iterated or unpacked
    inside = []
    for name in (m for m in MODULES if m != "prng"):
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, (ast.Subscript, ast.Starred)):
                words = node.value
            elif isinstance(node, (ast.For, ast.comprehension)):
                words = node.iter
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, (ast.Tuple, ast.List)) for t in node.targets):
                words = node.value
            else:
                continue
            if _names_words(words):
                inside.append(f"{name}: {ast.unparse(node)}")
    assert not inside, inside
