"""The public surface: every public definition in ``src/repro`` is used.

A top-level ``def`` or ``class`` whose name does not start with ``_``
must be used by the program: named by another module of ``src``,
``benchmarks``, ``examples``, ``perfbench`` or ``scripts`` (a word
match), or referenced by code of its own module.  The package
``__init__``s above a module do not count, because they only re-export
it, and tests do not count: a definition that only its tests run is
library surface that no run uses, and it goes instead of accumulating.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
TREES = ("src", "benchmarks", "examples", "perfbench", "scripts")

#: Kept although nothing but tests uses them, with the reason.
ALLOWED = {
    "lazy_exports": "called only by the package __init__s, which re-export",
    "predict_efficiency": "exact oracle for the window engine's efficiency",
    "EfficiencyPrediction": "the oracle's result type",
}


def _python_files(tree: Path):
    return [p for p in sorted(tree.rglob("*.py")) if "__pycache__" not in p.parts]


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name


def _referenced_names(tree: ast.Module):
    """Names the module's code reads (a definition itself is not a read)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _re_exporters(module: Path):
    """The package ``__init__``s from ``module``'s package up to ``repro``."""
    inits = set()
    package = module.parent
    while package == PACKAGE or PACKAGE in package.parents:
        inits.add(package / "__init__.py")
        package = package.parent
    return inits


def unused_public_definitions():
    sources = {
        path: path.read_text()
        for tree in TREES
        for path in _python_files(ROOT / tree)
    }
    words = {path: set(re.findall(r"\w+", text)) for path, text in sources.items()}
    offenders = []
    for module in _python_files(PACKAGE):
        tree = ast.parse(sources[module])
        own = _referenced_names(tree)
        skip = {module} | _re_exporters(module)
        for name in _public_definitions(tree):
            if name in ALLOWED or name in own:
                continue
            if not any(name in found for path, found in words.items() if path not in skip):
                offenders.append(f"{module.relative_to(ROOT)}: {name}")
    return offenders


def test_every_public_definition_has_a_user():
    offenders = unused_public_definitions()
    assert not offenders, (
        "public definitions that nothing in src/benchmarks/examples/"
        "perfbench/scripts uses (delete them, or allowlist them with a "
        "reason):\n  " + "\n  ".join(offenders)
    )


def test_allowlist_names_existing_definitions():
    defined = {
        name
        for module in _python_files(PACKAGE)
        for name in _public_definitions(ast.parse(module.read_text()))
    }
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined
