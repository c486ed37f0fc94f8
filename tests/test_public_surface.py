"""Every public module-level function of the package is used: referenced by
code elsewhere in ``src/`` or named in the README. Functions are collected
as perfbench's tracer collects them: from ``vars(module)``, defined in that
module, no leading underscore."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import defaultdict
from pathlib import Path

import factlink

PACKAGE = Path(factlink.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def public_functions():
    for info in pkgutil.iter_modules(factlink.__path__):
        module = importlib.import_module(f"factlink.{info.name}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj):
                if obj.__module__ == module.__name__:
                    yield info.name, name


def code_references():
    """Name -> the (module, top-level statement name) pairs whose code uses
    it as an AST name or attribute; docstrings are constants, not names."""
    references = defaultdict(set)
    for path in PACKAGE.glob("*.py"):
        for statement in ast.parse(path.read_text("utf-8")).body:
            owner = (path.stem, getattr(statement, "name", None))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    references[node.id].add(owner)
                elif isinstance(node, ast.Attribute):
                    references[node.attr].add(owner)
    return references


def readme_names():
    """Identifiers inside the README's code spans and fenced blocks."""
    text = README.read_text("utf-8")
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(fenced + spans)))


def test_every_public_function_is_used():
    references = code_references()
    documented = readme_names()
    unused = [
        f"{module}.{name}" for module, name in public_functions()
        if not references[name] - {(module, name)} and name not in documented
    ]
    assert not unused, f"public functions that neither src/ code nor README uses: {unused}"
