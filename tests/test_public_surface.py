"""Every public function, every public method of the package's classes and
every public field of its dataclasses is used: referenced by code elsewhere
in ``src/`` or named in the README. Functions are collected as perfbench's
tracer collects them: from ``vars(module)``, defined in that module, no
leading underscore; methods likewise from ``vars(cls)`` of each class the
module defines, and fields from ``dataclasses.fields(cls)``."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from collections import defaultdict
from pathlib import Path

import factlink

PACKAGE = Path(factlink.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

# Methods kept though nothing in src/ calls them, each with its reason.
UNUSED_METHODS = {
    # perfbench's tracer wraps it and reads its calls (encoder.entry_embed_*);
    # ROADMAP item 1 retires it together with those metrics
    "encoder.ReferenceEncoder.entry_embed",
}


def _public(namespace, module_name):
    for name, obj in vars(namespace).items():
        obj = getattr(obj, "__func__", obj)  # staticmethod and classmethod
        if not name.startswith("_") and inspect.isfunction(obj):
            if obj.__module__ == module_name:
                yield name


def _classes():
    """(module, class name, class) of each class the package defines."""
    for info in pkgutil.iter_modules(factlink.__path__):
        module = importlib.import_module(f"factlink.{info.name}")
        for cls_name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield info.name, cls_name, cls


def public_definitions():
    """(module, qualified name, name) of each public function and method."""
    for info in pkgutil.iter_modules(factlink.__path__):
        module = importlib.import_module(f"factlink.{info.name}")
        for name in _public(module, module.__name__):
            yield info.name, name, name
    for module, cls_name, cls in _classes():
        for name in _public(cls, f"factlink.{module}"):
            yield module, f"{cls_name}.{name}", name


def _owned_statements(path):
    """(owner, statement) for each top-level statement, owned by its name;
    a top-level class's body is split, each method owned as ``Class.method``."""
    for statement in ast.parse(path.read_text("utf-8")).body:
        name = getattr(statement, "name", None)
        if not isinstance(statement, ast.ClassDef):
            yield name, statement
            continue
        for member in statement.body:
            method = isinstance(member, ast.FunctionDef)
            yield (f"{name}.{member.name}" if method else name), member


def code_references():
    """Name -> the (module, qualified owner) pairs whose code uses it as an
    AST name or attribute; docstrings are constants, not names."""
    references = defaultdict(set)
    for path in PACKAGE.glob("*.py"):
        for owner, statement in _owned_statements(path):
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    references[node.id].add((path.stem, owner))
                elif isinstance(node, ast.Attribute):
                    references[node.attr].add((path.stem, owner))
    return references


def readme_names():
    """Identifiers inside the README's code spans and fenced blocks."""
    text = README.read_text("utf-8")
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(fenced + spans)))


def unused_definitions(methods):
    references = code_references()
    documented = readme_names()
    return {
        f"{module}.{qualified}" for module, qualified, name in public_definitions()
        if ("." in qualified) == methods
        and not references[name] - {(module, qualified)} and name not in documented
    }


def test_every_public_function_is_used():
    unused = unused_definitions(methods=False)
    assert not unused, f"public functions that neither src/ code nor README uses: {unused}"


def test_every_public_method_is_used():
    unused = unused_definitions(methods=True)
    assert unused == UNUSED_METHODS, (
        f"public methods that neither src/ code nor README uses: {unused - UNUSED_METHODS}; "
        f"listed as unused but used: {UNUSED_METHODS - unused}"
    )


def test_every_public_dataclass_field_is_read():
    """A field's own declaration is owned by its class body; a read is any
    other reference, in a method of the class or elsewhere in ``src/``."""
    references = code_references()
    documented = readme_names()
    unused = {
        f"{module}.{cls_name}.{field.name}"
        for module, cls_name, cls in _classes() if dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
        if not field.name.startswith("_")
        and not references[field.name] - {(module, cls_name)} and field.name not in documented
    }
    assert not unused, f"public dataclass fields that neither src/ code nor README reads: {unused}"


def test_one_exception_class_per_failing_exit_code():
    """The package defines exactly the three failures the CLI maps to exit
    codes: cli.UsageError (1), errors.DataError (2), errors.NumericError (3)."""
    defined = {f"{module}.{name}" for module, name, cls in _classes()
               if issubclass(cls, BaseException)}
    assert defined == {"cli.UsageError", "errors.DataError", "errors.NumericError"}
