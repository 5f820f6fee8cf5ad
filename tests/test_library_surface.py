"""Every top-level name of the library, and every method and property of
its classes, has a use inside the library, and every imported name has a
use in the module that imports it.

A function that only tests call is a reference for those tests, not part
of the calculator: it belongs in the test module that uses it.  A name
counts as used when code in ``src/`` other than its own definition loads
it, reads it as an attribute or imports it.
"""

import ast
import importlib
from collections import Counter
from itertools import chain
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "segal_abacus"
TRACING = TESTS.parent / "perfbench" / "tracing.py"

# Names kept without a use in the library, each with its reason.
KEEP = {
    "comult": "builds the mutation fixtures of acceptance criterion 10",
    "h_counit_map": "Carlier's h-counit, the bottom pointing_comparison as a map out of "
                    "h_lower(P); not yet a suite entry",
    "h_unit_report": "with h_lower/h_upper, the unit of the h-comparison; not yet a suite entry",
    "bead_identity": "the benchmark's reference word evaluator starts from it",
    "bead_compose": "the benchmark's abacus.bead_compose probe times it; the tests compose with it",
    "enumerate_monotone": "the benchmark's simplex probes enumerate their maps with it; "
                          "hom_enumerate filters carrier values before building maps",
}


def _definitions(tree):
    """``(name, node)`` for each top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _members(tree):
    """``(name, node)`` for each method and property of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, node


def _uses(node) -> Counter:
    """Names that ``node`` loads, reads as attributes or imports."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            uses[sub.name] += 1
    return uses


def test_every_library_name_is_used_in_the_library():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = sum(map(_uses, trees.values()), Counter())
    unused = {
        name: module
        for module, tree in trees.items()
        for name, node in chain(_definitions(tree), _members(tree))
        if not name.startswith("__") and uses[name] <= _uses(node)[name]
    }
    assert {name: module for name, module in unused.items() if name not in KEEP} == {}
    # a kept name that is gone or has gained a use no longer needs its entry
    assert set(KEEP) <= set(unused)


def _unused_imports(tree) -> set:
    """Names the module imports (anywhere in it) but never loads, less the
    names its ``__all__`` exports."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name) and target.id == "__all__"
                for elt in node.value.elts}
    return imported - loaded - exported


def test_every_imported_name_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {path.name: sorted(names) for path in paths
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def test_no_library_module_imports_dataclasses():
    """The records are ``__slots__`` classes on ``reports.Record``:
    importing ``dataclasses`` (and ``inspect`` with it) would cost every
    cold CLI process its import."""
    importers = sorted(
        path.name for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names))
    assert importers == []


# the helpers that build or run row tables, besides every ``_*_rows``
ROW_HELPERS = {"_check_rows", "_compare_rows", "_concat", "_rekey", "_map_view", "_naturality_rows"}


def _names(tree) -> set:
    """Every name a module defines, loads, reads as an attribute or imports."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return names | set(_uses(tree))


def test_only_presheaf_names_a_row_helper():
    """Every file shape, validator and row table lives in ``presheaf``,
    next to the one element loop: no other module defines, imports or
    reads a row helper."""
    named = {path.name: sorted(name for name in _names(ast.parse(path.read_text()))
                               if name in ROW_HELPERS or name.startswith("_") and name.endswith("_rows"))
             for path in sorted(SRC.glob("*.py")) if path.name != "presheaf.py"}
    assert {module: names for module, names in named.items() if names} == {}


def test_presheaf_and_pjson_import_nothing_from_decalage():
    """``presheaf`` and ``pjson`` hold every shape they validate or read,
    so neither imports ``decalage``, at module level or inside a function,
    by an import statement or by name at run time."""
    for module in ("presheaf.py", "pjson.py"):
        tree = ast.parse((SRC / module).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported |= {node.module or ""} | {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert not any(name.split(".")[-1] == "decalage" for name in imported), module
        assert not {"import_module", "__import__"} & set(_uses(tree)), module


def test_library_parses_as_python_3_10():
    """Every library module parses with the grammar of Python 3.10, the
    least version ``pyproject.toml`` declares.  This checks syntax only: a
    library call that 3.10 lacks still passes here."""
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_traced_layers_name_library_functions():
    """Every function the benchmark's tracer wraps (``LAYERS`` and
    ``LEAVES`` in ``perfbench/tracing.py``) exists in its module.  The
    tracer skips a name the library lacks, so a layer whose function was
    renamed or removed would read 0 and no run would fail."""
    tables = {target.id: ast.literal_eval(node.value)
              for node in ast.parse(TRACING.read_text()).body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)
              and target.id in ("LAYERS", "LEAVES")}
    assert set(tables) == {"LAYERS", "LEAVES"}
    missing = [(prefix, f"{module}.{fn}") for table in tables.values()
               for prefix, module, fns, _ in table for fn in fns
               if not hasattr(importlib.import_module(f"segal_abacus.{module}"), fn)]
    assert missing == []
