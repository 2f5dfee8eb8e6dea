"""The package's public surface: every exported name exists, once. And no dead
code: every import is used, and every private top-level name is referenced.
And every third-party module the package imports is a declared dependency, and
every development dependency is imported by a test. And a bit pin on a numpy
math backend with no pin table fails, never skips."""

import ast
import re
import sys
from pathlib import Path

import pytest

import conftest
import idfusion

_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
          for path in sorted(Path(idfusion.__file__).parent.glob("*.py"))}


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(set(idfusion.__all__)) == len(idfusion.__all__)
    namespace = {}
    # A name in __all__ that the package does not define fails here.
    exec("from idfusion import *", namespace)
    assert set(idfusion.__all__) <= namespace.keys()


def _read_names(tree):
    """The names a module reads: loaded names, attribute names, and the
    entries of its ``__all__``, which re-exports what the module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def test_every_import_is_used():
    unused = []
    for name, tree in _TREES.items():
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_every_private_top_level_name_is_referenced():
    # A reference is a read anywhere in src/, or an import of the name by another module.
    referenced = set()
    for tree in _TREES.values():
        referenced |= _read_names(tree)
        referenced.update(alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) for alias in node.names)
    defined = []
    for name, tree in _TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, t.id) for t in targets if isinstance(t, ast.Name)]
    unreferenced = [f"{module}: {top}" for module, top in defined
                    if top.startswith("_") and not top.startswith("__") and top not in referenced]
    assert not unreferenced


def _pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and newer
    pyproject = Path(idfusion.__file__).parents[2] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]


def _names(specs):
    return {re.match(r"[\w.-]+", spec)[0].lower().replace("-", "_") for spec in specs}


def _third_party_imports(trees, local=frozenset()):
    imported = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    return imported - set(sys.stdlib_module_names) - {"__future__", "idfusion"} - local


def test_every_third_party_import_is_a_declared_dependency():
    declared = _names(_pyproject()["dependencies"])
    third_party = _third_party_imports(_TREES.values())
    assert {"numpy", "orjson"} <= third_party  # the scan sees the imports it checks
    assert third_party <= declared, sorted(third_party - declared)


def test_every_dev_dependency_is_imported_by_a_test():
    # A [dev] entry that no test module imports is an install nobody needs.
    paths = sorted(Path(__file__).parent.glob("*.py"))
    imported = _third_party_imports((ast.parse(p.read_text(encoding="utf-8")) for p in paths),
                                    local={p.stem for p in paths})
    dev = _names(_pyproject()["optional-dependencies"]["dev"])
    assert {"pytest", "hypothesis"} <= imported  # the scan sees the imports it checks
    assert dev <= imported, sorted(dev - imported)


def test_a_pin_on_an_unknown_math_backend_fails_naming_its_probe(monkeypatch):
    monkeypatch.setattr(conftest, "MATH_BACKEND", None)
    with pytest.raises(pytest.fail.Exception,
                       match=f"backend unknown \\(probe {conftest.MATH_PROBE}\\).* 'key': 'got'$"):
        conftest.assert_pinned({"avx512": {"key": "got"}, "avx2": {"key": "got"}}, "key", "got")
