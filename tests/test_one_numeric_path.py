"""The package has one numeric path and no in-tree test oracles.

NumPy is a declared dependency, so nothing under ``src/repro`` guards
its import or keeps a stdlib or big-endian twin of a NumPy expression.
The reference implementations the property tests compare against live
in ``tests/oracles.py``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

REMOVED_NAMES = (
    "DictReferenceAnalyzer",
    "ReferenceEngine",
    "use_mmap",
    "def pad",
    "sys.byteorder",
    "_np is",
)


def source_files():
    yield from sorted(SRC.rglob("*.py"))


def imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    return False


def test_removed_names_are_gone():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in source_files()
        for name in REMOVED_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert not found, found


def test_numpy_import_is_never_guarded():
    guarded = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in source_files()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Try)
        and any(imports_numpy(inner) for stmt in node.body for inner in ast.walk(stmt))
    ]
    assert not guarded, guarded
