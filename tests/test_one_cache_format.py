"""The snapshot and campaign caches have exactly one payload format.

Whether a stored payload is current is decided in one place,
:mod:`repro.scan.cache`; no other module decodes, accepts or migrates
an older format, and ``repro cache`` has no ``migrate`` action.
"""

import ast
import pathlib

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

REMOVED_NAMES = (
    "encode_count_columns",
    "decode_count_columns",
    "COLUMNAR_PAYLOAD_VERSION",
    "COMPATIBLE_DATASET_VERSIONS",
    "legacy_dict_payload",
    "cache_migrated",
)


def source_files():
    yield from sorted(SRC.rglob("*.py"))
    yield from sorted((ROOT / "docs").rglob("*.md"))


def reads_payload_version(node) -> bool:
    """``DATASET_FORMAT_VERSION``, ``x.get("version", ...)`` or ``x["version"]``."""
    if isinstance(node, ast.Name):
        return node.id == "DATASET_FORMAT_VERSION"
    if isinstance(node, ast.Attribute):
        return node.attr == "DATASET_FORMAT_VERSION"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (
            node.func.attr == "get"
            and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "version"
        )
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == "version"
    return False


def test_removed_format_names_are_gone():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in source_files()
        for name in REMOVED_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert not found, found


def test_storage_has_no_text_codec():
    tree = ast.parse((SRC / "scan" / "storage.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert "base64" not in imported


def test_only_the_cache_compares_payload_versions():
    comparing = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                reads_payload_version(operand)
                for operand in [node.left, *node.comparators]
            ):
                comparing.add(path.relative_to(SRC).as_posix())
    assert comparing == {"scan/cache.py"}


def test_cache_migrate_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "migrate"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'migrate'" in capsys.readouterr().err
