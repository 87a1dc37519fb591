"""Every third-party module the package imports is a declared dependency.

``pyproject.toml`` is read with a regex rather than ``tomllib``, which
only exists from Python 3.11 on.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert match, "pyproject.toml declares no [project] dependencies list"
    names = re.findall(r"[\"']\s*([A-Za-z0-9][A-Za-z0-9._-]*)", match.group(1))
    return {re.sub(r"[-_.]+", "_", name).lower() for name in names}


def imported_third_party():
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    modules.setdefault(top, path.relative_to(SRC).as_posix())
    return modules


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    imported = imported_third_party()
    assert imported, "expected the package to import numpy and scipy"
    missing = {
        module: where
        for module, where in imported.items()
        if module.lower() not in declared
    }
    assert not missing, f"imported but not in pyproject dependencies: {missing}"
