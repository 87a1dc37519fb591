"""Packaging metadata matches what the code and CI actually need.

Every third-party module the package imports is a declared dependency,
and ``requires-python`` names the oldest Python the CI test matrix runs.
``pyproject.toml`` and the CI workflow are read with regexes rather than
``tomllib`` (Python 3.11+) or a YAML parser (not a test dependency).
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


def version_key(text):
    return tuple(int(part) for part in text.split("."))


def test_requires_python_is_the_lowest_ci_version():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python\s*=\s*">=\s*([0-9.]+)"', text, re.MULTILINE)
    assert floor, "pyproject.toml declares no requires-python floor"
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    job = re.search(r"^  tests:\n(.*?)(?=^  \S|\Z)", workflow, re.MULTILINE | re.DOTALL)
    assert job, "ci.yml has no tests job"
    matrix = re.search(r"python-version:\s*\[(.*?)\]", job.group(1))
    assert matrix, "the tests job has no python-version matrix"
    versions = re.findall(r"[\"']([0-9.]+)[\"']", matrix.group(1))
    assert floor.group(1) == min(versions, key=version_key)
