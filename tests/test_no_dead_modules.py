"""Every module under ``src/repro`` is reachable from something that runs.

The entry points are the CLI (``repro.cli``), the HTTP service
(``repro.serve.app``) and the scripts in ``examples/``.  From them the
test follows ``import`` / ``from ... import`` statements, function-level
and relative ones included, and fails naming each package module that no
chain of imports reaches: code that only its own tests exercise.
Imports are read with :mod:`ast`, so nothing is executed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.serve.app")


def package_modules():
    """``{dotted name: path}`` for every module of the ``repro`` package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def with_parents(name):
    """``name`` and every enclosing package: importing a module runs them all."""
    parts = name.split(".")
    return [".".join(parts[:end]) for end in range(1, len(parts) + 1)]


def imported_names(path, module):
    """Dotted names that the file at ``path`` (module ``module``) imports."""
    is_package = path.name == "__init__.py"
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = module.split(".") if module else []
                if not is_package:
                    package = package[:-1]
                package = package[: len(package) - (node.level - 1)]
                base = ".".join(package + ([node.module] if node.module else []))
            else:
                base = node.module
            names.append(base)
            # ``from pkg import name`` may name a submodule.
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def reachable_modules(modules):
    entries = [(modules[name], name) for name in ENTRY_MODULES]
    entries += [(path, "") for path in sorted((ROOT / "examples").glob("*.py"))]
    seen = set()
    queue = list(entries)
    while queue:
        path, module = queue.pop()
        for name in imported_names(path, module):
            for candidate in with_parents(name):
                if candidate in modules and candidate not in seen:
                    seen.add(candidate)
                    queue.append((modules[candidate], candidate))
    return seen


def test_every_package_module_is_reachable_from_an_entry_point():
    modules = package_modules()
    assert set(ENTRY_MODULES) <= set(modules)
    unreached = sorted(set(modules) - reachable_modules(modules) - set(ENTRY_MODULES))
    assert not unreached, f"modules no entry point imports: {unreached}"
