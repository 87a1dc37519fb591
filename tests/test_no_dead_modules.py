"""Every module and every definition under ``src/repro`` is reached by something that runs.

The roots are the CLI (``repro.cli``), the HTTP service
(``repro.serve.app``) and the scripts in ``examples/``, ``scripts/``,
``benchmarks/`` (the figure and table modules regenerate ``results/``)
and ``bench/`` (``bench/layers.py`` wraps its targets by name).  Files are
read with :mod:`ast`, so nothing is executed.

*Modules.*  From the roots the test follows ``import`` / ``from ...
import`` statements, function-level and relative ones included, and fails
naming each package module that no chain of imports reaches.

*Definitions.*  A function, method or class defined in a reachable
package module (at module level or in a class body) is live when its
name appears in a reachable file other than at its own ``def`` /
``class`` line: as a name, an attribute, an import alias, or a word of a
string constant (``getattr(builder, kind)`` and ``bench/layers.py`` reach
definitions by a name spelled in a string; docstrings are string
constants too).  Two kinds of mention do not count: a package
``__init__``'s re-exports and ``__all__`` entries, and a mention from
inside a definition that is itself dead, so liveness is iterated to a
fixpoint from the code outside every definition.  Dunder methods are
exempt: Python calls them.  The match is by name, so a live method of
the same name, or a live docstring naming it, hides a dead def; what the
guard reports is a floor, not the whole of the dead code.
:data:`ALLOWED_UNREFERENCED` lists the few defs that are kept for their
tests, and the test fails when an entry goes stale.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.serve.app")
ROOT_SCRIPT_DIRS = ("examples", "scripts", "benchmarks", "bench")

#: ``(module path under src/repro, qualified name)`` → why it stays with
#: no caller outside the tests.
ALLOWED_UNREFERENCED = {
    ("scan/parallel.py", "sample_day_records"): (
        "the only caller of _records_chunk, which bench/layers.py:WORKER_TASKS "
        "names; the pair goes with that bench entry"
    ),
    ("scan/persistence.py", "load_dataset"): (
        "reads back what `repro campaign --save-dir` writes; the round trip "
        "is the only check on that output"
    ),
    ("core/leaks.py", "LeakWindow.memoised_hostnames"): (
        "the seam for the 'memo holds exactly the retained names' invariant "
        "of the leak-window tests"
    ),
    ("netsim/finegrained.py", "NetworkRuntime.online_addresses"): (
        "the event-driven ground truth the consistency tests hold the "
        "snapshot path and the zone against"
    ),
    ("netsim/worldplan.py", "LazyPlanInternet.materialized"): (
        "the seam for the 'sampling a plan builds no world' invariant of the "
        "lazy-plan and record-column tests"
    ),
}

WORD = re.compile(r"[A-Za-z_]\w*")


def package_modules():
    """``{dotted name: path}`` for every module of the ``repro`` package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def root_scripts():
    return [path for folder in ROOT_SCRIPT_DIRS for path in sorted((ROOT / folder).glob("*.py"))]


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
    entries += [(path, "") for path in root_scripts()]
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


class Definition:
    """One tracked ``def`` / ``class`` and the names mentioned inside it."""

    def __init__(self, key, node):
        self.key = key
        self.name = node.name
        self.lines = node.end_lineno - node.lineno + 1
        self.mentions = set()
        self.dunders = []


def mentioned_names(node, in_package_init):
    """Names that ``node`` itself mentions (not its children)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        if in_package_init and isinstance(node, ast.ImportFrom):
            return []  # a re-export
        names = []
        for alias in node.names:
            names.extend(alias.name.split("."))
        return names
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return WORD.findall(node.value)
    return []


def is_all_assignment(node):
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def scan_file(path, prefix, definitions, loose_mentions):
    """Record the defs of one file (when ``prefix`` is set) and who mentions what.

    Mentions inside a tracked def go to that def; the rest go to
    ``loose_mentions``, which is live from the start.
    """
    in_package_init = path.name == "__init__.py"

    def visit(node, owner, qualname, in_function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and in_package_init:
            if is_all_assignment(node):
                return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A module-level dunder (``__getattr__``) is part of the module.
            if prefix is not None and not in_function and not (owner is None and is_dunder(node.name)):
                name = f"{qualname}.{node.name}" if qualname else node.name
                definition = Definition((prefix, name), node)
                if owner is not None and is_dunder(node.name):
                    owner.dunders.append(definition)
                definitions.append(definition)
                owner, qualname = definition, name
            in_function = in_function or not isinstance(node, ast.ClassDef)
        sink = owner.mentions if owner is not None else loose_mentions
        sink.update(mentioned_names(node, in_package_init))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, qualname, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, "", False)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions(definitions, loose_mentions):
    """Tracked defs that no live code mentions, by fixpoint from ``loose_mentions``."""
    by_name = {}
    for definition in definitions:
        by_name.setdefault(definition.name, []).append(definition)
    live = set()
    pending = list(loose_mentions)
    seen_names = set()
    while pending:
        name = pending.pop()
        if name in seen_names:
            continue
        seen_names.add(name)
        woken = list(by_name.get(name, ()))
        while woken:
            definition = woken.pop()
            if definition.key not in live:
                live.add(definition.key)
                pending.extend(definition.mentions)
                woken.extend(definition.dunders)
    return [
        definition
        for definition in definitions
        if definition.key not in live and not is_dunder(definition.name)
    ]


def scan_reachable_code():
    """``(definitions, loose mentions)`` over every reachable file."""
    modules = package_modules()
    definitions, loose_mentions = [], set()
    for path in root_scripts():
        scan_file(path, None, definitions, loose_mentions)
    for name in sorted(reachable_modules(modules) | set(ENTRY_MODULES)):
        path = modules[name]
        prefix = path.relative_to(SRC / "repro").as_posix()
        scan_file(path, prefix, definitions, loose_mentions)
    return definitions, loose_mentions


def allowlist_problems(definitions, unreferenced, allowed):
    """Why each entry of ``allowed`` is stale: gone, or no longer unreferenced."""
    defined = {definition.key for definition in definitions}
    dead = {definition.key for definition in unreferenced}
    problems = []
    for key in sorted(allowed):
        if key not in defined:
            problems.append(f"{key}: no such definition")
        elif key not in dead:
            problems.append(f"{key}: now referenced; drop it from the allowlist")
    return problems


def test_every_package_module_is_reachable_from_an_entry_point():
    modules = package_modules()
    assert set(ENTRY_MODULES) <= set(modules)
    unreached = sorted(set(modules) - reachable_modules(modules) - set(ENTRY_MODULES))
    assert not unreached, f"modules no entry point imports: {unreached}"


def test_every_definition_is_referenced_from_reachable_code():
    definitions, loose_mentions = scan_reachable_code()
    unreferenced = unreferenced_definitions(definitions, loose_mentions)
    dead = sorted(
        f"{definition.key[0]}:{definition.key[1]}"
        for definition in unreferenced
        if definition.key not in ALLOWED_UNREFERENCED
    )
    assert not dead, f"definitions nothing that runs refers to: {dead}"


def test_allowlist_is_short_explained_and_current():
    assert len(ALLOWED_UNREFERENCED) <= 5
    assert all(reason.strip() for reason in ALLOWED_UNREFERENCED.values())
    definitions, loose_mentions = scan_reachable_code()
    unreferenced = unreferenced_definitions(definitions, loose_mentions)
    assert allowlist_problems(definitions, unreferenced, ALLOWED_UNREFERENCED) == []


def scan_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    definitions, loose_mentions = [], set()
    scan_file(path, name, definitions, loose_mentions)
    return definitions, unreferenced_definitions(definitions, loose_mentions)


def test_guard_follows_references_only_from_live_code(tmp_path):
    definitions, unreferenced = scan_source(
        tmp_path,
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead():\n    return orphan() + dead()\n\n"
        "def orphan():\n    return 2\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def unread(self):\n        return 0\n\n"
        "def by_name():\n    return 3\n\n"
        "print(used(), Box, getattr(Box, 'by_name'))\n",
    )
    assert sorted(definition.key[1] for definition in unreferenced) == [
        "Box.unread",
        "dead",
        "orphan",
    ]


def test_package_reexports_do_not_count(tmp_path):
    path = tmp_path / "__init__.py"
    path.write_text(
        "from .impl import exported\n__all__ = ['exported']\n\ndef exported():\n    return 1\n",
        encoding="utf-8",
    )
    definitions, loose_mentions = [], set()
    scan_file(path, "__init__.py", definitions, loose_mentions)
    assert [d.key[1] for d in unreferenced_definitions(definitions, loose_mentions)] == ["exported"]


def test_stale_allowlist_entries_are_reported(tmp_path):
    definitions, unreferenced = scan_source(
        tmp_path, "def kept():\n    return 1\n\ndef called():\n    return 2\n\ncalled()\n"
    )
    allowed = {
        ("mod.py", "kept"): "still unreferenced",
        ("mod.py", "called"): "has a caller now",
        ("mod.py", "gone"): "was deleted",
    }
    assert allowlist_problems(definitions, unreferenced, allowed) == [
        "('mod.py', 'called'): now referenced; drop it from the allowlist",
        "('mod.py', 'gone'): no such definition",
    ]
