"""Only the CLI reads the environment.

:func:`repro.cli.read_settings` maps every ``REPRO_*`` variable onto
the config once, at startup; the engines, stores and services below
it take explicit values.  A study built from a config therefore cannot
change when the environment does.
"""

import ast
import pathlib

from repro.cli import build_parser, read_settings
from repro.core.pipeline import ReproductionStudy
from repro.obs import Observability

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
READER = "read_settings"
ENV_NAMES = {"environ", "environb", "getenv", "putenv", "unsetenv"}


def _env_uses(tree, skip=frozenset()):
    """``(line, text)`` for each environment access in ``tree`` outside ``skip`` nodes."""
    uses = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            uses.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in ENV_NAMES:
            uses.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            uses.extend(
                (node.lineno, f"from os import {alias.name}")
                for alias in node.names
                if alias.name in ENV_NAMES
            )
    return uses


class TestOneReader:
    def test_no_environment_access_outside_the_cli_reader(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skip = frozenset()
            if path == SRC / "cli.py":
                [reader] = [
                    node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == READER
                ]
                skip = frozenset(id(node) for node in ast.walk(reader))
            offenders += [
                f"{path.relative_to(SRC)}:{line}: {text}" for line, text in _env_uses(tree, skip)
            ]
        assert offenders == []

    def test_main_calls_the_reader_once(self):
        calls = [
            path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == READER
        ]
        assert calls == ["cli.py"]
        tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
        [main] = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "main"
        ]
        assert sum(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == READER
            for node in ast.walk(main)
        ) == 1

    def test_guard_sees_each_access_form(self):
        source = (
            "import os\nfrom os import getenv\n"
            "a = os.environ['X']\nb = os.getenv('X')\nc = environ.get('X')\n"
        )
        assert len(_env_uses(ast.parse(source))) == 4


def _quick_study(config):
    """Every stage of one study: its outputs and its manifest without timings."""
    obs = Observability()
    study = ReproductionStudy(config, obs=obs)
    leaks = study.leaks()
    funnel = study.funnel()
    outputs = (
        sorted(study.dynamicity().dynamic_prefixes()),
        leaks.identified,
        {suffix: leaks.stats_for(suffix) for suffix in leaks.identified},
        study.type_breakdown(),
        study.supplemental().table4_rows(),
        study.supplemental().error_class_rows(),
        (funnel.all_groups, funnel.successful, funnel.reverted, funnel.reliable),
        study.lingering().histogram(),
    )
    return outputs, obs.manifest().to_json(include_timings=False)


def test_study_ignores_environment_set_after_the_config(tmp_path, monkeypatch):
    config = read_settings(build_parser().parse_args(["--quick", "--seed", "2", "study"]), {}).config
    reference = _quick_study(config)

    monkeypatch.setenv("REPRO_FAULT_PROFILE", "mild")
    monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
    monkeypatch.setenv("REPRO_SNAPSHOT_CACHE", str(tmp_path / "snapshots"))
    monkeypatch.setenv("REPRO_CAMPAIGN_CACHE", str(tmp_path / "campaigns"))
    monkeypatch.setenv("REPRO_METRICS_OUT", str(tmp_path / "manifest.json"))
    assert _quick_study(config) == reference
    assert list(tmp_path.iterdir()) == []
