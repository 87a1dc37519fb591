"""One collection engine and one campaign engine.

:class:`~repro.scan.snapshot.SnapshotCollector` and
:class:`~repro.scan.campaign.SupplementalCampaign` measure a built
world or a :class:`~repro.netsim.worldplan.WorldPlan` alike, so a plan
run records the same spans and metrics as a run over the built plan
world, and no caller picks a different engine when it holds a plan.
"""

import ast
import datetime as dt
import pathlib

from repro.netsim.worldplan import synthetic_plan
from repro.obs import Observability
from repro.scan.campaign import SupplementalCampaign
from repro.scan.snapshot import SnapshotCollector

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Calls that construct a measurement engine.
ENGINE_CALLS = {"SnapshotCollector", "SupplementalCampaign", "openintel_style", "rapid7_style"}

#: Names that hold a world plan (``fault_plan`` is a different thing).
PLAN_NAMES = {"plan", "_plan", "world_plan"}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _constructs_engine(nodes) -> bool:
    return any(
        isinstance(sub, ast.Call) and set(_names(sub.func)) & ENGINE_CALLS
        for node in nodes
        for sub in ast.walk(node)
    )


def test_sharded_module_is_gone():
    assert not (SRC / "scan" / "sharded.py").exists()


def test_no_sharded_names_remain():
    found = [
        str(path.relative_to(ROOT))
        for path in sorted(SRC.rglob("*.py"))
        if "Sharded" in path.read_text(encoding="utf-8")
    ]
    assert not found, found


def test_no_caller_selects_an_engine_by_plan():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.If, ast.IfExp)):
                continue
            if not set(_names(node.test)) & PLAN_NAMES:
                continue
            branches = node.body + node.orelse if isinstance(node, ast.If) else [
                node.body,
                node.orelse,
            ]
            if _constructs_engine(branches):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, found


def _deterministic(obs: Observability) -> dict:
    payload = obs.manifest().deterministic_payload()
    payload["run"].pop("world_fingerprint", None)
    return payload


def test_plan_manifest_matches_built_world_manifest():
    plan = synthetic_plan(seed=3, slash16s=4, people=4, supplemental_every=1)
    window = (dt.date(2021, 1, 1), dt.date(2021, 1, 5))
    campaign_window = (dt.date(2021, 11, 1), dt.date(2021, 11, 2))

    def measure(source, shards) -> Observability:
        obs = Observability()
        SnapshotCollector.openintel_style(source, shards=shards, obs=obs).collect(*window)
        SupplementalCampaign(source, shards=shards, fault_plan=None, obs=obs).run(
            *campaign_window
        )
        return obs

    planned = measure(plan, 3)
    built = measure(plan.build(), 1)
    paths = [span["name"] for span in planned.manifest().spans]
    assert paths == ["snapshot.collect", "campaign.run"]
    assert [child["name"] for child in planned.manifest().spans[1]["children"]] == [
        "campaign.network"
    ] * len(plan.supplemental_names)
    assert planned.metrics.snapshot()["counters"]["snapshot_days_total"]
    assert _deterministic(planned) == _deterministic(built)


def test_spec_module_is_gone():
    import repro.netsim

    assert not (SRC / "netsim" / "spec.py").exists()
    for name in ("build_world_from_spec", "build_world_from_file", "validate_spec"):
        assert not hasattr(repro.netsim, name), name


def test_cli_constructs_the_campaign_once():
    # The CLI, the study and the serve layer share one construction,
    # StudyConfig.campaign; the CLI reaches it from one place.
    def calls(path, name):
        tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name == getattr(node.func, "id", getattr(node.func, "attr", None))
        ]

    assert calls("cli.py", "SupplementalCampaign") == []
    assert len(calls("cli.py", "campaign")) == 1, calls("cli.py", "campaign")
    assert len(calls("core/pipeline.py", "SupplementalCampaign")) == 1
