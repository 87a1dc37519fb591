"""The incremental-ingest contract (acceptance criterion).

``POST /ingest/day`` responses must be bit-identical to a full
recompute via :class:`~repro.core.dynamicity.DynamicityAnalyzer` over
the extended series — both rendered through the same
:func:`~repro.serve.services.dynamicity_summary` and compared as
sorted-key JSON, so "bit-identical" means identical response bytes.
"""

import datetime as dt
import json

from repro.core.dynamicity import DynamicityAnalyzer
from repro.scan.snapshot import SnapshotCollector, derive_day
from repro.serve.services import dynamicity_summary


def batch_summary(world, config, end_exclusive):
    collector = SnapshotCollector.openintel_style(world.internet)
    extended = collector.collect(config.dynamicity_start, end_exclusive)
    report = DynamicityAnalyzer(config.dynamicity_thresholds).analyze(extended)
    return extended, dynamicity_summary(report)


class TestIngestParity:
    def test_three_ingested_days_match_batch_recompute(
        self, app, quick_world, quick_config
    ):
        for _ in range(3):
            day = app.snapshots.next_day
            status, payload = app.dispatch(
                "POST",
                "/ingest/day",
                body=json.dumps({"day": day.isoformat()}).encode(),
            )
            assert status == 200

            extended, expected = batch_summary(
                quick_world, quick_config, day + dt.timedelta(days=1)
            )
            assert json.dumps(payload["dynamicity"], sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )
            assert payload["days"] == len(extended)
            assert payload["day_responses"] == extended.daily_totals()[day]

    def test_prefix_verdicts_match_batch_after_ingest(
        self, app, quick_world, quick_config
    ):
        day = app.snapshots.next_day
        app.dispatch(
            "POST", "/ingest/day", body=json.dumps({"day": day.isoformat()}).encode()
        )
        extended, _ = batch_summary(quick_world, quick_config, day + dt.timedelta(days=1))
        batch = DynamicityAnalyzer(quick_config.dynamicity_thresholds).analyze(extended)
        for prefix, info in batch.prefixes.items():
            status, payload = app.dispatch(
                "GET", f"/prefix/{prefix}/dynamicity", query=None
            )
            assert status == 200
            assert payload["is_dynamic"] == info.is_dynamic
            assert payload["change_days"] == info.change_days
            assert payload["max_daily"] == info.max_daily

    def test_explicit_counts_match_derived_ingest(
        self, quick_world, quick_config, series_payload
    ):
        from repro.scan.snapshot import SnapshotSeries
        from tests.serve.conftest import build_quick_app

        def pristine_series():
            return SnapshotSeries.from_payload(series_payload, quick_world.internet)

        derived_app = build_quick_app(quick_world, pristine_series(), quick_config)
        day = derived_app.snapshots.next_day
        status, derived = derived_app.dispatch(
            "POST", "/ingest/day", body=json.dumps({"day": day.isoformat()}).encode()
        )
        assert status == 200

        counts, _ = derive_day(quick_world.internet, None, day, 12 * 3600)
        explicit_app = build_quick_app(quick_world, pristine_series(), quick_config)
        status, explicit = explicit_app.dispatch(
            "POST",
            "/ingest/day",
            body=json.dumps({"day": day.isoformat(), "counts": counts}).encode(),
        )
        assert status == 200
        assert json.dumps(explicit["dynamicity"], sort_keys=True) == json.dumps(
            derived["dynamicity"], sort_keys=True
        )
