"""Memo invalidation on ingest (regression).

Every derived report is memoised against the series length
(``day_count``); ``POST /ingest/day`` grows the series, so *all four*
read surfaces — per-prefix dynamicity, ``/leaks``, ``/names``,
``/occupancy`` — must recompute on the next GET.  A memo keyed on
anything that does not change with ingest (object identity,
wall-clock, thresholds) would serve the pre-ingest payload here.
"""

import json


def get(app, path, query=None):
    status, payload = app.dispatch("GET", path, query=query)
    assert status == 200
    return payload


def ingest_next_day(app):
    day = app.snapshots.next_day
    status, payload = app.dispatch(
        "POST", "/ingest/day", body=json.dumps({"day": day.isoformat()}).encode()
    )
    assert status == 200
    return day, payload


def some_prefix(app):
    return next(iter(app.snapshots.series.prefix_table()))


class TestIngestInvalidatesEveryMemo:
    def test_all_read_endpoints_reflect_the_new_day(self, app):
        before_days = len(app.snapshots.series)
        prefix = some_prefix(app)
        before = {
            "dynamicity": get(app, f"/prefix/{prefix}/dynamicity"),
            "leaks": get(app, "/leaks"),
            "names": get(app, "/names"),
            "occupancy": get(app, "/occupancy"),
        }
        assert before["dynamicity"]["days"] == before_days

        day, ingest_payload = ingest_next_day(app)
        assert ingest_payload["days"] == before_days + 1

        after = {
            "dynamicity": get(app, f"/prefix/{prefix}/dynamicity"),
            "leaks": get(app, "/leaks"),
            "names": get(app, "/names"),
            "occupancy": get(app, "/occupancy"),
        }

        # Day-count bookkeeping advanced everywhere it is reported.
        assert after["dynamicity"]["days"] == before_days + 1

        # The leak/name sample window slid onto the ingested day.
        assert after["leaks"]["sample_days"][-1] == day.isoformat()
        assert before["leaks"]["sample_days"][-1] != day.isoformat()
        assert after["names"]["sample_days"][-1] == day.isoformat()

        # Occupancy gained exactly the ingested day.
        assert after["occupancy"]["days"][-1] == day.isoformat()
        assert day.isoformat() not in before["occupancy"]["days"]
        assert len(after["occupancy"]["days"]) == before_days + 1

    def test_three_consecutive_ingests_never_serve_stale_days(self, app):
        prefix = some_prefix(app)
        for _ in range(3):
            before = len(app.snapshots.series)
            day, _ = ingest_next_day(app)
            assert get(app, f"/prefix/{prefix}/dynamicity")["days"] == before + 1
            assert get(app, "/leaks")["sample_days"][-1] == day.isoformat()
            assert get(app, "/names")["sample_days"][-1] == day.isoformat()
            assert get(app, "/occupancy")["days"][-1] == day.isoformat()

    def test_healthz_day_count_tracks_ingest(self, app):
        before = get(app, "/healthz")
        day, _ = ingest_next_day(app)
        after = get(app, "/healthz")
        assert after["days"] == before["days"] + 1
        assert after["last_day"] == day.isoformat()
