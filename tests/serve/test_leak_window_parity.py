"""The sliding leak window against a batch recompute, past the boot window.

After every ``POST /ingest/day`` the service slides its
:class:`~repro.core.leaks.LeakWindow` by one day.  Ingesting
``sample_days + 3`` days moves the window wholly off the days it was
booted with; after each ingest the ``/leaks``, ``/leaks?suffix=`` and
``/names`` bodies must equal — as sorted-key JSON bytes — the same
payloads rendered from :func:`tests.oracles.reference_identify` over a
fresh deduplicated sample of the current window, with the dynamic set
of that moment.
"""

import json

from repro.serve.services import leaks_payload, names_payload
from tests.oracles import reference_identify


def as_bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def get(app, path, query=None):
    status, payload = app.dispatch("GET", path, query=query)
    assert status == 200, payload
    return payload


class TestSlidingWindowParity:
    def test_window_slides_past_boot_days_in_parity_with_batch(self, app):
        leaks = app.leaks
        snapshots = leaks.snapshots
        boot_window = set(snapshots.series.days[-leaks.sample_days:])
        get(app, "/leaks")  # fold the boot window before the first ingest

        for _ in range(leaks.sample_days + 3):
            day = snapshots.next_day
            status, _ = app.dispatch(
                "POST", "/ingest/day", body=json.dumps({"day": day.isoformat()}).encode()
            )
            assert status == 200

            window_days = snapshots.series.days[-leaks.sample_days:]
            records = snapshots.series.sample_records(window_days)
            dynamic = app.dynamicity.report().dynamic_prefixes()
            batch = reference_identify(leaks.window.identifier, records, dynamic)
            sample = leaks.sample_window()

            assert as_bytes(get(app, "/leaks")) == as_bytes(leaks_payload(batch, sample))
            assert as_bytes(get(app, "/names")) == as_bytes(names_payload(batch, sample))
            assert batch.identified, "the quick world should identify a network"
            suffix = batch.identified[0]
            assert as_bytes(get(app, "/leaks", {"suffix": suffix})) == as_bytes(
                leaks_payload(batch, sample, suffix=suffix)
            )
            assert set(leaks.window.memoised_hostnames) == {
                hostname for _, hostname in records
            }

        assert boot_window.isdisjoint(leaks.window.days)
        assert leaks.window.days == snapshots.series.days[-leaks.sample_days:]
