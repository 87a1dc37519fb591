"""Sliding equals batch: :class:`LeakWindow` against the record-loop oracle.

A window that adds and retracts days (fed as record columns) in any
order, reporting against a dynamic /24 set that changes between
reports, must report exactly what :func:`tests.oracles.reference_identify`
reports over the deduplicated records of the days it currently holds —
and no Counter it hands out may carry a zero entry.  Days whose ids
index different name lists (a counts-only day's records are encoded
against a private copy of the series pool) must never share a verdict.
"""

import ipaddress

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GivenNameMatcher, LeakIdentifier, LeakThresholds, LeakWindow
from repro.scan.snapshot import RecordSample
from tests.oracles import reference_identify

SLASH24S = [f"10.0.{index}.0/24" for index in range(3)]
SUFFIXES = ["campus.stateu.edu", "dyn.bigisp.net", "wifi.uni.ac.nl"]
NAMES = ["brian", "emma", "jacob", "olivia", "noah", "jackson"]
DEVICES = ["iphone", "ipad", "galaxy-note9", "dell-laptop", "pc", "roku"]
ROUTER_LABELS = ["xe-0-0-1.core1.north", "ae1.edge2.east", "gw.south"]

# A hostname is name-bearing (with or without a device term), router
# level (possibly with a given name inside, which feeds only the "all"
# series), or generic (matches nothing).
name_host = st.builds(
    lambda name, device, suffix: f"{name}s-{device}.{suffix}",
    st.sampled_from(NAMES), st.sampled_from(DEVICES), st.sampled_from(SUFFIXES),
)
bare_name_host = st.builds(
    lambda name, number, suffix: f"{name}{number}.{suffix}",
    st.sampled_from(NAMES), st.integers(0, 3), st.sampled_from(SUFFIXES),
)
router_host = st.builds(
    lambda label, name, suffix: f"{label}.{name}.{suffix}",
    st.sampled_from(ROUTER_LABELS), st.sampled_from(NAMES + ["rtr"]),
    st.sampled_from(SUFFIXES),
)
generic_host = st.builds(
    lambda number, suffix: f"host-{number}.{suffix}",
    st.integers(0, 5), st.sampled_from(SUFFIXES),
)
hostname = st.one_of(name_host, bare_name_host, router_host, generic_host)
address = st.builds(
    lambda block, host: ipaddress.IPv4Address(f"10.0.{block}.{host}"),
    st.integers(0, len(SLASH24S) - 1), st.integers(1, 4),
)
record = st.tuples(address, hostname)


def counters_of(report):
    yield report.all_name_counts
    yield report.filtered_name_counts
    yield report.all_device_term_counts
    yield report.filtered_device_term_counts
    for stats in report.suffix_stats.values():
        yield stats.name_counts
        yield stats.device_term_counts


def assert_same_report(window_report, batch_report):
    assert window_report.identified == batch_report.identified
    assert set(window_report.suffix_stats) == set(batch_report.suffix_stats)
    for suffix, expected in batch_report.suffix_stats.items():
        stats = window_report.suffix_stats[suffix]
        assert stats.records == expected.records
        assert stats.unique_names == expected.unique_names
        assert stats.name_counts == expected.name_counts
        assert stats.device_term_counts == expected.device_term_counts
    assert window_report.all_name_counts == batch_report.all_name_counts
    assert window_report.filtered_name_counts == batch_report.filtered_name_counts
    assert window_report.all_device_term_counts == batch_report.all_device_term_counts
    assert (
        window_report.filtered_device_term_counts
        == batch_report.filtered_device_term_counts
    )
    for counter in counters_of(window_report):
        assert 0 not in counter.values()


class TestSlidingEqualsBatch:
    @given(
        pool=st.lists(record, min_size=1, max_size=24, unique=True),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_add_retract_sequences_match_reference(self, pool, data):
        identifier = LeakIdentifier(
            GivenNameMatcher(), LeakThresholds(min_unique_names=2, min_ratio=0.3)
        )
        # Days drawn from one shared pool, so pairs repeat across days
        # (and within a day).
        day_records = data.draw(
            st.lists(st.lists(st.sampled_from(pool), max_size=16), min_size=1, max_size=8)
        )
        window = LeakWindow(identifier)
        next_day = 0
        steps = data.draw(st.lists(st.booleans(), min_size=1, max_size=14))
        for add in steps:
            held = window.days
            if (add or not held) and next_day < len(day_records):
                window.add_day(next_day, RecordSample.of(day_records[next_day]))
                next_day += 1
            elif held:
                window.retract_day(data.draw(st.sampled_from(held)))

            dynamic = data.draw(st.sets(st.sampled_from(SLASH24S)))
            records = dict.fromkeys(
                pair for day in window.days for pair in day_records[day]
            )
            assert_same_report(
                window.report(dynamic), reference_identify(identifier, records, dynamic)
            )
            assert set(window.memoised_hostnames) == {
                hostname for _, hostname in records
            }

    @given(st.lists(record, max_size=40), st.sets(st.sampled_from(SLASH24S)))
    @settings(max_examples=60, deadline=None)
    def test_identify_is_the_one_sample_fold(self, records, dynamic):
        identifier = LeakIdentifier(
            GivenNameMatcher(), LeakThresholds(min_unique_names=1, min_ratio=0.1)
        )
        assert_same_report(
            identifier.identify(records, dynamic),
            reference_identify(identifier, dict.fromkeys(records), dynamic),
        )


class TestPrivateIds:
    @given(
        pool=st.lists(hostname, max_size=6, unique=True),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_window_keys_verdicts_by_name_not_id(self, pool, data):
        identifier = LeakIdentifier(
            GivenNameMatcher(), LeakThresholds(min_unique_names=1, min_ratio=0.1)
        )
        # Each day indexes the shared pool; a counts-only day extends it
        # with private names, so its first private id names a different
        # string from day to day.
        days = []
        for _ in range(data.draw(st.integers(1, 6))):
            names = list(pool)
            if data.draw(st.booleans()) or not names:
                names += data.draw(
                    st.lists(
                        hostname.filter(lambda name: name not in pool),
                        min_size=1, max_size=3, unique=True,
                    )
                )
            pairs = data.draw(
                st.lists(st.tuples(address, st.integers(0, len(names) - 1)), max_size=12)
            )
            days.append(
                RecordSample(
                    np.array([int(ip) for ip, _ in pairs], dtype=np.uint32),
                    np.array([index for _, index in pairs], dtype=np.uint32),
                    names,
                )
            )

        window = LeakWindow(identifier)
        next_day = 0
        for add in data.draw(st.lists(st.booleans(), min_size=1, max_size=12)):
            held = window.days
            if (add or not held) and next_day < len(days):
                window.add_day(next_day, days[next_day])
                next_day += 1
            elif held:
                window.retract_day(data.draw(st.sampled_from(held)))

            dynamic = data.draw(st.sets(st.sampled_from(SLASH24S)))
            records = dict.fromkeys(pair for day in window.days for pair in days[day])
            batch = identifier.identify(list(records), dynamic)
            assert_same_report(window.report(dynamic), batch)
            assert_same_report(batch, reference_identify(identifier, records, dynamic))
            assert set(window.memoised_hostnames) == {name for _, name in records}
