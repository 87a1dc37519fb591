"""Figure 2: given-name matches in rDNS, all vs filtered.

Shape targets from Section 5.2: "given names are generally more common
in prefixes that show dynamic behavior" and the popularity ordering of
the SSA ranking shows through (more-popular names match more records).
The filtered (identified-networks-only) series sits clearly below the
all-matches series.
"""

from repro.core import GivenNameMatcher, LeakIdentifier
from repro.datasets import TOP_GIVEN_NAMES
from repro.reporting import TextTable, render_bar_chart


def test_figure2_given_name_matches(benchmark, study, leak_report, write_artifact):
    report = leak_report

    # Time one single-day identification pass (the repeatable unit of
    # the Section 5.1 pipeline).
    series = study.daily_series()
    last_day = series.days[-1]
    dynamic = set(study.dynamicity().dynamic_prefixes())
    identifier = LeakIdentifier(GivenNameMatcher(), study.config.leak_thresholds)
    benchmark(lambda: identifier.identify(series.sample_records([last_day]), dynamic))

    table = TextTable(["Name", "All matches", "Filtered matches"], aligns=["<", ">", ">"])
    for name in TOP_GIVEN_NAMES:
        table.add_row(
            [name, report.all_name_counts.get(name, 0), report.filtered_name_counts.get(name, 0)]
        )
    chart = render_bar_chart(
        {name: report.all_name_counts.get(name, 0) for name in TOP_GIVEN_NAMES[:20]},
        log_note=True,
    )
    write_artifact(
        "figure2_given_names",
        "Figure 2: given-name matches in reverse DNS (all vs filtered)",
        table.render() + "\n\nTop-20 all-matches profile:\n" + chart,
    )

    all_total = sum(report.all_name_counts.values())
    filtered_total = sum(report.filtered_name_counts.values())
    assert all_total > 0 and filtered_total > 0
    # Filtering strictly reduces matches, for every name; the paper's
    # log-scale figure shows a gap approaching an order of magnitude.
    assert filtered_total < all_total
    assert all_total > 3 * filtered_total
    for name in TOP_GIVEN_NAMES:
        assert report.filtered_name_counts.get(name, 0) <= report.all_name_counts.get(name, 0)
    # Popularity ordering shows through: the top-10 names out-match the
    # bottom-10 in aggregate.
    head = sum(report.all_name_counts.get(name, 0) for name in TOP_GIVEN_NAMES[:10])
    tail = sum(report.all_name_counts.get(name, 0) for name in TOP_GIVEN_NAMES[-10:])
    assert head > tail
    benchmark.extra_info["all_matches"] = all_total
    benchmark.extra_info["filtered_matches"] = filtered_total
