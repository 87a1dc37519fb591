"""Tests for the operator-facing exposure auditor."""

import datetime as dt
import ipaddress

from repro.core.exposure import ExposureAuditor, audit_by_network
from repro.dns.resolver import ResolutionStatus
from repro.netsim.simtime import HOUR, from_date
from repro.scan.observations import RdnsObservation

DAY0 = dt.date(2021, 11, 1)


def obs(day, hour, address, hostname, network="net-a", ok=True):
    return RdnsObservation(
        ipaddress.IPv4Address(address),
        from_date(DAY0 + dt.timedelta(days=day)) + hour * HOUR,
        ResolutionStatus.NOERROR if ok else ResolutionStatus.NXDOMAIN,
        hostname if ok else "",
        network,
    )


def leaky_window():
    """Three days of a carry-over network: names, churn, stable pairs."""
    rows = []
    for day in range(3):
        rows.append(obs(day, 9, "10.0.0.10", "brians-iphone.campus.example.edu"))
        rows.append(obs(day, 10, "10.0.0.11", "emmas-galaxy-s10.campus.example.edu"))
        if day == 1:  # a device present on one day only: churn
            rows.append(obs(day, 11, "10.0.0.12", "jacobs-mbp.campus.example.edu"))
    return rows


def boring_window():
    """Three days of fixed-form records: no names, no churn."""
    rows = []
    for day in range(3):
        for last in (10, 11, 12):
            rows.append(obs(day, 9, f"10.0.0.{last}", f"host-10-0-0-{last}.pool.example.net"))
    return rows


class TestExposureAuditor:
    def test_leaky_network_scores_high(self):
        report = ExposureAuditor().audit(leaky_window())
        assert report.identity_score == 1.0
        assert report.dynamics_score > 0.2
        assert report.trackability_score > 0.5
        assert report.grade() in ("D", "F")
        assert "brians-iphone.campus.example.edu" in report.named_hostnames

    def test_fixed_form_network_scores_low_identity(self):
        report = ExposureAuditor().audit(boring_window())
        assert report.identity_score == 0.0
        assert report.dynamics_score == 0.0
        assert report.named_hostnames == ()

    def test_empty_window(self):
        report = ExposureAuditor().audit([])
        assert report.records_observed == 0
        assert report.overall == 0.0
        assert report.grade() == "A"

    def test_failed_lookups_ignored(self):
        report = ExposureAuditor().audit([obs(0, 9, "10.0.0.1", "", ok=False)])
        assert report.records_observed == 0

    def test_router_records_not_identity(self):
        rows = [obs(d, 9, "10.0.0.1", "xe-0-0-0.core1.jackson.isp.example.net") for d in range(3)]
        report = ExposureAuditor().audit(rows)
        assert report.identity_score == 0.0

    def test_device_terms_count_as_identity(self):
        rows = [obs(0, 9, "10.0.0.1", "galaxy-s10.guest.example.org")]
        report = ExposureAuditor().audit(rows)
        assert report.identity_score == 1.0
        assert report.device_term_hostnames

    def test_upper_case_device_terms_count_as_identity(self):
        # The leak identifier finds 'galaxy' here; the audit must agree.
        hostname = "SAMSUNGGALAXYTAB.dyn.example.net"
        report = ExposureAuditor().audit([obs(0, 9, "10.0.0.1", hostname)])
        assert report.identity_score == 1.0
        assert report.device_term_hostnames == (hostname,)

    def test_single_day_window_has_no_dynamics_signal(self):
        rows = [obs(0, 9, "10.0.0.1", "brians-iphone.x.example")]
        assert ExposureAuditor().audit(rows).dynamics_score == 0.0

    def test_summary_and_grades_monotone(self):
        leaky = ExposureAuditor().audit(leaky_window())
        boring = ExposureAuditor().audit(boring_window())
        assert leaky.overall > boring.overall
        assert "exposure grade" in leaky.summary()

    def test_sample_limit(self):
        rows = [
            obs(0, 9, f"10.0.0.{i}", f"jacobs-box-{i}.x.example") for i in range(10, 40)
        ]
        report = ExposureAuditor(sample_limit=5).audit(rows)
        assert len(report.named_hostnames) == 5

    def test_samples_keep_first_seen_order_across_duplicates(self):
        named, both, galaxy, iphone = (
            "brians-box.x.example",
            "emmas-galaxy.x.example",  # a given name and a device term
            "galaxy-s10.x.example",
            "iphone-7.x.example",
        )
        # Each hostname recurs, interleaved with the others, over three days.
        order = [named, galaxy, both, named, iphone, "jacobs-box.x.example", galaxy]
        rows = [
            obs(day, 9 + index, f"10.0.0.{10 + index}", hostname)
            for day in range(3)
            for index, hostname in enumerate(order)
        ]
        report = ExposureAuditor().audit(rows)
        assert report.named_hostnames == (named, both, "jacobs-box.x.example")
        assert report.device_term_hostnames == (galaxy, both, iphone)


class TestAuditByNetwork:
    def test_networks_audited_separately(self):
        rows = leaky_window() + [
            obs(day, 9, "10.1.0.10", "host-10-1-0-10.pool.example.net", network="net-b")
            for day in range(3)
        ]
        reports = audit_by_network(rows)
        assert set(reports) == {"net-a", "net-b"}
        assert reports["net-a"].identity_score > reports["net-b"].identity_score
