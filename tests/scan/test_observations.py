"""Tests for observations and CSV persistence."""

import datetime as dt
import ipaddress

from repro.dns.resolver import ResolutionStatus
from repro.netsim.simtime import from_datetime
from repro.scan import (
    IcmpObservation,
    RdnsObservation,
    read_icmp_csv,
    read_rdns_csv,
    write_icmp_csv,
    write_rdns_csv,
)
from tests.oracles import truncate


def ts(*moment):
    return from_datetime(dt.datetime(*moment))


def icmp_obs(minute=7):
    return IcmpObservation(
        address=ipaddress.IPv4Address("20.0.10.10"),
        at=ts(2021, 11, 1, 10, minute),
        network="Academic-A",
    )


def rdns_obs(status=ResolutionStatus.NOERROR, hostname="brians-mbp.campus.stateu.edu"):
    return RdnsObservation(
        address=ipaddress.IPv4Address("20.0.10.10"),
        at=ts(2021, 11, 1, 10, 7),
        status=status,
        hostname=hostname if status is ResolutionStatus.NOERROR else "",
        network="Academic-A",
    )


class TestTruncation:
    def test_five_minute_truncation(self):
        assert truncate(icmp_obs(minute=7).at) == ts(2021, 11, 1, 10, 5)
        assert truncate(icmp_obs(minute=5).at) == ts(2021, 11, 1, 10, 5)

    def test_icmp_and_rdns_merge_on_truncated_key(self):
        # The merge the paper performs: same IP, same 5-minute bucket.
        assert truncate(icmp_obs().at) == truncate(rdns_obs().at)


class TestRdnsObservation:
    def test_ok_flag(self):
        assert rdns_obs().ok
        assert not rdns_obs(ResolutionStatus.NXDOMAIN).ok
        assert not rdns_obs(ResolutionStatus.TIMEOUT).ok


class TestCsvRoundtrip:
    def test_icmp_roundtrip(self, tmp_path):
        path = tmp_path / "icmp.csv"
        rows = [icmp_obs(m) for m in range(5)]
        assert write_icmp_csv(path, rows) == 5
        assert read_icmp_csv(path) == rows

    def test_rdns_roundtrip(self, tmp_path):
        path = tmp_path / "rdns.csv"
        rows = [
            rdns_obs(),
            rdns_obs(ResolutionStatus.NXDOMAIN),
            rdns_obs(ResolutionStatus.SERVFAIL),
            rdns_obs(ResolutionStatus.TIMEOUT),
        ]
        assert write_rdns_csv(path, rows) == 4
        assert read_rdns_csv(path) == rows

    def test_empty_files(self, tmp_path):
        icmp_path = tmp_path / "icmp.csv"
        rdns_path = tmp_path / "rdns.csv"
        assert write_icmp_csv(icmp_path, []) == 0
        assert write_rdns_csv(rdns_path, []) == 0
        assert read_icmp_csv(icmp_path) == []
        assert read_rdns_csv(rdns_path) == []
