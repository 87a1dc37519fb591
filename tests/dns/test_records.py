"""Tests for resource records and RRsets."""

import ipaddress

import pytest

from repro.dns import DomainName, RecordType, ResourceRecord, make_ptr
from repro.dns.records import RRset, SoaData


class TestResourceRecord:
    def test_make_ptr_presentation_form(self):
        record = make_ptr("93.184.216.34", "example.com")
        assert record.to_text() == "34.216.184.93.in-addr.arpa. 3600 IN PTR example.com."

    def test_make_ptr_custom_ttl(self):
        assert make_ptr("10.0.0.1", "h.example.com", ttl=60).ttl == 60

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            make_ptr("10.0.0.1", "h.example.com", ttl=-1)

    def test_rdata_type_enforced(self):
        with pytest.raises(TypeError):
            ResourceRecord(DomainName.parse("x.example.com"), RecordType.PTR, "not-a-name")

    def test_a_record_rdata(self):
        record = ResourceRecord(
            DomainName.parse("h.example.com"),
            RecordType.A,
            ipaddress.IPv4Address("192.0.2.1"),
        )
        assert record.rdata_text() == "192.0.2.1"

    def test_soa_rdata_text(self):
        soa = SoaData(DomainName.parse("ns1.example.com"), DomainName.parse("hostmaster.example.com"), serial=7)
        record = ResourceRecord(DomainName.parse("example.com"), RecordType.SOA, soa)
        assert "ns1.example.com." in record.rdata_text()
        assert " 7 " in record.rdata_text()

    def test_records_are_hashable_and_frozen(self):
        record = make_ptr("10.0.0.1", "h.example.com")
        assert record in {record}
        with pytest.raises(AttributeError):
            record.ttl = 10  # type: ignore[misc]


class TestRRset:
    def test_add_and_iterate(self):
        record = make_ptr("10.0.0.1", "a.example.com")
        rrset = RRset(record.name, RecordType.PTR)
        rrset.add(record)
        assert list(rrset) == [record]
        assert len(rrset) == 1
        assert bool(rrset)

    def test_duplicate_add_is_idempotent(self):
        record = make_ptr("10.0.0.1", "a.example.com")
        rrset = RRset(record.name, RecordType.PTR)
        rrset.add(record)
        rrset.add(record)
        assert len(rrset) == 1

    def test_add_rejects_mismatched_record(self):
        rrset = RRset(DomainName.parse("1.0.0.10.in-addr.arpa"), RecordType.PTR)
        with pytest.raises(ValueError):
            rrset.add(make_ptr("10.0.0.2", "b.example.com"))

