"""Robustness of the wire codec and a full on-the-wire exchange."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns import (
    AuthoritativeServer,
    DnsMessage,
    MessageFormatError,
    Rcode,
    ReverseZone,
    reverse_pointer,
)


class TestDecoderRobustness:
    @given(st.binary(max_size=512))
    @settings(max_examples=300)
    def test_random_bytes_never_crash_the_decoder(self, wire):
        """Garbage input either decodes or raises MessageFormatError."""
        try:
            DnsMessage.from_wire(wire)
        except MessageFormatError:
            pass
        except (ValueError, OverflowError) as exc:
            # Enum lookups for unknown type/class codes surface as
            # ValueError, which is acceptable decode-failure behaviour.
            assert isinstance(exc, ValueError)

    @given(st.binary(min_size=12, max_size=64), st.integers(min_value=0, max_value=63))
    @settings(max_examples=100)
    def test_truncated_valid_messages_fail_cleanly(self, _, cut):
        query = DnsMessage.query(reverse_pointer("192.0.2.55"), msg_id=1)
        wire = query.to_wire()
        truncated = wire[: max(0, len(wire) - 1 - cut % max(len(wire) - 1, 1))]
        if truncated == wire:
            return
        try:
            DnsMessage.from_wire(truncated)
        except (MessageFormatError, ValueError):
            pass

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=65535))
    @settings(max_examples=100)
    def test_flag_bytes_roundtrip(self, packed, msg_id):
        import ipaddress

        query = DnsMessage.query(reverse_pointer(ipaddress.IPv4Address(packed)), msg_id=msg_id)
        assert DnsMessage.from_wire(query.to_wire()).to_wire() == query.to_wire()


class TestFullWireExchange:
    def test_query_response_over_the_wire(self):
        """Encode a query, ship bytes, decode, answer, ship bytes back."""
        zone = ReverseZone("192.0.2.0/24")
        zone.set_ptr("192.0.2.10", "brians-iphone.campus.example.edu")
        server = AuthoritativeServer("ns1.example.edu")
        server.add_zone(zone)

        client_query = DnsMessage.query(reverse_pointer("192.0.2.10"), msg_id=777)
        wire_out = client_query.to_wire()

        server_view = DnsMessage.from_wire(wire_out)
        response = server.handle(server_view)
        wire_back = response.to_wire()

        client_view = DnsMessage.from_wire(wire_back)
        assert client_view.msg_id == 777
        assert client_view.rcode is Rcode.NOERROR
        assert client_view.authoritative
        assert client_view.answers[0].rdata_text() == "brians-iphone.campus.example.edu."

    def test_nxdomain_over_the_wire_carries_soa(self):
        zone = ReverseZone("192.0.2.0/24")
        server = AuthoritativeServer()
        server.add_zone(zone)
        query_wire = DnsMessage.query(reverse_pointer("192.0.2.99")).to_wire()
        response = server.handle(DnsMessage.from_wire(query_wire))
        decoded = DnsMessage.from_wire(response.to_wire())
        assert decoded.rcode is Rcode.NXDOMAIN
        assert decoded.authority[0].rdata.serial == zone.serial
