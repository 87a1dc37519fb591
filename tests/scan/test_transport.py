"""Pool results through the shared-memory transport, as ``.rbf`` blobs.

Workers encode with :mod:`repro.scan.blockfile` (the chunk encoder of
:mod:`repro.scan.parallel`, ICMP/RDNS record pairs for the campaign)
and the parent parses in place over the segment; these cases drive the
real encoders and parsers through :func:`~repro.scan.transport.publish`
and :func:`~repro.scan.transport.consume`.
"""

import ipaddress

import pytest

from repro.dns.resolver import ResolutionStatus
from repro.scan import transport
from repro.scan.blockfile import ALIGNMENT, BlockFileError, BlockFileReader, encode_records
from repro.scan.campaign_parallel import _decode_columns
from repro.scan.observations import IcmpObservation, RdnsObservation
from repro.scan.parallel import _decode_chunk, _encode_chunk
from repro.scan.storage import IcmpColumns, RdnsColumns


def through_segment(blob, parser):
    """Publish ``blob`` and parse it back over the shared buffer."""
    return transport.consume(transport.publish(blob), parser)


def sample_icmp() -> IcmpColumns:
    columns = IcmpColumns()
    for index in range(5):
        columns.append(
            IcmpObservation(
                address=ipaddress.IPv4Address(0x0A000001 + index),
                at=1000 + index,
                network="Academic-A" if index % 2 else "Res-B",
            )
        )
    return columns


def sample_rdns() -> RdnsColumns:
    columns = RdnsColumns()
    statuses = list(ResolutionStatus)
    for index in range(5):
        columns.append(
            RdnsObservation(
                address=ipaddress.IPv4Address(0x0A000001 + index),
                at=2000 + index,
                status=statuses[index % len(statuses)],
                hostname=f"host-{index}.example.net" if index % 2 else "",
                network="Academic-A",
            )
        )
    return columns


class TestPublishConsume:
    @pytest.mark.parametrize("mode", ["shm", "inline"])
    def test_round_trip(self, mode, monkeypatch):
        if mode == "inline":
            # The error-handling branch: no segment can be created.
            def no_segments(*args, **kwargs):
                raise OSError("no space left on device")

            monkeypatch.setattr("multiprocessing.shared_memory.SharedMemory", no_segments)
        blob = b"payload-bytes" * 100
        handle = transport.publish(blob)
        assert handle.kind == mode
        assert handle.size == len(blob)
        result = transport.consume(handle, lambda view: bytes(view))
        assert result == blob

    def test_shm_segment_unlinked_after_consume(self):
        handle = transport.publish(b"x" * 64)
        if handle.kind != "shm":  # degraded host: nothing to check
            pytest.skip("shared memory unavailable")
        transport.consume(handle, lambda view: None)
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)


class TestDayChunks:
    def test_round_trip_preserves_order(self):
        results = [
            (
                738156,
                {"10.0.1.0/24": 3, "10.0.0.0/24": 1},
                [(0x0A000105, "b.ptr"), (0x0A000001, "a.ptr"), (0x0A000001, "a.ptr")],
            ),
            (738157, {"10.0.0.0/24": 2, "10.0.2.0/24": 9}, [(0x0A000002, "a.ptr")]),
            (738158, {}, []),
        ]
        unpacked = through_segment(_encode_chunk(results), _decode_chunk)
        assert unpacked == results
        # First-seen prefix order — the interning anchor — survives, and
        # so does the record walk, duplicates included.
        assert list(unpacked[0][1]) == ["10.0.1.0/24", "10.0.0.0/24"]
        assert list(unpacked[1][1]) == ["10.0.0.0/24", "10.0.2.0/24"]

    def test_new_prefixes_keep_their_first_seen_order(self):
        results = [
            (738156, {"10.0.5.0/24": 1}, []),
            (738157, {"10.0.9.0/24": 1, "10.0.5.0/24": 2, "10.0.3.0/24": 4}, []),
        ]
        unpacked = through_segment(_encode_chunk(results), _decode_chunk)
        assert unpacked == results
        # Counts come back in chunk-local id order; the day's new
        # prefixes (10.0.9.0, then 10.0.3.0) keep their relative order.
        assert list(unpacked[1][1]) == ["10.0.5.0/24", "10.0.9.0/24", "10.0.3.0/24"]

    def test_hostnames_cross_once_per_chunk(self):
        day = [(0x0A000001 + index, f"host-{index}.example.net") for index in range(50)]
        one = len(_encode_chunk([(738156, {}, day)]))
        two = len(_encode_chunk([(738156, {}, day), (738157, {}, day)]))
        # The second day adds a DAY and a RECORDS record (two headers,
        # padding and two u32 columns), not the names.
        assert two - one <= 8 * len(day) + 3 * ALIGNMENT

    def test_empty_chunk(self):
        assert through_segment(_encode_chunk([]), _decode_chunk) == []

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            through_segment(b"nope" + b"\0" * 60, _decode_chunk)


class TestRecordChunks:
    def test_round_trip(self):
        results = [
            (738156, {}, [(0x0A000001, "a.example"), (0x0A000002, "b.example")]),
            (738157, {}, []),
        ]
        assert through_segment(_encode_chunk(results), _decode_chunk) == results


class TestCampaignColumns:
    @staticmethod
    def round_trip(pairs):
        return through_segment(encode_records(observations=pairs), _decode_columns)

    def test_icmp_round_trip(self):
        columns = sample_icmp()
        [(rebuilt, _)] = self.round_trip([(columns, RdnsColumns())])
        assert rebuilt == columns
        assert rebuilt._networks.values == columns._networks.values

    def test_rdns_round_trip(self):
        columns = sample_rdns()
        [(_, rebuilt)] = self.round_trip([(IcmpColumns(), columns)])
        assert rebuilt == columns
        assert rebuilt._hostnames.values == columns._hostnames.values
        assert rebuilt._status_ids == columns._status_ids

    def test_campaign_pair_round_trip(self):
        icmp, rdns = sample_icmp(), sample_rdns()
        [(icmp2, rdns2)] = self.round_trip([(icmp, rdns)])
        assert icmp2 == icmp
        assert rdns2 == rdns

    def test_campaign_batch_round_trip(self):
        pairs = [(sample_icmp(), sample_rdns()) for _ in range(3)]
        rebuilt = self.round_trip(pairs)
        assert len(rebuilt) == 3
        for (icmp, rdns), (icmp2, rdns2) in zip(pairs, rebuilt):
            assert icmp2 == icmp
            assert rdns2 == rdns


class TestFailedParse:
    def test_parser_error_survives_its_views(self):
        """A parser that fails while holding views into the segment
        raises its own error, and the segment is still released."""
        blob = _encode_chunk([(738156, {"10.0.0.0/24": 3}, [(0x0A000001, "a.ptr")])])

        def parse(view):
            reader = BlockFileReader.from_buffer(view)  # its DAY column is a view
            raise BlockFileError(f"rejected {len(reader.columns)} day column(s)")

        handle = transport.publish(blob)
        with pytest.raises(BlockFileError, match="rejected 1 day column"):
            transport.consume(handle, parse)
        if handle.kind == "shm":
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle.name)
