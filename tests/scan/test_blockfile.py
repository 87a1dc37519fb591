"""Unit tests for the binary blockfile container: cache sidecars and pool results."""

import ipaddress
import mmap
import struct
import zlib

import pytest

from repro.scan.blockfile import (
    ALIGNMENT,
    HEADER_SIZE,
    BlockFileError,
    BlockFileReader,
    append_day_records,
    encode_records,
    write_blockfile,
)
from repro.dns.resolver import ResolutionStatus
from repro.scan.observations import IcmpObservation, RdnsObservation
from repro.scan.storage import IcmpColumns, RdnsColumns

PREFIXES = ["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"]
DAYS = [738156, 738157]
COLUMNS = [[5, 0, 7], [6, 1]]
TOTALS = [12, 7]


def write_sample(path):
    write_blockfile(path, PREFIXES, DAYS, COLUMNS, TOTALS)
    return path


class TestRoundTrip:
    def test_encode_is_aligned_and_deterministic(self):
        blob = encode_records(PREFIXES, DAYS, COLUMNS, TOTALS)
        assert len(blob) % ALIGNMENT == 0
        assert blob == encode_records(PREFIXES, DAYS, COLUMNS, TOTALS)

    def test_reader_round_trips(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        with BlockFileReader.open(path) as reader:
            assert reader.prefixes == PREFIXES
            assert reader.days == DAYS
            assert reader.totals == TOTALS
            assert [list(column) for column in reader.columns] == COLUMNS
            assert reader.verify() == 3  # 1 prefix + 2 day records

    def test_mmap_and_read_fallback_agree(self, tmp_path, monkeypatch):
        path = write_sample(tmp_path / "sample.rbf")

        def refuse(*args, **kwargs):
            raise OSError("mmap unavailable")

        with BlockFileReader.open(path) as mapped:
            assert mapped._mmap is not None
            monkeypatch.setattr(mmap, "mmap", refuse)
            with BlockFileReader.open(path) as read:
                assert read._mmap is None
                assert mapped.prefixes == read.prefixes
                assert mapped.days == read.days
                assert mapped.totals == read.totals
                assert [list(c) for c in mapped.columns] == [
                    list(c) for c in read.columns
                ]

    def test_count_matrix_matches_columns(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        with BlockFileReader.open(path) as reader:
            matrix = reader.count_matrix()
            assert matrix.day_count == len(DAYS)
            assert list(matrix.prefixes) == PREFIXES
            assert matrix.totals == TOTALS
            assert matrix.day_counts(0) == {"10.0.0.0/24": 5, "10.0.2.0/24": 7}
            # Ragged column: the missing third prefix reads as zero.
            assert matrix.count(1, 2) == 0
            assert matrix.row(0) == [5, 6]

    def test_empty_matrix_round_trips(self, tmp_path):
        path = tmp_path / "empty.rbf"
        write_blockfile(path, [], [], [], [])
        with BlockFileReader.open(path) as reader:
            assert reader.prefixes == []
            assert reader.days == []
            assert reader.record_count == 0


class TestPtrRecords:
    PTRS = ["a.campus.example", "b.campus.example", "c.isp.example"]

    def test_ptr_round_trip_is_lazy(self, tmp_path):
        path = tmp_path / "ptrs.rbf"
        write_blockfile(path, PREFIXES, DAYS, COLUMNS, TOTALS, self.PTRS)
        with BlockFileReader.open(path) as reader:
            # The count is answered from record headers alone...
            assert reader._ptr_spans and reader.unique_ptr_count == 3
            # ...and decoding happens only on request.
            assert reader.ptr_names() == self.PTRS
            assert reader.verify() == 4  # prefixes + ptrs + 2 days

    def test_ptr_count_mismatch_rejected_on_decode(self, tmp_path):
        path = tmp_path / "ptrs.rbf"
        write_blockfile(path, PREFIXES, DAYS, COLUMNS, TOTALS, self.PTRS)
        blob = bytearray(path.read_bytes())
        # The PTRS record follows the prefix record; its aux1 (string
        # count) sits at +24.  Re-seal the header CRC so only the
        # decode-time count check can fire.
        offset = HEADER_SIZE + 64 + len("\n".join(PREFIXES).encode())
        offset += -offset % ALIGNMENT
        head = bytearray(blob[offset : offset + 64])
        struct.pack_into("<Q", head, 24, 99)
        struct.pack_into("<I", head, 56, zlib.crc32(bytes(head[:56])))
        blob[offset : offset + 64] = head
        path.write_bytes(bytes(blob))
        with BlockFileReader.open(path) as reader:
            with pytest.raises(BlockFileError, match="declares 99 strings"):
                reader.ptr_names()

    def test_no_ptr_record_reads_as_empty(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        with BlockFileReader.open(path) as reader:
            assert reader.unique_ptr_count == 0
            assert reader.ptr_names() == []


class TestAppend:
    def test_append_day_extends_without_rewriting(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        before = path.read_bytes()
        appended = append_day_records(path, ["10.0.3.0/24"], 738158, [1, 2, 3, 4], 10)
        after = path.read_bytes()
        assert after[: len(before)] == before  # strict append at EOF
        assert len(after) == len(before) + appended
        with BlockFileReader.open(path) as reader:
            reader.verify()
            assert reader.prefixes == PREFIXES + ["10.0.3.0/24"]
            assert reader.days == DAYS + [738158]
            assert reader.totals == TOTALS + [10]
            assert list(reader.columns[-1]) == [1, 2, 3, 4]

    def test_append_without_new_prefixes(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        append_day_records(path, [], 738158, [1, 1, 1], 3)
        with BlockFileReader.open(path) as reader:
            assert reader.prefixes == PREFIXES
            assert reader.days[-1] == 738158

    def test_append_refuses_torn_file(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        with path.open("ab") as handle:
            handle.write(b"\0" * 13)  # simulate a torn trailing write
        with pytest.raises(BlockFileError, match="not .*aligned"):
            append_day_records(path, [], 738158, [1], 1)

    def test_old_reader_unaffected_by_append(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        with BlockFileReader.open(path) as reader:
            append_day_records(path, [], 738158, [9, 9, 9], 27)
            # The mapping predates the append: same records, same data.
            assert reader.days == DAYS
            assert [list(c) for c in reader.columns] == COLUMNS


class TestCorruption:
    def corrupt(self, path, offset):
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_bad_magic_rejected(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        self.corrupt(path, 0)
        with pytest.raises(BlockFileError, match="bad magic"):
            BlockFileReader.open(path)

    def test_header_checksum_detects_flips(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        self.corrupt(path, 16)  # record_count field: covered by the CRC
        with pytest.raises(BlockFileError, match="header checksum"):
            BlockFileReader.open(path)

    def test_record_header_checksum_detects_flips(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        self.corrupt(path, HEADER_SIZE + 24)  # first record's aux1
        with pytest.raises(BlockFileError, match="record header checksum"):
            BlockFileReader.open(path)

    def test_body_flip_caught_by_verify(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        self.corrupt(path, len(path.read_bytes()) - 1 - ALIGNMENT + 4)
        with BlockFileReader.open(path) as reader:  # headers still valid
            with pytest.raises(BlockFileError, match="body checksum"):
                reader.verify()

    def test_truncated_body_rejected_at_open(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        blob = path.read_bytes()
        # Cut inside the last day record's 8-byte body (2 × u32).
        path.write_bytes(blob[: len(blob) - ALIGNMENT + 4])
        with pytest.raises(BlockFileError):
            BlockFileReader.open(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "bad.rbf"
        blob = bytearray(encode_records(PREFIXES, DAYS, COLUMNS, TOTALS))
        # Rewrite the first record header with an unknown type, keeping
        # its header CRC consistent so only the type check can fire.
        offset = HEADER_SIZE
        head = bytearray(blob[offset : offset + 64])
        struct.pack_into("<H", head, 4, 99)
        struct.pack_into("<I", head, 56, zlib.crc32(bytes(head[:56])))
        blob[offset : offset + 64] = head
        path.write_bytes(bytes(blob))
        with pytest.raises(BlockFileError, match="unknown record type"):
            BlockFileReader.open(path)

    def test_missing_file_raises_blockfile_error(self, tmp_path):
        with pytest.raises(BlockFileError, match="cannot open"):
            BlockFileReader.open(tmp_path / "absent.rbf")


class TestRecordColumns:
    # Pool order is id order, not sorted order.
    PTRS = ["c.isp.example", "a.campus.example", "b.campus.example"]
    RECORDS = [
        (DAYS[0], [0x0A000005, 0x0A000002, 0x0A000005], [2, 0, 2]),
        (DAYS[1], [0x0A000101], [1]),
    ]

    def write(self, path, records=None):
        records = self.RECORDS if records is None else records
        path.write_bytes(
            encode_records(PREFIXES, DAYS, COLUMNS, TOTALS, self.PTRS, records)
        )
        return path

    def test_round_trip_is_lazy_and_ordered(self, tmp_path):
        path = self.write(tmp_path / "records.rbf")
        with BlockFileReader.open(path) as reader:
            assert reader.unique_ptr_count == 3
            assert reader.ptr_names() == self.PTRS
            for ordinal, addresses, ids in self.RECORDS:
                stored_addresses, stored_ids = reader.day_records(ordinal)
                assert stored_addresses.tolist() == addresses
                assert stored_ids.tolist() == ids
            assert reader.verify() == 6  # prefixes + ptrs + 2 days + 2 records

    def test_day_without_records_reads_as_none(self, tmp_path):
        path = self.write(tmp_path / "records.rbf", records=self.RECORDS[:1])
        with BlockFileReader.open(path) as reader:
            assert reader.day_records(DAYS[1]) is None

    def test_torn_body_rejected_at_open(self, tmp_path):
        path = self.write(tmp_path / "records.rbf")
        blob = path.read_bytes()
        # The last record is DAYS[1]'s one-record RECORDS: 8 body bytes.
        path.write_bytes(blob[: len(blob) - ALIGNMENT + 4])
        with pytest.raises(BlockFileError, match="truncated"):
            BlockFileReader.open(path)

    def test_flipped_body_bit_caught_by_verify(self, tmp_path):
        path = self.write(tmp_path / "records.rbf")
        blob = bytearray(path.read_bytes())
        blob[len(blob) - ALIGNMENT] ^= 0x01  # the last record's address
        path.write_bytes(bytes(blob))
        with BlockFileReader.open(path) as reader:
            with pytest.raises(BlockFileError, match="record columns body checksum"):
                reader.verify()

    def test_out_of_range_id_rejected_at_open(self, tmp_path):
        path = self.write(
            tmp_path / "records.rbf", records=[(DAYS[0], [0x0A000005], [3])]
        )
        with pytest.raises(BlockFileError, match="outside the 3-name pool"):
            BlockFileReader.open(path)

    def test_records_for_unknown_day_rejected_at_open(self, tmp_path):
        path = self.write(tmp_path / "records.rbf", records=[(DAYS[1] + 5, [1], [0])])
        with pytest.raises(BlockFileError, match="has no day record"):
            BlockFileReader.open(path)

    def test_body_length_must_match_record_count(self, tmp_path):
        path = self.write(tmp_path / "records.rbf")
        blob = bytearray(path.read_bytes())
        # Re-seal the last record header with aux2 (record count) = 2.
        offset = len(blob) - ALIGNMENT - 64
        head = bytearray(blob[offset : offset + 64])
        struct.pack_into("<Q", head, 32, 2)
        struct.pack_into("<I", head, 56, zlib.crc32(bytes(head[:56])))
        blob[offset : offset + 64] = head
        path.write_bytes(bytes(blob))
        with pytest.raises(BlockFileError, match="declares 2 records"):
            BlockFileReader.open(path)


def sample_streams():
    """A small (ICMP, RDNS) pair: two networks, every status, empty names."""
    icmp, rdns = IcmpColumns(), RdnsColumns()
    statuses = list(ResolutionStatus)
    for index in range(7):
        address = ipaddress.IPv4Address(0x0A000001 + index)
        network = "Academic-A" if index % 3 else "ISP-B"
        icmp.append(IcmpObservation(address=address, at=1_000 + index, network=network))
        status = statuses[index % len(statuses)]
        hostname = f"host-{index % 3}.example.net" if status is ResolutionStatus.NOERROR else ""
        rdns.append(
            RdnsObservation(
                address=address, at=2**40 + index, status=status,
                hostname=hostname, network=network,
            )
        )
    return icmp, rdns


class TestObservationRecords:
    def write(self, path, pairs=None):
        path.write_bytes(encode_records(observations=pairs or [sample_streams()]))
        return path

    @staticmethod
    def spans(path):
        """``(record header offset, body offset)`` of the ICMP and RDNS records."""
        with BlockFileReader.open(path) as reader:
            return [(span[1] - 64, span[1]) for span in reader._observation_spans]

    def test_round_trip(self, tmp_path):
        icmp, rdns = sample_streams()
        path = self.write(tmp_path / "campaign.rbf", [(icmp, rdns), (IcmpColumns(), RdnsColumns())])
        with BlockFileReader.open(path) as reader:
            [(icmp2, rdns2), (empty_icmp, empty_rdns)] = reader.observation_columns()
            assert reader.verify() == 4
        assert icmp2 == icmp and rdns2 == rdns
        assert icmp2._networks.values == icmp._networks.values
        assert rdns2._hostnames.values == rdns._hostnames.values
        assert list(rdns2) == list(rdns)
        assert len(empty_icmp) == len(empty_rdns) == 0

    def test_buffer_and_file_agree(self, tmp_path):
        path = self.write(tmp_path / "campaign.rbf")
        with BlockFileReader.open(path) as mapped:
            from_file = mapped.observation_columns()
        assert BlockFileReader.from_buffer(path.read_bytes()).observation_columns() == from_file

    def test_torn_file_rejected_at_open(self, tmp_path):
        path = self.write(tmp_path / "campaign.rbf")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - ALIGNMENT])
        with pytest.raises(BlockFileError, match="truncated"):
            BlockFileReader.open(path)

    @pytest.mark.parametrize("record, kind", [(0, "ICMP"), (1, "rDNS")])
    def test_bit_flip_rejected_at_open(self, tmp_path, record, kind):
        path = self.write(tmp_path / "campaign.rbf")
        _, body_offset = self.spans(path)[record]
        blob = bytearray(path.read_bytes())
        blob[body_offset + 3] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(BlockFileError, match=f"{kind} columns checksum mismatch"):
            BlockFileReader.open(path)

    @pytest.mark.parametrize(
        "stream, attribute, value, message",
        [
            (0, "_network_ids", 2, "network_ids outside its 2-string table"),
            (1, "_network_ids", 5, "network_ids outside its 2-string table"),
            (1, "_hostname_ids", 2, "hostname_ids outside its 2-string table"),
            (
                1, "_status_ids", len(ResolutionStatus),
                f"status_ids outside its {len(ResolutionStatus)}-string table",
            ),
        ],
    )
    def test_out_of_range_id_rejected_at_open(self, tmp_path, stream, attribute, value, message):
        streams = sample_streams()
        getattr(streams[stream], attribute)[-1] = value  # CRCs stay valid
        path = self.write(tmp_path / "campaign.rbf", [streams])
        with pytest.raises(BlockFileError, match=message):
            BlockFileReader.open(path)

    def test_unpaired_record_rejected_at_open(self, tmp_path):
        path = self.write(tmp_path / "campaign.rbf")
        rdns_header, _ = self.spans(path)[1]
        path.write_bytes(path.read_bytes()[:rdns_header])
        with pytest.raises(BlockFileError, match="alternate in pairs"):
            BlockFileReader.open(path)

    def test_unknown_status_value_rejected_on_decode(self, tmp_path):
        path = self.write(tmp_path / "campaign.rbf")
        rdns_header, body_offset = self.spans(path)[1]
        blob = bytearray(path.read_bytes())
        head = bytearray(blob[rdns_header:body_offset])
        body_length = struct.unpack_from("<Q", head, 8)[0]
        body = bytes(blob[body_offset : body_offset + body_length]).replace(b"timeout", b"timeOUT")
        blob[body_offset : body_offset + body_length] = body
        # Re-seal the body and header CRCs so only the status check fires.
        struct.pack_into("<I", head, 16, zlib.crc32(body))
        struct.pack_into("<I", head, 56, zlib.crc32(bytes(head[:56])))
        blob[rdns_header:body_offset] = head
        path.write_bytes(bytes(blob))
        with BlockFileReader.open(path) as reader:
            with pytest.raises(BlockFileError, match="'timeOUT' is not a valid ResolutionStatus"):
                reader.observation_columns()


class TestNewlinesRejected:
    @pytest.mark.parametrize(
        "table, arguments",
        [
            ("prefix table", {"prefixes": ["10.0.0.0/24", "10.0.1.0/24\n"]}),
            ("ptr table", {"ptrs": ["a.example", "b\nc.example"]}),
        ],
    )
    def test_string_tables(self, table, arguments):
        with pytest.raises(ValueError, match=table):
            encode_records(**arguments)

    def test_observation_pools(self):
        icmp, rdns = sample_streams()
        rdns._hostnames.values[1] = "two\nlines.example.net"
        with pytest.raises(ValueError, match="rDNS columns string pools"):
            encode_records(observations=[(icmp, rdns)])
        icmp._networks.values[0] = "ISP\nB"
        with pytest.raises(ValueError, match="ICMP columns string pools"):
            encode_records(observations=[(icmp, RdnsColumns())])

    def test_append_rejects_newlines(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        with pytest.raises(ValueError, match="prefix table"):
            append_day_records(path, ["10.0.9.0/24\n"], DAYS[-1] + 1, [1, 0, 0, 1], 2)
