"""Unit tests for the binary blockfile container (dataset format v4)."""

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
            assert reader.unique_ptrs() == set(self.PTRS)
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
                reader.unique_ptrs()

    def test_no_ptr_record_reads_as_empty(self, tmp_path):
        path = write_sample(tmp_path / "sample.rbf")
        with BlockFileReader.open(path) as reader:
            assert reader.unique_ptr_count == 0
            assert reader.unique_ptrs() == set()


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
