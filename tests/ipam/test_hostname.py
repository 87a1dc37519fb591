"""Tests for Host Name to DNS label sanitisation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.ipam import sanitize_host_name


class TestSanitizeHostName:
    def test_paper_iphone_example(self):
        assert sanitize_host_name("Brian's iPhone") == "brians-iphone"

    def test_paper_galaxy_note_example(self):
        assert sanitize_host_name("Brian's Galaxy Note9") == "brians-galaxy-note9"

    def test_macbook_pro(self):
        assert sanitize_host_name("Brians-MBP") == "brians-mbp"

    def test_spaces_become_hyphens(self):
        assert sanitize_host_name("My Cool Laptop") == "my-cool-laptop"

    def test_unicode_apostrophe_dropped(self):
        assert sanitize_host_name("Brian’s iPad") == "brians-ipad"

    def test_underscores_and_dots_collapsed(self):
        assert sanitize_host_name("host_name.local") == "host-name-local"

    def test_hyphen_runs_collapsed(self):
        assert sanitize_host_name("a -- b") == "a-b"

    def test_leading_trailing_junk_stripped(self):
        assert sanitize_host_name("  (tablet)  ") == "tablet"

    def test_empty_input_falls_back(self):
        assert sanitize_host_name("") == "host"
        assert sanitize_host_name("'''") == "host"

    def test_custom_fallback(self):
        assert sanitize_host_name("!!!", fallback="client") == "client"

    def test_long_names_truncated_to_63(self):
        label = sanitize_host_name("x" * 100)
        assert len(label) == 63

    def test_truncation_does_not_leave_trailing_hyphen(self):
        label = sanitize_host_name("a" * 62 + " b")
        assert not label.endswith("-")

    @given(st.text(max_size=200))
    def test_output_is_always_a_valid_label(self, raw):
        label = sanitize_host_name(raw)
        assert 1 <= len(label) <= 63
        assert all(c.isascii() and (c.isalnum() or c == "-") for c in label)
        assert not label.startswith("-")
        assert not label.endswith("-")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=63))
    def test_plain_labels_pass_through(self, raw):
        assert sanitize_host_name(raw) == raw
