"""The ``repro cache`` subcommand: inspect / verify."""

import io
import json

from repro.cli import main
from repro.scan.cache import SnapshotCache
from tests.scan.test_cache_v4 import collect


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def seeded_cache(tmp_path):
    cache = SnapshotCache(tmp_path / "snap")
    collector, series = collect(cache)
    return cache, collector.last_metrics.cache_key, series


class TestCacheCommand:
    def test_inspect_lists_v4_entries(self, tmp_path):
        cache, key, _ = seeded_cache(tmp_path)
        code, output = run_cli(
            "--snapshot-cache", str(cache.root),
            "--campaign-cache", str(tmp_path / "camp"),
            "cache", "inspect",
        )
        assert code == 0
        assert "1 entry(ies)" in output
        assert key[:12] in output
        assert f"{key}.rbf" in output

    def test_verify_passes_on_healthy_cache(self, tmp_path):
        cache, key, _ = seeded_cache(tmp_path)
        code, output = run_cli(
            "--snapshot-cache", str(cache.root),
            "--campaign-cache", str(tmp_path / "camp"),
            "cache", "verify",
        )
        assert code == 0
        assert "OK" in output

    def test_verify_flags_corrupt_sidecar(self, tmp_path):
        cache, key, _ = seeded_cache(tmp_path)
        sidecar = cache.blockfile_path_for(key)
        blob = bytearray(sidecar.read_bytes())
        blob[-1] ^= 0xFF
        sidecar.write_bytes(bytes(blob))
        code, output = run_cli(
            "--snapshot-cache", str(cache.root),
            "--campaign-cache", str(tmp_path / "camp"),
            "cache", "verify",
        )
        assert code == 1
        assert "SHA-256 mismatch" in output

    def test_verify_reports_stale_entry_without_failing(self, tmp_path):
        cache, key, _ = seeded_cache(tmp_path)
        document = json.loads(cache.path_for(key).read_text())
        document["version"] = 3
        cache.path_for(key).write_text(json.dumps(document))
        code, output = run_cli(
            "--snapshot-cache", str(cache.root),
            "--campaign-cache", str(tmp_path / "camp"),
            "cache", "verify",
        )
        assert code == 0
        assert "v3 stale" in output
        assert "OK" not in output
        # Verification reports; it never repairs behind the user's back.
        assert cache.path_for(key).is_file()
