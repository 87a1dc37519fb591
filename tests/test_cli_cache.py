"""The ``repro cache`` subcommand: inspect / verify."""

import datetime as dt
import io
import json

from repro.cli import main
from repro.netsim.internet import WorldScale, build_world
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from tests.scan.test_cache_v4 import collect


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def seeded_cache(tmp_path):
    cache = SnapshotCache(tmp_path / "snap")
    collector, series = collect(cache)
    return cache, collector.last_metrics.cache_key, series


def seeded_campaign_cache(tmp_path):
    cache = CampaignCache(tmp_path / "camp")
    world = build_world(seed=5, scale=WorldScale.small())
    name = SupplementalCampaign(world).network_names[0]
    campaign = SupplementalCampaign(world, networks=[name])
    campaign.run(dt.date(2021, 11, 1), dt.date(2021, 11, 2), cache=cache)
    return cache, campaign.last_metrics.cache_key


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

    def test_inspect_lists_campaign_sidecars(self, tmp_path):
        campaign, key = seeded_campaign_cache(tmp_path)
        sidecar = campaign.blockfile_path_for(key)
        code, output = run_cli(
            "--snapshot-cache", str(tmp_path / "snap"),
            "--campaign-cache", str(campaign.root),
            "cache", "inspect",
        )
        assert code == 0
        assert f"campaign cache {campaign.root}: 1 entry(ies)" in output
        assert f"{key}.rbf" in output
        assert f"{sidecar.stat().st_size:,}" in output

    def test_verify_checks_campaign_sidecars(self, tmp_path):
        campaign, key = seeded_campaign_cache(tmp_path)
        code, output = run_cli(
            "--snapshot-cache", str(tmp_path / "snap"),
            "--campaign-cache", str(campaign.root),
            "cache", "verify",
        )
        assert code == 0
        assert f"{key[:12]}… v" in output and "CRCs + SHA-256 good" in output
        assert f"verified 1 entry(ies) in {campaign.root}: 0 failure(s)" in output

    def test_verify_flags_bit_flipped_campaign_sidecar(self, tmp_path):
        cache, _, _ = seeded_cache(tmp_path)
        campaign, key = seeded_campaign_cache(tmp_path)
        sidecar = campaign.blockfile_path_for(key)
        blob = bytearray(sidecar.read_bytes())
        blob[2 * 64] ^= 0x01  # the first ICMP timestamp
        sidecar.write_bytes(bytes(blob))
        code, output = run_cli(
            "--snapshot-cache", str(cache.root),
            "--campaign-cache", str(campaign.root),
            "cache", "verify",
        )
        assert code == 1
        assert f"{key[:12]}… ERROR: sidecar SHA-256 mismatch" in output
        # The healthy snapshot entry still verifies.
        assert f"verified 1 entry(ies) in {cache.root}: 0 failure(s)" in output
        assert f"verified 1 entry(ies) in {campaign.root}: 1 failure(s)" in output

    def test_verify_flags_campaign_sidecar_with_bad_crc(self, tmp_path):
        campaign, key = seeded_campaign_cache(tmp_path)
        document = json.loads(campaign.path_for(key).read_text())
        del document["blockfile_sha256"]  # leave the CRCs to catch it
        campaign.path_for(key).write_text(json.dumps(document))
        sidecar = campaign.blockfile_path_for(key)
        blob = bytearray(sidecar.read_bytes())
        blob[2 * 64] ^= 0x01
        sidecar.write_bytes(bytes(blob))
        code, output = run_cli(
            "--snapshot-cache", str(tmp_path / "snap"),
            "--campaign-cache", str(campaign.root),
            "cache", "verify",
        )
        assert code == 1
        assert "ICMP columns checksum mismatch" in output
