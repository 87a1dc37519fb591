"""Tests for the supplemental campaign."""

import dataclasses
import datetime as dt

import pytest

from repro.netsim.internet import WorldScale, build_world
from repro.scan import SupplementalCampaign
from repro.scan.campaign import SUPPLEMENTAL_NETWORKS
from tests.cli_env import env_fault_plan
from tests.oracles import reference_dataset_stats


@pytest.fixture(scope="module")
def dataset():
    world = build_world(seed=7, scale=WorldScale.small())
    campaign = SupplementalCampaign(world, fault_plan=env_fault_plan(world.rngs.seed))
    return campaign.run(dt.date(2021, 11, 1), dt.date(2021, 11, 2))


def responsive_addresses(dataset, network):
    """Table 4's "addresses observed" for ``network`` (0 when not targeted)."""
    return {row[0]: row[3] for row in dataset.table4_rows()}.get(network, 0)


class TestCampaignRun:
    def test_all_nine_networks_targeted(self, dataset):
        assert set(dataset.targets_by_network) == set(SUPPLEMENTAL_NETWORKS)

    def test_observations_collected(self, dataset):
        assert dataset.icmp
        assert dataset.rdns

    def test_icmp_stats_schema(self, dataset):
        total, unique = dataset.icmp_stats()
        assert total >= unique > 0

    def test_rdns_stats_schema(self, dataset):
        total, unique_ips, unique_ptrs = dataset.rdns_stats()
        assert total >= unique_ips > 0
        assert unique_ptrs > 0

    def test_stats_match_the_set_reference(self, dataset):
        listed = dataclasses.replace(dataset, icmp=list(dataset.icmp), rdns=list(dataset.rdns))
        expected = reference_dataset_stats(dataset)
        for source in (dataset, listed):
            assert (source.icmp_stats(), source.rdns_stats(), source.table4_rows()) == expected
        assert responsive_addresses(dataset, "No-Such-Network") == 0

    def test_ping_blocking_enterprises_invisible(self, dataset):
        assert responsive_addresses(dataset, "Enterprise-B") == 0
        assert responsive_addresses(dataset, "Enterprise-C") == 0

    def test_academic_b_exactly_two_hosts(self, dataset):
        assert responsive_addresses(dataset, "Academic-B") == 2

    def test_academic_b_hosts_have_no_ptr(self, dataset):
        b_addresses = {o.address for o in dataset.icmp if o.network == "Academic-B"}
        b_hostnames = {
            o.hostname for o in dataset.rdns if o.network == "Academic-B" and o.ok
        }
        assert len(b_addresses) == 2
        assert b_hostnames == set()

    def test_table4_rows_cover_all_networks(self, dataset):
        rows = dataset.table4_rows()
        assert len(rows) == 9
        by_name = {row[0]: row for row in rows}
        assert by_name["Enterprise-B"][4] == 0.0
        assert by_name["Academic-A"][4] > by_name["ISP-B"][4]

    def test_error_rows_ordered_by_day(self, dataset):
        rows = dataset.error_rows()
        days = [row[0] for row in rows]
        assert days == sorted(days)
        assert all(row[1] >= row[2] + row[3] + row[4] for row in rows)

    def test_invalid_period_rejected(self):
        world = build_world(seed=7, scale=WorldScale.small())
        with pytest.raises(ValueError):
            SupplementalCampaign(world, fault_plan=env_fault_plan(world.rngs.seed)).run(
                dt.date(2021, 11, 2), dt.date(2021, 11, 1)
            )


class TestHalfOpenWindow:
    def test_empty_window_rejected(self):
        # start == end is an empty half-open window, not a one-day run.
        world = build_world(seed=7, scale=WorldScale.small())
        with pytest.raises(ValueError, match=r"half-open"):
            SupplementalCampaign(world, fault_plan=env_fault_plan(world.rngs.seed)).run(
                dt.date(2021, 11, 1), dt.date(2021, 11, 1)
            )

    def test_end_day_not_measured(self, dataset):
        # run(Nov 1, Nov 2) measures Nov 1 only: every observation
        # timestamp falls before midnight Nov 2.
        from repro.netsim.simtime import from_date

        end_ts = from_date(dt.date(2021, 11, 2))
        assert dataset.icmp and dataset.rdns
        assert all(obs.at < end_ts for obs in dataset.icmp)
        assert all(obs.at < end_ts for obs in dataset.rdns)
        assert any(obs.at >= from_date(dt.date(2021, 11, 1)) for obs in dataset.icmp)

    def test_two_day_window_measures_both_days(self):
        world = build_world(seed=7, scale=WorldScale.small())
        campaign = SupplementalCampaign(
            world, networks=["Academic-C"], fault_plan=env_fault_plan(world.rngs.seed)
        )
        dataset = campaign.run(dt.date(2021, 11, 1), dt.date(2021, 11, 3))
        days = {row[0] for row in dataset.error_rows()}
        assert days == {dt.date(2021, 11, 1), dt.date(2021, 11, 2)}


class TestCampaignManifestMetrics:
    """The scan instruments' export_metrics feed the run manifest."""

    def test_rdns_metrics_land_in_manifest(self):
        from repro.obs import Observability

        world = build_world(seed=7, scale=WorldScale.small())
        obs = Observability()
        campaign = SupplementalCampaign(world, obs=obs, fault_plan=None)
        result = campaign.run(dt.date(2021, 11, 1), dt.date(2021, 11, 2))
        counters = obs.manifest().metrics["counters"]
        for key in (
            "rdns_lookups_total",
            "rdns_lookups_suppressed_total",
            "rdns_attempts_total",
            "rdns_timeouts_total",
            "rdns_rcode_total",
            "rdns_ratelimit_acquired_total",
            "rdns_ratelimit_denied_total",
        ):
            assert key in counters, f"{key} missing from campaign manifest"
        # Every performed lookup yields exactly one observation, so the
        # manifest counter must equal the dataset's rDNS row count; the
        # wire attempts include retries and can only be larger.
        assert counters["rdns_lookups_total"]["value"] == len(result.rdns)
        assert (
            counters["rdns_attempts_total"]["value"]
            >= counters["rdns_lookups_total"]["value"]
        )


class TestRerunsArePure:
    """A campaign leaves the world's zones and failure draws as it found them."""

    WINDOW = (dt.date(2021, 11, 1), dt.date(2021, 11, 2))

    def _run(self, world):
        campaign = SupplementalCampaign(world, networks=["Academic-A"], fault_plan=None)
        return campaign.run(*self.WINDOW)

    def test_second_run_matches_a_fresh_world(self):
        from tests.cache_bytes import dataset_bytes

        world = build_world(seed=3, scale=WorldScale.small())
        first = dataset_bytes(self._run(world))
        second = dataset_bytes(self._run(world))
        fresh = dataset_bytes(self._run(build_world(seed=3, scale=WorldScale.small())))
        assert first == second == fresh

    def test_zones_are_restored(self):
        world = build_world(seed=3, scale=WorldScale.small())
        zones = world.supplemental["Academic-A"].zones()
        before = [(len(zone), zone.serial, len(zone.journal)) for zone in zones]
        self._run(world)
        assert [(len(zone), zone.serial, len(zone.journal)) for zone in zones] == before
