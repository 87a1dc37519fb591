"""Regression tests: parallel and cached campaigns match serial exactly."""

import datetime as dt

import pytest

from repro.core.grouping import GroupBuilder
from repro.core.timing import lingering_analysis
from repro.netsim.internet import WorldScale, build_world
from repro.scan.cache import CampaignCache
from repro.scan.campaign import SupplementalCampaign, SupplementalDataset
from repro.scan.campaign_parallel import effective_campaign_workers, run_networks
from repro.scan.reactive import TABLE2_SCHEDULE, BackoffSchedule
from repro.scan.storage import IcmpColumns, RdnsColumns
from tests.cache_bytes import dataset_bytes
from tests.cli_env import env_fault_plan

START = dt.date(2021, 11, 1)
END = dt.date(2021, 11, 3)


@pytest.fixture(scope="module")
def world():
    return build_world(seed=11, scale=WorldScale.small())


@pytest.fixture(scope="module")
def serial_dataset(world):
    return SupplementalCampaign(world, fault_plan=env_fault_plan(11)).run(START, END)


def assert_datasets_identical(left: SupplementalDataset, right: SupplementalDataset):
    """Bit-identical: every observation, in the same order."""
    assert left.start == right.start and left.end == right.end
    assert len(left.icmp) == len(right.icmp)
    assert len(left.rdns) == len(right.rdns)
    assert list(left.icmp) == list(right.icmp)
    assert list(left.rdns) == list(right.rdns)
    assert left.targets_by_network == right.targets_by_network
    assert left.network_types == right.network_types
    assert left.target_sizes == right.target_sizes
    # Downstream analyses agree too.
    assert left.icmp_stats() == right.icmp_stats()
    assert left.rdns_stats() == right.rdns_stats()
    assert left.table4_rows() == right.table4_rows()
    assert left.error_rows() == right.error_rows()
    left_groups = GroupBuilder().build(left)
    right_groups = GroupBuilder().build(right)
    assert len(left_groups) == len(right_groups)
    left_lingering = lingering_analysis(left_groups)
    right_lingering = lingering_analysis(right_groups)
    assert left_lingering.count == right_lingering.count
    assert left_lingering.histogram() == right_lingering.histogram()


class TestParallelEquivalence:
    def test_two_workers_bit_identical_to_serial(self, serial_dataset):
        # A fresh world: no shared state with the serial fixture.
        world = build_world(seed=11, scale=WorldScale.small())
        parallel = SupplementalCampaign(world, fault_plan=env_fault_plan(11)).run(
            START, END, workers=2
        )
        assert_datasets_identical(serial_dataset, parallel)
        assert dataset_bytes(parallel) == dataset_bytes(serial_dataset)

    def test_pool_path_bit_identical_to_serial(self, serial_dataset):
        # Drive the process pool directly so the pool code runs even on
        # single-core hosts (where run() would fall back to serial).
        world = build_world(seed=11, scale=WorldScale.small())
        campaign = SupplementalCampaign(world, fault_plan=env_fault_plan(11))
        results = run_networks(campaign, START, END, workers=2)
        assert [result.network for result in results] == campaign.network_names
        icmp = IcmpColumns.merged([result.icmp for result in results])
        rdns = RdnsColumns.merged([result.rdns for result in results])
        assert list(icmp) == list(serial_dataset.icmp)
        assert list(rdns) == list(serial_dataset.rdns)

    def test_metrics_report_effective_workers(self, serial_dataset):
        world = build_world(seed=11, scale=WorldScale.small())
        campaign = SupplementalCampaign(world, fault_plan=env_fault_plan(11))
        campaign.run(START, END, workers=4)
        metrics = campaign.last_metrics
        assert metrics.workers == 4
        assert metrics.effective_workers == effective_campaign_workers(4, 9)
        assert metrics.networks == 9
        assert metrics.observations > 0
        assert not metrics.cache_hit

    def test_columnar_streams(self, serial_dataset):
        assert isinstance(serial_dataset.icmp, IcmpColumns)
        assert isinstance(serial_dataset.rdns, RdnsColumns)
        # Sequence protocol: indexing, slicing and iteration agree.
        assert serial_dataset.icmp[0] == list(serial_dataset.icmp)[0]
        assert serial_dataset.icmp[:3] == list(serial_dataset.icmp)[:3]


class TestEffectiveWorkers:
    def test_serial_requests_stay_serial(self):
        assert effective_campaign_workers(1, 9) == 1
        assert effective_campaign_workers(0, 9) == 1

    def test_single_network_never_pools(self):
        assert effective_campaign_workers(8, 1) == 1

    def test_capped_by_networks(self):
        assert effective_campaign_workers(64, 9) <= 9


class TestCampaignCache:
    def test_warm_cache_bit_identical(self, serial_dataset, tmp_path):
        cache = CampaignCache(tmp_path)
        world = build_world(seed=11, scale=WorldScale.small())
        campaign = SupplementalCampaign(world, fault_plan=env_fault_plan(11))
        cold = campaign.run(START, END, cache=cache)
        assert campaign.last_metrics.cache_stored
        assert not campaign.last_metrics.cache_hit
        assert_datasets_identical(serial_dataset, cold)

        warm = campaign.run(START, END, cache=cache)
        assert campaign.last_metrics.cache_hit
        assert_datasets_identical(serial_dataset, warm)
        assert dataset_bytes(warm) == dataset_bytes(cold) == dataset_bytes(serial_dataset)

    def test_payload_round_trip(self, serial_dataset, tmp_path):
        cache = CampaignCache(tmp_path)
        cache.store("k", serial_dataset.to_payload(), serial_dataset.encode_blockfile())
        rebuilt = SupplementalDataset.from_payload(cache.load("k"))
        assert_datasets_identical(serial_dataset, rebuilt)
        assert dataset_bytes(rebuilt) == dataset_bytes(serial_dataset)

    def test_different_seed_misses(self, tmp_path):
        cache = CampaignCache(tmp_path)
        one = SupplementalCampaign(
            build_world(seed=11, scale=WorldScale.small()), fault_plan=env_fault_plan(11)
        )
        two = SupplementalCampaign(
            build_world(seed=12, scale=WorldScale.small()), fault_plan=env_fault_plan(12)
        )
        assert one.cache_key(cache, START, END) != two.cache_key(cache, START, END)

    def test_different_schedule_misses(self, tmp_path):
        cache = CampaignCache(tmp_path)
        world = build_world(seed=11, scale=WorldScale.small())
        default = SupplementalCampaign(world, fault_plan=env_fault_plan(11))
        tweaked = SupplementalCampaign(
            world,
            fault_plan=env_fault_plan(11),
            schedule=BackoffSchedule(
                steps=TABLE2_SCHEDULE.steps,
                tail_interval=TABLE2_SCHEDULE.tail_interval * 2,
            ),
        )
        assert default.cache_key(cache, START, END) != tweaked.cache_key(cache, START, END)

    def test_different_window_misses(self, tmp_path):
        cache = CampaignCache(tmp_path)
        campaign = SupplementalCampaign(
            build_world(seed=11, scale=WorldScale.small()), fault_plan=env_fault_plan(11)
        )
        assert campaign.cache_key(cache, START, END) != campaign.cache_key(
            cache, START, END + dt.timedelta(days=1)
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        campaign = SupplementalCampaign(
            build_world(seed=11, scale=WorldScale.small()), fault_plan=env_fault_plan(11)
        )
        dataset = campaign.run(START, END, cache=cache)
        key = campaign.last_metrics.cache_key
        cache.path_for(key).write_text("{truncated", encoding="utf-8")
        again = campaign.run(START, END, cache=cache)
        assert not campaign.last_metrics.cache_hit
        assert_datasets_identical(dataset, again)
