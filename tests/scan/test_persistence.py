"""Tests for dataset persistence."""

import datetime as dt

import pytest

from repro.netsim.internet import WorldScale, build_world
from repro.scan import SupplementalCampaign
from repro.scan.persistence import load_dataset, save_dataset
from tests.cli_env import env_fault_plan


@pytest.fixture(scope="module")
def dataset():
    world = build_world(seed=13, scale=WorldScale.small())
    return SupplementalCampaign(
        world, networks=["Academic-C", "ISP-A"], fault_plan=env_fault_plan(world.rngs.seed)
    ).run(
        dt.date(2021, 11, 1), dt.date(2021, 11, 2)
    )


class TestSaveLoadRoundtrip:
    def test_roundtrip_preserves_everything(self, dataset, tmp_path):
        directory = save_dataset(dataset, tmp_path / "campaign")
        loaded = load_dataset(directory)
        assert loaded.start == dataset.start
        assert loaded.end == dataset.end
        assert loaded.icmp == dataset.icmp
        assert loaded.rdns == dataset.rdns
        assert loaded.targets_by_network == dataset.targets_by_network
        assert loaded.network_types == dataset.network_types
        assert loaded.target_sizes == dataset.target_sizes

    def test_analyses_work_on_loaded_dataset(self, dataset, tmp_path):
        from repro.core import GroupBuilder

        directory = save_dataset(dataset, tmp_path / "campaign")
        loaded = load_dataset(directory)
        builder = GroupBuilder()
        assert builder.funnel(builder.build(loaded)).all_groups == builder.funnel(
            builder.build(dataset)
        ).all_groups

    def test_expected_files_written(self, dataset, tmp_path):
        directory = save_dataset(dataset, tmp_path / "campaign")
        assert (directory / "dataset.json").exists()
        assert (directory / "icmp.csv").exists()
        assert (directory / "rdns.csv").exists()

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_version_check(self, dataset, tmp_path):
        directory = save_dataset(dataset, tmp_path / "campaign")
        meta = directory / "dataset.json"
        meta.write_text(meta.read_text().replace('"format_version": 1', '"format_version": 99'))
        with pytest.raises(ValueError):
            load_dataset(directory)
