"""Unit tests for the figure builders (small configurations)."""

import pytest

from repro.analysis import artifacts

SMALL = artifacts.ArtifactConfig(burst_size=3, seed=2, benchmarks=("mapreduce",))


@pytest.fixture(scope="module")
def small_campaign():
    return artifacts.execute_plan(artifacts.plan_artifacts(["figure7"], SMALL), workers=1)


def build(name, campaign):
    return artifacts.get_artifact(name).build(campaign, SMALL)


class TestCampaignReuse:
    def test_figure7_and_8_share_campaign(self, small_campaign):
        f7 = build("figure7", small_campaign)
        f8 = build("figure8", small_campaign)
        assert set(f7["mapreduce"]) == {"aws", "gcp", "azure"}
        for platform in f7["mapreduce"]:
            assert f7["mapreduce"][platform]["median_runtime_s"] == pytest.approx(
                f8["mapreduce"][platform]["median_runtime_s"]
            )
            assert (
                f8["mapreduce"][platform]["median_critical_path_s"]
                <= f7["mapreduce"][platform]["median_runtime_s"]
            )

    def test_figure11_profiles_from_campaign(self, small_campaign):
        profiles = build("figure11", small_campaign)
        assert set(profiles["mapreduce"]) == {"aws", "gcp", "azure"}
        for series in profiles["mapreduce"].values():
            assert all(point["containers"] >= 0 for point in series)

    def test_figure15_pricing_from_campaign(self, small_campaign):
        pricing = build("figure15", small_campaign)
        for platform, values in pricing["mapreduce"].items():
            assert values["total_usd"] > 0
            assert values["total_usd"] == pytest.approx(
                values["function_usd"] + values["orchestration_usd"]
                + values["storage_usd"] + values["nosql_usd"]
            )


class TestStandaloneFigures:
    def test_figure9a_series_structure(self, build_single_artifact):
        series = build_single_artifact(
            "figure9a", seed=1, download_sizes=(1024,), num_functions=2,
            burst_size=2, platforms=("aws",),
        )
        assert list(series) == ["aws"]
        assert series["aws"][0]["download_bytes"] == 1024.0
        assert series["aws"][0]["median_overhead_s"] >= 0

    def test_figure10_cells(self, build_single_artifact):
        heatmaps = build_single_artifact(
            "figure10", seed=1, parallelism=(2,), durations_s=(1.0,), burst_size=2,
            platforms=("aws",),
        )
        cell = heatmaps["aws"]["N=2,T=1"]
        assert cell["relative_overhead"] >= 1.0
        assert cell["median_runtime_s"] >= 1.0

    def test_figure13_structure(self, build_single_artifact):
        data = build_single_artifact("figure13", seed=1, memory_configurations=(256,),
                                     events=200, platforms=("aws",))
        assert data["suspension"]["aws"][0]["memory_mb"] == 256.0
        assert "mapreduce" in data["normalized_critical_path"]

    def test_figure16_era_keys(self, build_single_artifact):
        data = build_single_artifact("figure16", seed=1, benchmarks=("mapreduce",),
                                     burst_size=2, platforms=("aws",))
        assert set(data["mapreduce"]["aws"]) == {"2022", "2024"}
