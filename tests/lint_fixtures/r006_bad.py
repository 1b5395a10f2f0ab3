"""R006 positive fixture: internal call sites feeding deprecated kwargs back."""

from repro.faas import CampaignSpec


def legacy_campaign():
    return CampaignSpec(benchmarks=("ml",), mode="burst", burst_size=30)
