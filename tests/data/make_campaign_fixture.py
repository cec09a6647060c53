"""Write the pinned campaign report that `tests/test_verification.py` compares
against: the JSON report of the two-system campaign of `small_campaign_systems(5)`
at seed 5, T = 0.2, h = 2e-3.

Run from the repository root, after a change that is meant to move the
campaign's numbers:

    PYTHONPATH=src python tests/data/make_campaign_fixture.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from bilbt import CampaignConfig, benchmark_campaign, campaign_to_json  # noqa: E402
from conftest import small_campaign_systems  # noqa: E402

FIXTURE = HERE / "campaign_seed5.json"

if __name__ == "__main__":
    result = benchmark_campaign(CampaignConfig(seed=5, T=0.2, h=2e-3),
                                small_campaign_systems(5))
    FIXTURE.write_text(campaign_to_json(result), encoding="utf-8")
    print(f"wrote {FIXTURE}")
