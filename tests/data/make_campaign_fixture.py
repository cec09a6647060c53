"""Write the pinned results that the tests compare against:

* `campaign_seed5.json`, the JSON report of the two-system campaign of
  `small_campaign_systems(5)` at seed 5, T = 0.2, h = 2e-3
  (`tests/test_verification.py`);
* `campaign_seed2026.jsonl`, the compact report (`conftest.compact_report`)
  of the acceptance campaign, the default systems at seed 2026, T = 10,
  h = 1e-3 (`tests/test_acceptance.py`);
* `reduce_corpus.json`, `conftest.reduce_results` of each system of
  `conftest.reduce_corpus()`: the type-2 trace P, trace Q, Hankel values and
  barrier stop at half the largest feasible control bound, and the type-1
  Hankel values or the exception that stops them (`tests/test_gramians.py`).

Run from the repository root, after a change that is meant to move these
numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/data/make_campaign_fixture.py

The pins are written under one BLAS thread: a multi-threaded BLAS sums in
another order and moves the last digits (up to 3e-6 relative in the T = 10
report), so the script refuses to run with one.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from bilbt import CampaignConfig, benchmark_campaign, campaign_to_json  # noqa: E402
from bilbt.verification import _blas_threads, build_campaign_systems  # noqa: E402
from conftest import (  # noqa: E402
    compact_report,
    reduce_corpus,
    reduce_results,
    small_campaign_systems,
)

FIXTURE = HERE / "campaign_seed5.json"
ACCEPTANCE_FIXTURE = HERE / "campaign_seed2026.jsonl"
REDUCE_FIXTURE = HERE / "reduce_corpus.json"

if __name__ == "__main__":
    if _blas_threads() != 1:
        sys.exit(f"refusing to write the pins under {_blas_threads()} BLAS threads: "
                 "run with OPENBLAS_NUM_THREADS=1")
    result = benchmark_campaign(CampaignConfig(seed=5, T=0.2, h=2e-3),
                                small_campaign_systems(5))
    FIXTURE.write_text(campaign_to_json(result), encoding="utf-8")
    print(f"wrote {FIXTURE}")
    result = benchmark_campaign(CampaignConfig(seed=2026), build_campaign_systems(2026))
    report = json.loads(campaign_to_json(result))
    ACCEPTANCE_FIXTURE.write_text(compact_report(report), encoding="utf-8")
    print(f"wrote {ACCEPTANCE_FIXTURE}")
    results = {label: reduce_results(sys) for label, sys in reduce_corpus()}
    REDUCE_FIXTURE.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REDUCE_FIXTURE}")
