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

With `--check` the script writes nothing: it rebuilds the three pins in
memory, prints the first fields in which each differs from its file, and
exits 1 on any difference, so a change that is meant to leave the numbers
alone can show that they are byte-identical:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/data/make_campaign_fixture.py --check

The pins are built under one BLAS thread: a multi-threaded BLAS sums in
another order and moves the last digits (up to 3e-6 relative in the T = 10
report), so the script refuses to run with one, also with `--check`.
"""

import argparse
import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from bilbt import CampaignConfig, benchmark_campaign, campaign_to_json  # noqa: E402
from bilbt.verification import _blas_threads, build_campaign_systems  # noqa: E402
from conftest import (  # noqa: E402
    compact_report,
    reduce_corpus,
    reduce_results,
    report_differences,
    small_campaign_systems,
)

FIXTURE = HERE / "campaign_seed5.json"
ACCEPTANCE_FIXTURE = HERE / "campaign_seed2026.jsonl"
REDUCE_FIXTURE = HERE / "reduce_corpus.json"
# differing fields printed per pin by --check
SHOWN_DIFFERENCES = 10


def pins():
    """(path, text) of each of the three pins, built afresh."""
    result = benchmark_campaign(CampaignConfig(seed=5, T=0.2, h=2e-3),
                                small_campaign_systems(5))
    yield FIXTURE, campaign_to_json(result)
    result = benchmark_campaign(CampaignConfig(seed=2026), build_campaign_systems(2026))
    yield ACCEPTANCE_FIXTURE, compact_report(json.loads(campaign_to_json(result)))
    results = {label: reduce_results(sys) for label, sys in reduce_corpus()}
    yield REDUCE_FIXTURE, json.dumps(results, indent=1) + "\n"


def _parsed(path, text):
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def check(path, text):
    """True if `text` is the bytes of the pin at `path`; else print where
    they differ and return False."""
    old = path.read_bytes()
    if old == text.encode("utf-8"):
        print(f"unchanged {path}")
        return True
    print(f"CHANGED {path}")
    differences = report_differences(_parsed(path, old.decode("utf-8")), _parsed(path, text), 0)
    for line in islice(differences, SHOWN_DIFFERENCES):
        print(f"  {line}")
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write, or with --check compare, the pins.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any pin would change")
    args = parser.parse_args(argv)
    if _blas_threads() != 1:
        sys.exit(f"refusing to build the pins under {_blas_threads()} BLAS threads: "
                 "run with OPENBLAS_NUM_THREADS=1")
    same = True
    for path, text in pins():
        if args.check:
            same = check(path, text) and same
        else:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
