"""Golden criteria report: ``run_criteria_protocol`` pinned by a committed
fixture.

Seeds 0 and 3 run all six observables on a four-point phi grid at 200 shots
under acceptance-criterion-9 noise, so the report covers every per-observable
field, the per-seed averages and their mean across seeds. After a JSON round
trip the report must equal the fixture exactly.

The fixture was written once, by ``python tests/test_golden_criteria.py --write``.
A mismatch is a change of behaviour to explain, not a reason to rewrite it.
"""

import json
import os
import sys

from qndsim.harness import run_criteria_protocol
from test_golden import CRITERION_9_NOISE

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_criteria.json")


def report() -> dict:
    """The criteria report as it reads back from JSON."""
    got = run_criteria_protocol([0, 3], phi_count=4, shots=200, noise=CRITERION_9_NOISE)
    return json.loads(json.dumps(got))


def test_criteria_report_matches_golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    got = report()
    assert got == want
    assert json.dumps(got) == json.dumps(want), "same report, keys in another order"


def _write() -> None:
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(report(), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_criteria.py --write")
    _write()
