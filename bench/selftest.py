"""Self-test of the benchmark's checks: a deliberately wrong expected value
must be caught.

    python3 bench/selftest.py

For each workload one small item is run and checked twice: against the
paper's values, which must pass, and against one altered value, which must
be reported.  Then a whole run of a two-row table with one altered value
must count that item as failed and exit non-zero.  Exits 0 when every wrong
value was caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _problems(workload: str, expected: dict, shrink) -> list[str]:
    wl = WORKLOADS[workload](SimpleNamespace(**run.import_program()), 1, expected)
    shrink(wl)
    return [p for item in wl.run_pass().items for p in item.problems]


def _only_row_10(wl):
    wl.TRIALS = {10: 1}


def _first_item(wl):
    wl.items = wl.items[:1]


def item_checks(expected: dict) -> list[str]:
    """Failures of the per-item checks; empty when all behave."""
    failures = []

    def expect(label: str, problems: list[str], caught: bool) -> None:
        if bool(problems) != caught:
            failures.append(f"{label}: problems {problems}, expected {'some' if caught else 'none'}")

    wrong = copy.deepcopy(expected)
    wrong["gamma_5_12"]["polar_by_row"][1]["type"]["pairs"][0][2] = 9  # row 10 has I = 8
    expect("strata_sweep, paper", _problems("strata_sweep", expected, _only_row_10), False)
    expect("strata_sweep, row 10 with I = 9", _problems("strata_sweep", wrong, _only_row_10), True)

    wrong = copy.deepcopy(expected)
    wrong["mult4_g1_table_3_2"][0]["type"]["pairs"][0][2] = 5  # row I.i has I = 4
    expect("mult4_walls, paper", _problems("mult4_walls", expected, _first_item), False)
    expect("mult4_walls, row I.i with I = 5", _problems("mult4_walls", wrong, _first_item), True)

    wl = WORKLOADS["equal_contact"](SimpleNamespace(**run.import_program()), 1, expected)
    _first_item(wl)
    item = wl.run_pass().items[0]
    n, k = wl.items[0][:2]
    payload = json.loads(item.output)
    expect("equal_contact, paper", item.problems, False)
    expect(f"equal_contact, contact {k + 1}", checks.equal_contact_problems(payload, n, k + 1), True)
    return failures


def whole_run(expected: dict) -> list[str]:
    """Failures of a whole run on a two-row Table 3.2 with one wrong row."""
    wrong = copy.deepcopy(expected)
    wrong["mult4_g1_table_3_2"] = wrong["mult4_g1_table_3_2"][:2]
    wrong["mult4_g1_table_3_2"][1]["type"]["branches"] = [[3, 11]]  # row I.i, gcd 1 has <3,10>
    load = checks.load_expected
    checks.load_expected = lambda: wrong
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "mult4_walls", "--seed", "1", "--seconds", "0"])
    finally:
        checks.load_expected = load
    result = json.loads(out.getvalue().splitlines()[-1])
    if code == 0 or result["correct"] or result["failed"] != 1 or result["attempted"] != 2:
        return [f"whole run with a wrong row: exit {code}, result {result}"]
    return []


def main() -> int:
    expected = checks.load_expected()
    failures = item_checks(expected) + whole_run(expected)
    for f in failures:
        print(f"SELFTEST FAILED {f}")
    print("selftest: every wrong expected value was caught" if not failures else "selftest: failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
