"""Shows that the benchmark's output checks accept right answers and reject wrong ones.

    python3 bench/selftest.py      # from the root of a checkout; exit 0 when every case holds

Each case hands a check one output monodual really produced, which it must
accept, and the same output with one deliberate fault, which it must reject.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import monodual as md  # noqa: E402
from monodual import catalog  # noqa: E402

import oracle  # noqa: E402
import workloads as wl  # noqa: E402


def case_count_77():
    report = md.enumerate_commutative_monoids(5)
    wrong = dataclasses.replace(report, count=77, representatives=report.representatives[:77])
    return wl.check_commutative(5, report), wl.check_commutative(5, wrong)


def case_hom_set_minus_one_map():
    s, t = catalog.monoid("M6"), catalog.monoid("M22")
    adj = md.hom_set(s, t)
    wrong = dataclasses.replace(adj, base=adj.base[:-1])
    homs = oracle.HomSets()
    return wl.check_hom_set(adj, s.rows, t.rows, homs), wl.check_hom_set(wrong, s.rows, t.rows, homs)


def _changed_entry(matrix, i, j, size):
    """The matrix with entry (i, j) changed at one argument."""
    rows = [list(row) for row in matrix]
    entry = list(rows[i][j])
    entry[1] = (entry[1] + 1) % size
    rows[i][j] = tuple(entry)
    return tuple(tuple(row) for row in rows)


def case_dual_map_one_entry(sites):
    psi, emb = wl.local_duality("psi5")
    model = wl.spread_cycle_model(psi.s, sites)
    lifted = md.lift_duality(psi, sites, real_embedding=emb)
    m = model.entries[1].site_map
    mhat = md.dual_map(lifted, m)
    space = wl.ProductSpace(psi, sites, np.random.default_rng(7))
    wrong = _changed_entry(mhat.matrix, 0, sites - 1, psi.r.order)
    return space.dual_holds(m.matrix, mhat.matrix), space.dual_holds(m.matrix, wrong)


def case_index_table_one_entry():
    psi, _ = wl.local_duality("psi5")
    m = wl.spread_cycle_model(psi.s, 4).entries[0].site_map
    table = m.index_table()
    wrong = list(table)
    wrong[5] = (wrong[5] + 1) % len(wrong)
    return wl.check_index_table(table, m.matrix, psi.s, 4), wl.check_index_table(wrong, m.matrix, psi.s, 4)


def case_reproduce_one_check_failed():
    results = [call() for name, call in wl.reproduce_calls() if not name.startswith(("pathwise", "expectation"))]
    checks = [r.to_dict() for r in results] + [
        {"name": f"stand-in-{i}", "passed": True, "expected": 1, "actual": 1} for i in range(4)
    ]
    good = json.dumps({"passed": True, "checks": checks})
    checks[0] = dict(checks[0], passed=False, actual="77")
    bad = json.dumps({"passed": False, "checks": checks})
    right, wrong = wl.Tally(), wl.Tally()
    wl.verify_reproduce_cli(0, good, right)
    wl.verify_reproduce_cli(4, bad, wrong)
    return right.failed == 0, wrong.failed == 0


CASES = {
    "commutative monoid count of 77 at order 5": case_count_77,
    "hom set with one map removed": case_hom_set_minus_one_map,
    "dual map with one entry changed, all pairs (k=4)": lambda: case_dual_map_one_entry(4),
    "dual map with one entry changed, seeded pairs (k=5)": lambda: case_dual_map_one_entry(5),
    "index table with one entry changed": case_index_table_one_entry,
    "reproduce manifest with one failed check": case_reproduce_one_check_failed,
}


def main() -> int:
    bad = 0
    for name, case in CASES.items():
        accepts_right, accepts_wrong = case()
        ok = accepts_right and not accepts_wrong
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: right answer "
              f"{'accepted' if accepts_right else 'REJECTED'}, wrong answer "
              f"{'ACCEPTED' if accepts_wrong else 'rejected'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
