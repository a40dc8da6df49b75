"""Self-tests of the checks: each check must accept a right answer and reject a
deliberately wrong one.  ``run.py`` runs them before every measurement; run
them alone with ``python3 perfbench/selftest.py`` from the checkout root.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks


def _cases():
    """(name, check on a right output, check on a wrong output)."""
    # Nearest-first on left {10, 30}, right {12, 29}, W = 20 is (10,12), (30,29).
    tl, tr = np.array([10, 30]), np.array([12, 29])
    yield ("matching", checks.certify_matching(tl, tr, [0, 1], [0, 1], 20),
           checks.certify_matching(tl, tr, [0, 1], [1, 0], 20))
    # One left event per chunk.  Nearest-first on left {0, 100, 130}, right
    # {1, 101, 129}, W = 40 pairs each event with the right one next to it;
    # dropping the last pair leaves the edge (130, 129) open, and only the
    # last chunk holds it.
    tl, tr = np.array([0, 100, 130]), np.array([1, 101, 129])
    yield ("matching in chunks", checks.certify_matching(tl, tr, [0, 1, 2], [0, 1, 2], 40, chunk_edges=1),
           checks.certify_matching(tl, tr, [0, 1], [0, 1], 40, chunk_edges=1))

    table = checks.pair_tally(["a", "a", "c"], ["b", "b", "d"], [1, -1, 1], [1, -1, -1])
    off = {k: dict(v) for k, v in table.items()}
    off["a;b"]["pp"] += 1
    yield "tally", checks.check_tally(table, table), checks.check_tally(off, table)

    yield ("sweep row", checks.check_sweep_row(100, 7, 0.5, 7, 0.5),
           checks.check_sweep_row(100, 8, 0.5, 7, 0.5))

    yield "digest", checks.check_same("bytes", b"abc", b"abc"), checks.check_same("bytes", b"abd", b"abc")

    yield "status", checks.check_status("feasible", "feasible"), checks.check_status("infeasible", "feasible")

    from eprblab.feasibility import marginalize

    weights = {k: Fraction(1, 4) for k in [(1, 1), (1, -1), (-1, 1), (-1, -1)]}
    tables = checks.marginals(weights, 1, "equal")
    right = {"settings": ["a"], "witness": {"+;+": "1/4", "+;-": "1/4", "-;+": "1/4", "-;-": "1/4"}}
    wrong = {"settings": ["a"], "witness": {"+;+": "1/2", "-;-": "1/2"}}
    yield ("witness", checks.check_witness(right, tables, False, "equal", marginalize),
           checks.check_witness(wrong, tables, False, "equal", marginalize))

    # Identified one-setting domains give sigma = tau, so P(+,-) = 1 cannot be
    # reproduced; y = -1 on the a;a:pp row and +1 on a;a:pm separates it.
    tables = {"a;a": {"pp": Fraction(0), "pm": Fraction(1), "mp": Fraction(0), "mm": Fraction(0)}}
    cert = {"a;a:pp": "-1", "a;a:pm": "1", "a;a:mp": "-1", "a;a:mm": "-1", "normalization": "0"}
    flipped = dict(cert, **{"a;a:pp": "1"})
    yield ("certificate", checks.check_certificate({"settings": ["a"], "certificate": cert}, tables, True, "equal"),
           checks.check_certificate({"settings": ["a"], "certificate": flipped}, tables, True, "equal"))

    count = checks.shared_identified_classes(3)
    good = {"enumerated_count": count, "closed_form": 16, "agrees": count == 16}
    yield ("enumerate", checks.check_enumerate(good, 3),
           checks.check_enumerate(dict(good, enumerated_count=good["enumerated_count"] + 1), 3))


def run() -> list[str]:
    """Names of the checks that accepted a wrong output or rejected a right one."""
    failures = []
    for name, on_right, on_wrong in _cases():
        if on_right is not None:
            failures.append(f"{name}: rejected a right output ({on_right})")
        if on_wrong is None:
            failures.append(f"{name}: accepted a wrong output")
    return failures


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    problems = run()
    for line in problems:
        print(line)
    print("self-tests:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
