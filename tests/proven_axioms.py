"""Rank-axiom verdicts that the literature proves for the rules' outcomes,
checked at sizes the oracle cannot reach.

Expanding approvals' outcome satisfies rank-PJR+ (Brill & Peters, EC'23;
Aziz & Lee 2020), and with it rank-PJR and rank-JR; greedy capture's
outcome satisfies rank-JR (Chen, Fain, Lyu & Munagala, ICML'19, with the
source paper).  Each audit must pass and be ``exact``: a pass after an
exhausted node budget proves nothing.

Tier-1 runs the checks at 160 agents (``tests/test_proven_axioms.py``).
For larger instances run this file with the agent counts to check:

    PYTHONPATH=src python tests/proven_axioms.py 640

It prints one line per audit and exits 1 if any verdict is not the proven
one.
"""

import sys
import time

from propclust import (
    expanding_approvals,
    greedy_capture,
    rank_jr_check,
    rank_pjr_check,
    rank_pjr_plus_check,
)
from propclust.cli import parse_instance
from propclust.generate import generate_family

PROVEN = (
    ("ea", expanding_approvals, (rank_jr_check, rank_pjr_plus_check, rank_pjr_check)),
    ("gc", greedy_capture, (rank_jr_check,)),
)


def proven_verdicts(n, family="euclidean", k=5, seed=1):
    """Yield ``(rule tag, notion, report, seconds)`` for every proven
    verdict on ``generate_family(family, n, k, seed)``."""
    inst = parse_instance(generate_family(family, n, k, seed))
    for tag, rule, checks in PROVEN:
        W, _ = rule(inst)
        for check in checks:
            start = time.perf_counter()
            report = check(inst, W)
            yield tag, report.notion, report, time.perf_counter() - start


def holds(report):
    return (report.value, report.status) == ("pass", "exact")


def main(argv):
    failed = 0
    for n in [int(arg) for arg in argv] or [640]:
        for tag, notion, report, seconds in proven_verdicts(n):
            ok = holds(report)
            failed += not ok
            print(
                f"euclidean n={n} {tag} {notion}: {report.value} {report.status} "
                f"in {seconds:.2f} s{'' if ok else '  NOT THE PROVEN VERDICT'}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
