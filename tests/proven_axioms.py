"""Rank-axiom verdicts that the literature proves for the rules' outcomes,
checked at sizes the oracle cannot reach.

Expanding approvals' outcome satisfies rank-PJR+ (Brill & Peters, EC'23;
Aziz & Lee 2020), and with it rank-PJR and rank-JR; greedy capture's
outcome satisfies rank-JR (Chen, Fain, Lyu & Munagala, ICML'19, with the
source paper).  Each audit must pass and be ``exact``: a pass after an
exhausted node budget proves nothing.  Each check runs twice: in sequence
on one instance, where it may read a verdict an earlier check kept in the
outcome slot, and alone on a fresh instance, where it runs its own scan.

Tier-1 runs the checks at 160 agents (``tests/test_proven_axioms.py``),
on the float ``euclidean`` family and on the exact, tied ``graph`` family.
For larger instances run this file with the agent counts to check; it
checks both families at each count:

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
FAMILIES = ("euclidean", "graph")


def proven_verdicts(n, family="euclidean", k=5, seed=1):
    """Yield ``(rule tag, notion, reports, seconds)`` for every proven
    verdict on ``generate_family(family, n, k, seed)``: the check's report
    in sequence on one instance and its report alone on a fresh one, and
    the seconds of the lone call."""
    data = generate_family(family, n, k, seed)
    inst = parse_instance(data)
    for tag, rule, checks in PROVEN:
        W, _ = rule(inst)
        for check in checks:
            report = check(inst, W)
            fresh = parse_instance(data)
            start = time.perf_counter()
            alone = check(fresh, W)
            yield tag, report.notion, (report, alone), time.perf_counter() - start


def holds(report):
    return (report.value, report.status) == ("pass", "exact")


def main(argv):
    failed = 0
    for n in [int(arg) for arg in argv] or [640]:
        for family in FAMILIES:
            for tag, notion, (report, alone), seconds in proven_verdicts(n, family):
                ok = holds(report) and holds(alone)
                failed += not ok
                print(
                    f"{family} n={n} {tag} {notion}: {report.value} {report.status}, "
                    f"alone {alone.value} {alone.status} in {seconds:.2f} s"
                    f"{'' if ok else '  NOT THE PROVEN VERDICT'}"
                )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
