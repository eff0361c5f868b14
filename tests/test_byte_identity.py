"""Byte-identity guard over the small corpus.

Refactors of the rules and auditors must keep every outcome, trace, report,
witness and error message byte-identical.  This test hashes all of them for
``small_corpus`` and compares the hash with a digest recorded before the
shared distance layer replaced the per-module distance tables.  A change
that alters any output on purpose must record the new digest and say why.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from propclust import (
    Instance,
    MetricSpace,
    algorithms,
    audit_rank,
    fixtures,
    pf_min_alpha,
    q_core_min_alpha,
    q_tc_min_alpha,
    tc_min_alpha,
)
from propclust.cli import NUMERIC_NOTIONS, RANK_NOTIONS, main, parse_instance, run_audit
from propclust.generate import instance_to_file
from propclust.instance import Outcome

RECORDED_DIGEST = "88afe9a0f36958cf47847b5a43e4ebe6d6d4990221d4675f9874a38403eed392"


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def corpus_outputs(corpus):
    records = []
    for idx, inst in enumerate(corpus):
        for tag, rule in (("gc", algorithms.greedy_capture), ("ea", algorithms.expanding_approvals)):
            try:
                outcome, trace = rule(inst)
            except ValueError as exc:
                records.append([idx, tag, _error(exc)])
                continue
            records.append([idx, tag, sorted(outcome.centers), outcome.origin, trace.to_json()])
            for notion in NUMERIC_NOTIONS + RANK_NOTIONS:
                try:
                    report = run_audit(inst, outcome, notion, q=2, cap=2).to_json()
                except ValueError as exc:
                    report = _error(exc)
                records.append([idx, tag, notion, report])
    return records


def test_small_corpus_outputs_byte_identical(small_corpus):
    text = json.dumps(corpus_outputs(small_corpus), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_DIGEST


# Recorded when rank-pjr+ stopped charging nodes: its 907 cap_exhausted
# records became the reports of a Caps(10**9) run, and nothing else moved.
# Small node budgets pin where rank-pjr, dprf and uprf run out.
RECORDED_BUDGET_DIGEST = "ff955a43e3f83838d04f557e9f0efa68b332910b6db3c8d4a96fc967465f2d5a"
RANK_CHECKS = (
    audit_rank.rank_jr_check,
    audit_rank.rank_pjr_check,
    audit_rank.rank_pjr_plus_check,
    audit_rank.dprf_check,
    audit_rank.uprf_check,
)


def budget_outputs(corpus):
    records = []
    for idx, inst in enumerate(corpus):
        outcomes = [algorithms.greedy_capture(inst)[0], algorithms.expanding_approvals(inst)[0]]
        for seed in (1, 2):
            rng = random.Random(seed * 1000 + idx)
            size = rng.randint(0, min(inst.k, inst.num_candidates))
            outcomes.append(Outcome(rng.sample(range(inst.num_candidates), size)))
        for o, outcome in enumerate(outcomes):
            for budget in (0, 1, 7, 40):
                caps = audit_rank.Caps(node_budget=budget)
                for check in RANK_CHECKS:
                    args = (inst, outcome)
                    if check not in (audit_rank.rank_jr_check, audit_rank.rank_pjr_plus_check):
                        args += (caps,)
                    records.append([idx, o, budget, check(*args).to_json()])
    return records


def test_small_corpus_rank_budgets_byte_identical(small_corpus):
    text = json.dumps(budget_outputs(small_corpus), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_BUDGET_DIGEST


# Recorded before expanding approvals moved onto the shared threshold sweep
# with integer budgets.  corpus500 reaches 12 agents and 12 candidates with
# float coordinates, past the 7x6 tops of small_corpus.
RECORDED_EA_DIGEST = "20fd802de38287b2749ae6767ebec2966136283bc79d9f9e4281eedc16984bcc"


def farthest_first(ball, dists):
    return sorted(ball, key=lambda i: (-dists[i], i))


def ea_outputs(corpus):
    records = []
    for idx, inst in enumerate(corpus):
        runs = (
            ("ea", lambda: algorithms.expanding_approvals(inst)),
            ("ea-far", lambda: algorithms.expanding_approvals(inst, deduct_order=farthest_first)),
            ("ea-restricted", lambda: algorithms.restricted_solve(inst, "ea")),
        )
        for tag, run in runs:
            try:
                outcome, trace = run()
            except ValueError as exc:
                records.append([idx, tag, _error(exc)])
                continue
            records.append([idx, tag, sorted(outcome.centers), outcome.origin, trace.to_json()])
    return records


def test_corpus500_ea_byte_identical(corpus500):
    text = json.dumps(ea_outputs(corpus500), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_EA_DIGEST


# Recorded before restricted mode and fair greedy capture moved onto the
# instance's one point-to-candidate map.  gc-restricted runs where the
# agents sit on candidates and fgc where they equal them; both record the
# errors elsewhere, and fgc's q = 2 also where it exceeds k.
RECORDED_GC_FGC_DIGEST = "f84e1b4696d86805da3aa818e1c5e04da4815b8a8de57ecce8808bec9f6d717f"


def gc_fgc_outputs(corpus):
    records = []
    for idx, inst in enumerate(corpus):
        runs = [("gc-restricted", lambda: algorithms.restricted_solve(inst, "gc"))]
        runs += [
            (f"fgc-{q}-{seed}", lambda q=q, seed=seed: algorithms.fair_greedy_capture(inst, q, seed))
            for q in (1, 2)
            for seed in (1, 2)
        ]
        for tag, run in runs:
            try:
                outcome, trace = run()
            except ValueError as exc:
                records.append([idx, tag, _error(exc)])
                continue
            records.append([idx, tag, sorted(outcome.centers), outcome.origin, trace.to_json()])
    return records


def test_corpus500_gc_restricted_fgc_byte_identical(corpus500):
    text = json.dumps(gc_fgc_outputs(corpus500), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_GC_FGC_DIGEST


# Recorded before the q-subset scan started pruning by the incumbent.  Each
# q-audit runs at several size caps, so the scan must carry its incumbent
# from one subset size to the next; the random outcomes include |W| < q.
RECORDED_Q_SCAN_DIGEST = "17c8bcaef2d68d698044f95e927769dedb1f096c583aab24ef4dbca02039f3bd"
Q_SCAN_GAMMAS = (1, Fraction(3, 2), 2)


def q_scan_outputs(corpus):
    records = []
    for idx, inst in enumerate(corpus):
        outcomes = []
        for rule in (algorithms.greedy_capture, algorithms.expanding_approvals):
            try:
                outcomes.append(rule(inst)[0])
            except ValueError as exc:
                records.append([idx, rule.__name__, _error(exc)])
        for seed in (1, 2):
            rng = random.Random(seed * 7000 + idx)
            size = rng.randint(0, min(inst.k, inst.num_candidates))
            outcomes.append(Outcome(rng.sample(range(inst.num_candidates), size)))
        for o, outcome in enumerate(outcomes):
            for q in range(1, min(3, inst.k) + 1):
                for cap in (q, q + 1, None):
                    audits = [("qcore", None, q_core_min_alpha, (q, cap))]
                    audits += [("qtc", g, q_tc_min_alpha, (q, g, cap)) for g in Q_SCAN_GAMMAS]
                    for notion, g, audit, args in audits:
                        try:
                            report = audit(inst, outcome, *args).to_json()
                        except ValueError as exc:
                            report = _error(exc)
                        records.append([idx, o, q, cap, notion, str(g), report])
    return records


def test_small_corpus_q_scans_byte_identical(small_corpus):
    text = json.dumps(q_scan_outputs(small_corpus), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_Q_SCAN_DIGEST


# Recorded before pf and tc moved onto the shared deviation scan.  tc runs
# at three scales; the all-open outcome leaves the scan no candidate.
RECORDED_PF_TC_DIGEST = "174d8aba11fae964815d07328dba95d76f36c1edc8fa4ebce256acbb441a678e"


def pf_tc_outputs(corpus):
    records = []
    for idx, inst in enumerate(corpus):
        outcomes = []
        for rule in (algorithms.greedy_capture, algorithms.expanding_approvals):
            try:
                outcomes.append(rule(inst)[0])
            except ValueError as exc:
                records.append([idx, rule.__name__, _error(exc)])
        for seed in (1, 2):
            rng = random.Random(seed * 9000 + idx)
            size = rng.randint(0, min(inst.k, inst.num_candidates))
            outcomes.append(Outcome(rng.sample(range(inst.num_candidates), size)))
        outcomes.append(Outcome(range(inst.num_candidates)))
        for o, outcome in enumerate(outcomes):
            records.append([idx, o, "pf", pf_min_alpha(inst, outcome).to_json()])
            for g in Q_SCAN_GAMMAS:
                records.append([idx, o, "tc", str(g), tc_min_alpha(inst, outcome, g).to_json()])
    return records


def test_small_corpus_pf_tc_byte_identical(small_corpus):
    text = json.dumps(pf_tc_outputs(small_corpus), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_PF_TC_DIGEST


# Recorded from `propclust repro --case all` before the rank scan became the
# only code that charges the node budget.  The paper cases must replay to
# the same bytes in both output formats.
RECORDED_REPRO_DIGESTS = {
    "json": "68a1fa80adbfd6684ad4e5bb7fa69d47d5a72fd00cd2807329da914f5031caf0",
    "csv": "9ae330c4081d7e67122ac05931492fdf06ab9749b8b8ea823bf474cdcb198d6e",
}


@pytest.mark.parametrize("fmt", sorted(RECORDED_REPRO_DIGESTS))
def test_repro_all_byte_identical(fmt, capsys):
    assert main(["repro", "--case", "all", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED_REPRO_DIGESTS[fmt]


def fraction_graphs():
    """Small graphs with ``[num, den]`` edge weights, zero weights among
    them, so that some path sums are Fraction(1)."""
    weights = ([1, 2], [1, 3], [2, 3], [1, 6], [5, 6], 1, 0)
    rng = random.Random(3)
    graphs = []
    for _ in range(12):
        n = rng.randint(3, 7)
        edges = [[rng.randrange(v), v, rng.choice(weights)] for v in range(1, n)]
        edges += [[rng.randrange(v), v, rng.choice(weights)] for v in rng.sample(range(1, n), 2)]
        agents = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
        graphs.append(Instance(MetricSpace.from_graph(n, edges), agents, "all", rng.randint(1, 3)))
    return graphs


def test_fraction_distances_round_trip_through_an_instance_file():
    # a matrix file writes each Fraction as [num, den]; parsing it back must
    # keep every distance's value and every output's bytes, also where a
    # Fraction(1) comes back as the int 1
    unit_fractions = 0
    for inst in [fixtures.near_tie_uprf()[0], *fraction_graphs()]:
        obj = json.loads(json.dumps(instance_to_file(inst)))
        back = parse_instance(obj)
        rows = obj["metric"]["d"]
        assert any(isinstance(x, list) for row in rows for x in row)
        points = range(inst.space.num_points)
        for a in points:
            for b in points:
                d = inst.space.dist(a, b)
                assert back.space.dist(a, b) == d
                unit_fractions += isinstance(d, Fraction) and d == 1
        outputs = [json.dumps(corpus_outputs([i]), sort_keys=True) for i in (inst, back)]
        assert outputs[0] == outputs[1]
    assert unit_fractions
