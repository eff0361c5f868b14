"""Acceptance suite: one test per criterion, each printing a summary line.

The shared 500-instance corpus comes from conftest.  Tolerance for all
bound checks is 1e-9; fixture regressions on integer data are exact.

The recorded 3-core constant of the two-cluster fixture (10/3) is the
factor its recorded deviation certifies, a lower bound on the exact
3-core value (13/3): see test_criterion_1_qcore_recorded_constant below
and the notes in fixtures.repro_cases.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from propclust import (
    Instance,
    Outcome,
    dprf_check,
    expanding_approvals,
    fair_greedy_capture,
    greedy_capture,
    if_min_beta,
    pf_min_alpha,
    q_core_min_alpha,
    q_if_min_beta,
    q_tc_min_alpha,
    rank_jr_check,
    rank_pjr_check,
    rank_pjr_plus_check,
    restricted_solve,
    tc_min_alpha,
    uprf_check,
)
from propclust import fixtures
from propclust import oracle as orc
from propclust.audit_multi import q_group_min_ratio
from propclust.audit_single import group_sum_ratio
from propclust.fixtures import outcome_of
from propclust.generate import random_instance
from propclust.reports import EXACT

TAU = 1e-9
GAMMAS = (Fraction(3, 2), Fraction(2), Fraction(4))


def _gamma_float(g):
    return float(g)


def test_criterion_1_paper_regression():
    t0 = time.time()
    inst, L = fixtures.fig2a(5)
    w5 = outcome_of(L, ("1", "2", "3", "6", "9"))
    assert pf_min_alpha(inst, w5).value == 1
    # the recorded 3-of-C' deviation ({5..10} to {6,9,10}) certifies 10/3
    right = [L[str(i)] for i in range(5, 11)]
    assert q_group_min_ratio(inst, w5, 3, right, [L[x] for x in ("6", "9", "10")]) == Fraction(10, 3)

    inst4, L4 = fixtures.fig2a(4)
    w4 = outcome_of(L4, ("1", "2", "6", "7"))
    rep = if_min_beta(inst4, w4)
    assert rep.value == 2 and rep.witness.agents == (L4["8"],)
    rep = tc_min_alpha(inst4, w4, 1)
    assert rep.value >= 2
    assert group_sum_ratio(inst4, w4, [L4[x] for x in ("8", "9", "10")], L4["9"]) == 2

    instb, Lb = fixtures.fig2b(5)
    wb = outcome_of(Lb, ("1", "2", "3", "6", "9"))
    assert not dprf_check(instb, wb).passed
    assert uprf_check(instb, wb).passed

    inst3a, L3a = fixtures.fig3a(4)
    w3a = outcome_of(L3a, ("1", "2", "3", "6"))
    assert rank_jr_check(inst3a, w3a).passed
    assert not rank_pjr_check(inst3a, w3a).passed

    inst3b, L3b = fixtures.fig3b(4)
    w3b = outcome_of(L3b, ("1", "2", "3", "9"))
    assert rank_pjr_check(inst3b, w3b).passed
    repb = rank_pjr_plus_check(inst3b, w3b)
    assert not repb.passed
    assert repb.witness.threshold_y == 3 and repb.witness.witness_candidates == (L3b["6"],)

    instp, Lp = fixtures.path_uprf()
    wp = outcome_of(Lp, ("c",))
    assert uprf_check(instp, wp).passed
    assert not rank_jr_check(instp, wp).passed

    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE criterion 1 (paper-example regression): PASS in {elapsed:.2f}s")


def test_criterion_1_qcore_recorded_constant():
    """The recorded 3-core constant of fig2a is a certificate, 13/3 the exact value.

    The recorded deviation ({5..10} to {6,9,10}) certifies a blocking
    factor of 10/3, a lower bound on the minimal one.  The exact value is
    13/3: each right agent's 3rd-closest center in W is a left one, so
    d_3(i, W) = 10 + d(i, 5), i.e. 10, 11, 12, 11, 12, 13 for agents
    5..10; against {5,6,9} agent 10 binds at 13/3, and larger deviations
    need left agents, whose d_3(i, W) is 0.  The auditor's value must
    match the independent brute-force oracle and its own witness.
    """
    t0 = time.time()
    inst, L = fixtures.fig2a(5)
    w5 = outcome_of(L, ("1", "2", "3", "6", "9"))
    right = [L[str(i)] for i in range(5, 11)]
    certified = q_group_min_ratio(inst, w5, 3, right, [L[x] for x in ("6", "9", "10")])
    assert certified == Fraction(10, 3)

    rep = q_core_min_alpha(inst, w5, 3)
    assert rep.status == EXACT
    assert rep.value >= certified
    assert rep.value == orc.oracle_qcore(inst, w5, 3).value == Fraction(13, 3)
    assert rep.witness.candidates == tuple(sorted(L[x] for x in ("5", "6", "9")))
    assert q_group_min_ratio(inst, w5, 3, rep.witness.agents, rep.witness.candidates) == rep.value

    elapsed = time.time() - t0
    print(
        "\nACCEPTANCE criterion 1 (recorded 3-core constant: certificate "
        f"{certified}, exact {rep.value}): PASS in {elapsed:.2f}s"
    )


def test_criterion_2_algorithm_axioms(corpus500):
    t0 = time.time()
    for inst in corpus500:
        gc_out, _ = greedy_capture(inst)
        assert rank_jr_check(inst, gc_out).passed, inst
        ea_out, _ = expanding_approvals(inst)
        assert rank_pjr_plus_check(inst, ea_out).passed, inst
        assert rank_pjr_check(inst, ea_out).passed, inst
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE criterion 2 (algorithm axioms, 500 instances): PASS in {elapsed:.1f}s")


def _outcome_variants(inst, rng):
    outs = [greedy_capture(inst)[0], expanding_approvals(inst)[0]]
    size = rng.randint(1, inst.k)
    cands = list(range(inst.num_candidates))
    if len(cands) >= size:
        outs.append(Outcome(frozenset(rng.sample(cands, size))))
    return outs


def test_criterion_3_theorem_bounds(corpus500):
    t0 = time.time()
    rng = random.Random(77)
    checked = {"jr": 0, "pjr": 0, "uprf": 0}
    for inst in corpus500:
        n_in_c = inst.agents_within_candidates()
        for W in _outcome_variants(inst, rng):
            jr = rank_jr_check(inst, W).passed
            pjr = rank_pjr_check(inst, W).passed
            up = uprf_check(inst, W).passed
            if jr:
                checked["jr"] += 1
                assert pf_min_alpha(inst, W).value <= 1 + math.sqrt(2) + TAU
                if n_in_c:
                    assert if_min_beta(inst, W).value <= 2 + TAU
                for g in GAMMAS:
                    assert tc_min_alpha(inst, W, g).value <= 2 * g / (g - 1) + TAU
            if pjr:
                checked["pjr"] += 1
                for q in (1, 2, 3):
                    if q > inst.k:
                        continue
                    assert q_core_min_alpha(inst, W, q).value <= 3 + 2 * math.sqrt(2) + TAU
                    if n_in_c and inst.k <= inst.n and q <= len(W.centers):
                        assert q_if_min_beta(inst, W, q).value <= 3 + TAU
                    for g in GAMMAS:
                        assert (
                            q_tc_min_alpha(inst, W, q, g, size_cap=2 * q - 1).value
                            <= (3 * g + 1) / (g - 1) + TAU
                        )
            if up:
                checked["uprf"] += 1
                assert pf_min_alpha(inst, W).value <= (3 + math.sqrt(17)) / 2 + TAU
                for g in GAMMAS:
                    assert tc_min_alpha(inst, W, g).value <= 3 * g / (g - 1) + TAU
                if n_in_c:
                    assert if_min_beta(inst, W).value <= 3 + TAU
                    for q in (1, 2, 3):
                        if q > inst.k:
                            continue
                        assert (
                            q_core_min_alpha(inst, W, q).value
                            <= (5 + math.sqrt(33)) / 2 + TAU
                        )
                        for g in GAMMAS:
                            assert (
                                q_tc_min_alpha(inst, W, q, g, size_cap=2 * q - 1).value
                                <= (5 * g + 1) / (g - 1) + TAU
                            )
    assert checked["jr"] > 100 and checked["pjr"] > 100 and checked["uprf"] > 10

    # randomized rule: 20 seeds on each of 50 agents-equal-candidates instances
    rng2 = random.Random(88)
    fgc_insts = [random_instance(rng2, 12, 12, 5, mode="equal") for _ in range(50)]
    for idx, inst in enumerate(fgc_insts):
        q = (idx % min(3, inst.k)) + 1
        for seed in range(20):
            W, _ = fair_greedy_capture(inst, q, seed)
            assert q_core_min_alpha(inst, W, q).value <= 5 + TAU
            if inst.k <= inst.n and q <= len(W.centers):
                assert q_if_min_beta(inst, W, q).value <= 3 + TAU
            for g in GAMMAS:
                assert (
                    q_tc_min_alpha(inst, W, q, g, size_cap=2 * q - 1).value
                    <= 5 * g / (g - 1) + TAU
                )

    # restricted runs on agents-inside-candidates instances
    rng3 = random.Random(99)
    sub_insts = [random_instance(rng3, 9, 12, 4, mode="subset") for _ in range(40)]
    for inst in sub_insts:
        W, _ = restricted_solve(inst, "gc")
        assert pf_min_alpha(inst, W).value <= 3 + TAU
        W2, _ = restricted_solve(inst, "ea")
        narrowed_cands = tuple(dict.fromkeys(inst.agents))
        narrowed = Instance(inst.space, inst.agents, narrowed_cands, inst.k)
        point_to_sub = {p: j for j, p in enumerate(narrowed_cands)}
        w_sub = Outcome(
            frozenset(point_to_sub[inst.candidates[c]] for c in W2.centers)
        )
        if rank_pjr_check(narrowed, w_sub).passed:
            for q in range(1, inst.k + 1):
                assert q_core_min_alpha(inst, W2, q).value <= 5 + TAU
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE criterion 3 (theorem bounds; antecedents hit {checked}): "
        f"PASS in {elapsed:.1f}s"
    )


def test_criterion_4_cross_notion(corpus500):
    t0 = time.time()
    for inst in corpus500:
        W, _ = expanding_approvals(inst)
        pf = pf_min_alpha(inst, W).value
        for g in GAMMAS:
            assert tc_min_alpha(inst, W, g).value <= g * (pf + 1) / (g - 1) + TAU
        if not inst.agents_within_candidates():
            continue
        beta = if_min_beta(inst, W).value
        assert beta <= 1 + pf + TAU
        assert pf <= 2 * beta + TAU
        if inst.agents_equal_candidates():
            assert pf <= 1 + beta + TAU
        if inst.k <= inst.n:
            for q in (1, 2, 3):
                if q > inst.k or q > len(W.centers):
                    continue
                qc = q_core_min_alpha(inst, W, q).value
                qb = q_if_min_beta(inst, W, q).value
                assert qb <= 1 + 2 * qc + TAU
                assert qc <= 2 * qb + TAU
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE criterion 4 (cross-notion translations): PASS in {elapsed:.1f}s")


def test_criterion_5_tightness_fixtures():
    t0 = time.time()
    inst, L = fixtures.fig4a(2)
    W = outcome_of(L, ("2", "3"))
    assert pf_min_alpha(inst, W).value == 2
    assert if_min_beta(inst, W).value == 3

    inst, L = fixtures.fig4b(2)
    W = outcome_of(L, ("w1", "w2"))
    assert if_min_beta(inst, W).value == 2
    assert pf_min_alpha(inst, W).value == 3

    inst, L = fixtures.fig4c(2)
    W = outcome_of(L, ("w",))
    assert if_min_beta(inst, W).value == 2
    assert pf_min_alpha(inst, W).value == 4

    inst, L = fixtures.lb_tc(1, 400, 4)
    W = outcome_of(L, ("c1",))
    value = tc_min_alpha(inst, W, 2).value
    assert abs(value - 3) / 3 < 0.05

    inst, L, W = fixtures.qtc_blocks(10, 4)
    assert q_tc_min_alpha(inst, W, 2, 1, size_cap=4).value == math.inf
    assert rank_pjr_check(inst, W).passed
    assert uprf_check(inst, W).passed
    assert q_if_min_beta(inst, W, 2).value == 1
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE criterion 5 (tightness fixtures): PASS in {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(31415)
    count = 0
    for _ in range(500):
        inst = random_instance(rng, 7, 6, 4)
        W, _ = expanding_approvals(inst)
        count += 1
        assert _close(pf_min_alpha(inst, W).value, orc.oracle_pf(inst, W).value)
        for g in (Fraction(3, 2), 2):
            assert _close(tc_min_alpha(inst, W, g).value, orc.oracle_tc(inst, W, g).value)
        if inst.agents_within_candidates():
            assert _close(if_min_beta(inst, W).value, orc.oracle_if(inst, W).value)
            if inst.k <= inst.n:
                for q in (1, 2):
                    if q <= len(W.centers):
                        assert _close(
                            q_if_min_beta(inst, W, q).value,
                            orc.oracle_qif(inst, W, q).value,
                        )
        for q in (1, 2):
            if q > inst.k:
                continue
            assert _close(
                q_core_min_alpha(inst, W, q).value, orc.oracle_qcore(inst, W, q).value
            )
            assert _close(
                q_tc_min_alpha(inst, W, q, 2).value, orc.oracle_qtc(inst, W, q, 2).value
            )
        for notion, check in (
            ("rank-jr", rank_jr_check),
            ("rank-pjr", rank_pjr_check),
            ("rank-pjr+", rank_pjr_plus_check),
            ("dprf", dprf_check),
            ("uprf", uprf_check),
        ):
            assert check(inst, W).value == orc.oracle_rank(notion, inst, W).value
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE criterion 6 (oracle equivalence, {count} instances): "
        f"PASS in {elapsed:.1f}s"
    )


def _close(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return a == b or abs(a - b) < 1e-9


def test_criterion_7_determinism(child_env):
    t0 = time.time()
    rng = random.Random(2718)
    for _ in range(10):
        inst = random_instance(rng, 10, 10, 4, mode="equal")
        q = min(2, inst.k)
        a_out, a_tr = fair_greedy_capture(inst, q, seed=424242)
        b_out, b_tr = fair_greedy_capture(inst, q, seed=424242)
        assert a_out == b_out
        assert json.dumps(a_tr.to_json(), sort_keys=True) == json.dumps(
            b_tr.to_json(), sort_keys=True
        )
        r1 = rank_pjr_check(inst, a_out).to_json_str()
        r2 = rank_pjr_check(inst, b_out).to_json_str()
        assert r1 == r2
        p1 = q_tc_min_alpha(inst, a_out, q, 2).to_json_str()
        p2 = q_tc_min_alpha(inst, b_out, q, 2).to_json_str()
        assert p1 == p2

    # byte-identical CLI output across two fresh processes
    cmd = [
        sys.executable,
        "-m",
        "propclust.cli",
        "gen",
        "--family",
        "graph",
        "--n",
        "9",
        "--k",
        "3",
        "--seed",
        "17",
    ]
    run1 = subprocess.run(cmd, capture_output=True, env=child_env)
    run2 = subprocess.run(cmd, capture_output=True, env=child_env)
    assert run1.returncode == run2.returncode == 0
    assert run1.stdout == run2.stdout
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE criterion 7 (determinism): PASS in {elapsed:.1f}s")
