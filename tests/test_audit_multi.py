import math
from fractions import Fraction

import pytest

from propclust import (
    expanding_approvals,
    pf_min_alpha,
    q_core_min_alpha,
    q_if_min_beta,
    q_tc_min_alpha,
    tc_min_alpha,
)
from propclust import fixtures
from propclust.audit_multi import q_group_min_ratio, q_group_sum_ratio
from propclust.fixtures import outcome_of
from propclust.reports import CAP_EXHAUSTED, EXACT
from propclust import oracle as orc


@pytest.fixture(scope="module")
def fig2a_k5():
    inst, L = fixtures.fig2a(5)
    return inst, L, outcome_of(L, ("1", "2", "3", "6", "9"))


def test_qcore_fig2a_exact(fig2a_k5):
    inst, L, W = fig2a_k5
    report = q_core_min_alpha(inst, W, 3)
    assert report.value == Fraction(13, 3)
    assert report.witness.candidates == tuple(sorted(L[x] for x in ("5", "6", "9")))
    assert report.status == EXACT


def test_qcore_fig2a_recorded_deviation(fig2a_k5):
    # the recorded 3-of-C' deviation certifies 10/3 but is not binding
    inst, L, W = fig2a_k5
    group = [L[str(i)] for i in range(5, 11)]
    cands = [L[x] for x in ("6", "9", "10")]
    assert q_group_min_ratio(inst, W, 3, group, cands) == Fraction(10, 3)


def test_qcore_q1_collapses_to_pf(fig2a_k5):
    inst, L, W = fig2a_k5
    assert q_core_min_alpha(inst, W, 1).value == 1 == pf_min_alpha(inst, W).value


def test_qcore_q1_collapse_random(small_corpus):
    for inst in small_corpus[:40]:
        W, _ = expanding_approvals(inst)
        assert q_core_min_alpha(inst, W, 1).value == pf_min_alpha(inst, W).value


def test_qcore_witness_soundness(small_corpus):
    for inst in small_corpus[:30]:
        W, _ = expanding_approvals(inst)
        for q in (1, 2):
            if q > inst.k:
                continue
            rep = q_core_min_alpha(inst, W, q)
            if rep.witness is not None:
                again = q_group_min_ratio(
                    inst, W, q, rep.witness.agents, rep.witness.candidates
                )
                assert again == rep.value


def test_qtc_witness_soundness(small_corpus):
    for inst in small_corpus[:30]:
        W, _ = expanding_approvals(inst)
        for q in (1, 2):
            if q > inst.k:
                continue
            rep = q_tc_min_alpha(inst, W, q)
            if rep.witness is not None:
                again = q_group_sum_ratio(
                    inst, W, q, rep.witness.agents, rep.witness.candidates
                )
                assert again == rep.value


def test_qif_trivial_and_regression():
    inst, L = fixtures.fig2a(5)
    W = outcome_of(L, ("1", "2", "3", "6", "9"))
    from propclust import if_min_beta

    assert q_if_min_beta(inst, W, 1).value == if_min_beta(inst, W).value
    rep = q_if_min_beta(inst, W, 3)
    assert rep.value == 6  # frozen from the exhaustive reference enumeration
    assert rep.witness.agents == (L["9"],)


def test_qif_fully_covered():
    inst, L, W = fixtures.qtc_blocks(10, 4)
    assert q_if_min_beta(inst, W, 2).value == 1


def test_qif_preconditions():
    inst, L = fixtures.fig4c(2)  # agents are a strict subset of candidates
    W = outcome_of(L, ("w",))
    assert q_if_min_beta(inst, W, 1).value == 2
    from propclust import Instance

    tall = Instance(inst.space, (0,), "all", 3)
    with pytest.raises(ValueError, match="k exceeds n"):
        q_if_min_beta(tall, W, 1)
    with pytest.raises(ValueError, match="q must satisfy"):
        q_if_min_beta(inst, W, 2)  # |W| = 1 < q
    wide = outcome_of(L, ("c", "w"))  # more centers than k = 1
    with pytest.raises(ValueError, match="count exceeds number of agents"):
        q_if_min_beta(inst, wide, 2)  # quota(4, 1, 2) = 8 agents


def test_qtc_blocks_unbounded_with_wide_targets():
    inst, L, W = fixtures.qtc_blocks(10, 4)
    report = q_tc_min_alpha(inst, W, 2, 1, size_cap=4)
    assert report.value == math.inf
    # the witness group's summed current distance is positive while the
    # target-set distance sums to zero
    assert report.witness is not None


def test_qtc_blocks_finite_with_narrow_targets():
    inst, L, W = fixtures.qtc_blocks(10, 4)
    report = q_tc_min_alpha(inst, W, 2, 1, size_cap=3)
    assert report.value == Fraction(3, 2)
    assert report.status == CAP_EXHAUSTED


def test_qtc_q1_cap1_collapses_to_tc(small_corpus):
    for inst in small_corpus[:30]:
        W, _ = expanding_approvals(inst)
        for g in (1, 2):
            assert (
                q_tc_min_alpha(inst, W, 1, g, size_cap=1).value
                == tc_min_alpha(inst, W, g).value
            )


def test_qcore_oracle_equivalence_all_ell(small_corpus):
    # the oracle enumerates every entitlement level, validating the
    # binding-level collapse used by the fast auditor
    for inst in small_corpus[:25]:
        W, _ = expanding_approvals(inst)
        for q in (1, 2):
            if q > inst.k:
                continue
            fast = q_core_min_alpha(inst, W, q).value
            slow = orc.oracle_qcore(inst, W, q).value
            assert fast == slow or abs(fast - slow) < 1e-9


def test_qtc_oracle_equivalence(small_corpus):
    for inst in small_corpus[:25]:
        W, _ = expanding_approvals(inst)
        for q in (1, 2):
            if q > inst.k:
                continue
            fast = q_tc_min_alpha(inst, W, q, 2).value
            slow = orc.oracle_qtc(inst, W, q, 2).value
            if math.isinf(fast) or math.isinf(slow):
                assert math.isinf(fast) and math.isinf(slow)
            else:
                assert fast == slow or abs(fast - slow) < 1e-9


def test_status_cap_semantics():
    inst, L = fixtures.fig2a(5)
    W = outcome_of(L, ("1", "2", "3", "6", "9"))
    assert q_core_min_alpha(inst, W, 2, size_cap=2).status == CAP_EXHAUSTED
    assert q_core_min_alpha(inst, W, 2, size_cap=5).status == EXACT
    # capped value is a lower bound on the exact one
    capped = q_core_min_alpha(inst, W, 2, size_cap=2).value
    exact = q_core_min_alpha(inst, W, 2, size_cap=5).value
    assert capped <= exact


def test_qcore_errors():
    inst, L = fixtures.fig2a(5)
    W = outcome_of(L, ("1",))
    with pytest.raises(ValueError):
        q_core_min_alpha(inst, W, 6)
    with pytest.raises(ValueError):
        q_core_min_alpha(inst, W, 2, size_cap=1)
