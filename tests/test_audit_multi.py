import json
import math
import re
from fractions import Fraction

import pytest

from propclust import (
    Instance,
    MetricSpace,
    Outcome,
    expanding_approvals,
    fair_greedy_capture,
    greedy_capture,
    pf_min_alpha,
    q_core_min_alpha,
    q_if_min_beta,
    q_tc_min_alpha,
    tc_min_alpha,
)
from propclust import fixtures
from propclust.audit_multi import q_group_min_ratio, q_group_sum_ratio
from propclust.fixtures import outcome_of
from propclust.reports import CAP_EXHAUSTED, EXACT, Witness
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


def _star(arms, n_agents=1, k=1):
    """Agents on the hub of a star whose arms end at the candidates."""
    space = MetricSpace.from_graph(len(arms) + 1, [(0, j + 1, w) for j, w in enumerate(arms)])
    return Instance(space, (0,) * n_agents, tuple(range(1, len(arms) + 1)), k)


def test_q_scan_first_subset_worth_one_is_witness():
    # both single-candidate deviations are worth exactly 1; the first wins
    inst = _star([2, 2])
    W = Outcome([1])
    reports = (q_core_min_alpha(inst, W, 1), q_tc_min_alpha(inst, W, 1), tc_min_alpha(inst, W))
    for report in reports:
        assert report.value == 1
        assert report.witness is not None
        assert report.witness.candidates == (0,)


def test_q_scan_fewer_centers_than_q_is_unbounded():
    # |W| = 1 < q = 2: every agent's q-th center distance is inf
    inst = _star([1, 2, 3], n_agents=2, k=2)
    W = Outcome([2])
    report = q_core_min_alpha(inst, W, 2)
    assert report.value == math.inf
    assert report.witness == Witness(agents=(0, 1), candidates=(0, 1), ell=2)
    assert q_tc_min_alpha(inst, W, 2).value == math.inf


def test_qtc_zero_denominators_are_unbounded():
    # two agents sit on candidate 0 (a zero-weight edge), far from W
    space = MetricSpace.from_graph(3, [(0, 1, 0), (1, 2, 5)])
    inst = Instance(space, (0, 1), (0, 2), 1)
    W = Outcome([1])
    report = q_tc_min_alpha(inst, W, 1)
    assert report.value == math.inf
    assert report.witness == Witness(agents=(0, 1), candidates=(0,), ell=1)
    assert q_group_sum_ratio(inst, W, 1, (0, 1), (0,)) == math.inf


def test_q_scan_tie_after_rise_keeps_earlier_subset():
    # deviations are worth 2, 4, 4 and 1: the incumbent rises from the
    # first subset to the second, and the third only ties it
    inst = _star([4, 2, 2, 8])
    W = Outcome([3])
    reports = (q_core_min_alpha(inst, W, 1), q_tc_min_alpha(inst, W, 1), tc_min_alpha(inst, W))
    for report in reports:
        assert report.value == 4
        assert report.witness.candidates == (1,)
    # the same across sizes: at k = 2 every pair holding candidate 1 or 2
    # is worth 4 as well and only ties (1,)
    inst2 = _star([4, 2, 2, 8], n_agents=2, k=2)
    report = q_core_min_alpha(inst2, W, 1)
    assert report.value == 4
    assert report.witness.candidates == (1,)


def test_qtc_float_group_ratio_rounding_past_members():
    # Both agents improve by the same float ratio b at candidate 1, and
    # their summed float ratio rounds one ulp above b.  Exactly, the group's
    # ratio there is below agent 0's ratio b at candidate 0, so candidate 1
    # cannot beat candidate 0, which is worth b first (agent 0 alone).
    d = [
        [0, 2.981797981049634, 1.5702432095340706, 1.134364244112401, 1.134364244112401],
        [2.981797981049634, 0, 2.5573093435783556, 3.0, 1.8474337369372327],
        [1.5702432095340706, 2.5573093435783556, 0, 2.7046074536464717, 2.7046074536464717],
        [1.134364244112401, 3.0, 2.7046074536464717, 0, 2.268728488224802],
        [1.134364244112401, 1.8474337369372327, 2.7046074536464717, 2.268728488224802, 0],
    ]
    inst = Instance(MetricSpace.from_matrix(d), (0, 1), (3, 4, 2), 2)
    W = Outcome([2])
    b = inst.d_ac(0, 2) / inst.d_ac(0, 0)
    assert b == inst.d_ac(1, 2) / inst.d_ac(1, 1)
    assert q_group_sum_ratio(inst, W, 1, (0, 1), (1,)) > b
    exact = [[Fraction(inst.d_ac(i, j)) for j in range(3)] for i in range(2)]
    group = (exact[0][2] + exact[1][2]) / (exact[0][1] + exact[1][1])
    alone = exact[0][2] / exact[0][0]
    assert group == Fraction(3098140690024877, 2238137379391538)
    assert alone == Fraction(1767936683334673, 1277180596771756)
    assert group < alone
    report = q_tc_min_alpha(inst, W, 1, 1, size_cap=1)
    assert report.value == b
    assert report.witness == Witness(agents=(0,), candidates=(0,), ell=1)


def _exact_copy(inst):
    """The same instance over the exact values of its distances."""
    space = inst.space
    npts = space.num_points
    d = [[Fraction(space.dist(a, b)) for b in range(npts)] for a in range(npts)]
    return Instance(MetricSpace(d, "matrix"), inst.agents, inst.candidates, inst.k)


SUMMED_AUDITS = [
    (tc_min_alpha, (1,)),
    (tc_min_alpha, (2,)),
    (q_tc_min_alpha, (1,)),
    (q_tc_min_alpha, (2,)),
]


def _check_float_matches_exact(inst, exact, W):
    """Each summed audit names the witness on ``inst`` that it names on
    ``exact``, valued at its float re-evaluation; returns how many did."""
    witnessed = 0
    for audit, args in SUMMED_AUDITS:
        report, truth = audit(inst, W, *args), audit(exact, W, *args)
        assert report.witness == truth.witness
        if report.witness is None:
            assert report.value == truth.value == 1
            continue
        q, w = report.params.get("q", 1), report.witness
        assert report.value == q_group_sum_ratio(inst, W, q, w.agents, w.candidates)
        witnessed += 1
    return witnessed


def test_summed_audits_exact_across_600_orders_of_magnitude():
    # a = 1e-300 and b = 1e300 scale to 2,046-bit integers, and float
    # quotients such as b / a overflow to inf
    a, b = 1e-300, 1e300
    d = [[0, a, b, b], [a, 0, b, b], [b, b, 0, a], [b, b, a, 0]]
    inst = Instance(MetricSpace.from_matrix(d), (0, 1, 2), "all", 2)
    exact = _exact_copy(inst)
    for W in (Outcome([2]), Outcome([3]), Outcome([0])):
        _check_float_matches_exact(inst, exact, W)
    # both float quotients are inf, yet exactly (2b + a) / a > 2b / a
    W = Outcome([3])
    report = q_tc_min_alpha(inst, W, 1)
    assert report.witness == Witness(agents=(0, 1, 2), candidates=(0, 2), ell=2)
    assert report.value == math.inf
    assert q_tc_min_alpha(exact, W, 1).value == (2 * Fraction(b) + Fraction(a)) / Fraction(a)


def _encoded_value(report):
    return json.dumps(report.to_json()["value"])


def test_valued_scans_keep_int_values_on_a_float_matrix():
    # the space holds floats, yet every distance the verdicts divide is an
    # int, so pf and q-core value 3 / 1 and tc (3 + 3) / 1 as exact ints
    d = [
        [0, 1, 2, 3, 1.5],
        [1, 0, 2, 3, 1.5],
        [2, 2, 0, 3, 2.5],
        [3, 3, 3, 0, 3.0],
        [1.5, 1.5, 2.5, 3.0, 0],
    ]
    inst = Instance(MetricSpace.from_matrix(d), (0, 1), "all", 1)
    W = Outcome([3])
    for report in (pf_min_alpha(inst, W), q_core_min_alpha(inst, W, 1)):
        assert report.value == 3 and not isinstance(report.value, float)
        assert _encoded_value(report) == "3"
    report = tc_min_alpha(inst, W)
    assert report.value == 6 and not isinstance(report.value, float)
    assert _encoded_value(report) == "6"


def test_valued_scans_report_float_overflow_as_inf():
    # agent 1 values candidate 0 at 1e300 / 1e-300, which overflows to inf
    a, b = 1e-300, 1e300
    d = [[0, a, b, b], [a, 0, b, b], [b, b, 0, a], [b, b, a, 0]]
    inst = Instance(MetricSpace.from_matrix(d), (0, 1, 2), "all", 2)
    for W in (Outcome([2]), Outcome([3])):
        for report in (pf_min_alpha(inst, W), q_core_min_alpha(inst, W, 1)):
            assert report.value == math.inf
            assert _encoded_value(report) == '"inf"'
            assert report.witness.agents == (0, 1) and report.witness.candidates == (0,)


_Q_CALLS = {
    "qcore q": lambda inst, W, v: q_core_min_alpha(inst, W, v),
    "qcore size_cap": lambda inst, W, v: q_core_min_alpha(inst, W, 1, v),
    "qtc q": lambda inst, W, v: q_tc_min_alpha(inst, W, v),
    "qtc size_cap": lambda inst, W, v: q_tc_min_alpha(inst, W, 1, 1, v),
    "qif q": lambda inst, W, v: q_if_min_beta(inst, W, v),
    "fgc q": lambda inst, W, v: fair_greedy_capture(inst, v, 0),
}


@pytest.mark.parametrize(
    "call, value",
    [
        (call, value)
        for call in sorted(_Q_CALLS)
        for value in (True, False, 2.0, "2", None)
        # a size_cap of None asks for the default cap
        if not (call.endswith("size_cap") and value is None)
    ],
)
def test_q_and_size_cap_must_be_ints(call, value):
    inst, _ = fixtures.fig3a(4)
    name = call.split()[1]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        _Q_CALLS[call](inst, Outcome([0, 1]), value)


def test_summed_audits_float_equals_exact(small_corpus):
    witnessed = 0
    for inst in small_corpus:
        if inst.space.exact:
            continue
        exact = _exact_copy(inst)
        for rule in (greedy_capture, expanding_approvals):
            try:
                W, _ = rule(inst)
            except ValueError:
                continue
            witnessed += _check_float_matches_exact(inst, exact, W)
    assert witnessed > 0
