import heapq
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from propclust import (
    Instance,
    MetricSpace,
    Outcome,
    if_min_beta,
    pf_min_alpha,
    q_tc_min_alpha,
    tc_min_alpha,
)
from propclust import fixtures
from propclust.audit_single import (
    _qth_smallest,
    group_min_ratio,
    group_sum_ratio,
    max_sum_ratio,
    ratio,
)
from propclust.fixtures import outcome_of
from propclust.generate import random_instance
from propclust import oracle as orc


# few distinct values, so ties between an int and an equal Fraction are common
_EXACT_VALUES = st.one_of(
    st.integers(0, 4),
    st.builds(Fraction, st.integers(0, 8), st.sampled_from([1, 2])),
)


def _assert_same_as_heapq(values, q):
    expected = heapq.nsmallest(q, values)[-1]
    assert _qth_smallest(q)(values) is expected
    assert _qth_smallest(q)(tuple(values)) is expected


@given(st.lists(_EXACT_VALUES, min_size=1, max_size=12), st.integers(1, 14))
@settings(max_examples=400, deadline=None)
def test_qth_smallest_is_heapq_object_on_exact_ties(values, q):
    _assert_same_as_heapq(values, q)


@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.5, math.inf]), st.floats(allow_nan=False)),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 14),
)
@settings(max_examples=400, deadline=None)
def test_qth_smallest_is_heapq_object_on_floats(values, q):
    _assert_same_as_heapq(values, q)


def test_qth_smallest_ties_go_to_the_earlier_object():
    one, half = Fraction(1), Fraction(1, 2)
    assert _qth_smallest(1)([1, one, half]) is half
    assert type(_qth_smallest(2)([1, one, half])) is int
    assert type(_qth_smallest(3)([one, 1, 0])) is int
    assert type(_qth_smallest(2)([one, 1, 0])) is Fraction
    # fewer than q values: the largest, the last of its ties
    assert type(_qth_smallest(5)([one, 1])) is int


def test_ratio_conventions():
    assert ratio(0, 0) == 1
    assert ratio(3, 0) == math.inf
    assert ratio(0, 5) == 0
    assert ratio(10, 3) == Fraction(10, 3)
    assert ratio(1.0, 2) == 0.5


def test_pf_fig2a_k5():
    inst, L = fixtures.fig2a(5)
    report = pf_min_alpha(inst, outcome_of(L, ("1", "2", "3", "6", "9")))
    assert report.value == 1


def test_pf_all_candidates_open():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    inst = Instance(space, (0, 1), "all", 2)
    report = pf_min_alpha(inst, Outcome(frozenset({0, 1})))
    assert report.value == 1
    assert report.witness is None


def test_open_center_worth_one_is_never_witness():
    # the agent is as close to either open center as to itself, so a
    # deviation to an open center would be worth exactly 1; only unopened
    # candidates may deviate, and none is left
    space = MetricSpace.from_matrix([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    inst = Instance(space, (2,), (0, 1), 2)
    W = Outcome([0, 1])
    for report in (pf_min_alpha(inst, W), tc_min_alpha(inst, W)):
        assert report.value == 1
        assert report.witness is None


def test_pf_fig4a_exact():
    inst, L = fixtures.fig4a(2)
    report = pf_min_alpha(inst, outcome_of(L, ("2", "3")))
    assert report.value == 2


def test_if_fig2a_k4():
    inst, L = fixtures.fig2a(4)
    report = if_min_beta(inst, outcome_of(L, ("1", "2", "6", "7")))
    assert report.value == 2
    assert report.witness.agents == (L["8"],)


def test_if_all_covered():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    inst = Instance(space, (0, 1), "all", 2)
    assert if_min_beta(inst, Outcome(frozenset({0, 1}))).value == 1


def test_if_fig4b_exact():
    inst, L = fixtures.fig4b(2)
    report = if_min_beta(inst, outcome_of(L, ("w1", "w2")))
    assert report.value == 2


def test_if_requires_agents_within_candidates():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    inst = Instance(space, (0,), (1,), 1)
    with pytest.raises(ValueError, match="IF undefined"):
        if_min_beta(inst, Outcome(frozenset({0})))


def test_tc_fig2a_k4():
    inst, L = fixtures.fig2a(4)
    W = outcome_of(L, ("1", "2", "6", "7"))
    report = tc_min_alpha(inst, W, 1)
    assert report.value == 2
    # the recorded deviation: {8,9,10} to candidate 9 with sums 4 vs 2
    group = [L["8"], L["9"], L["10"]]
    assert group_sum_ratio(inst, W, group, L["9"]) == 2


def test_tc_all_open():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    inst = Instance(space, (0, 1), "all", 2)
    assert tc_min_alpha(inst, Outcome(frozenset({0, 1})), 1).value == 1


def test_tc_gamma_must_be_at_least_one():
    inst, L = fixtures.fig2a(4)
    with pytest.raises(ValueError):
        tc_min_alpha(inst, outcome_of(L, ("1",)), Fraction(1, 2))
    with pytest.raises(ValueError, match="gamma must be at least 1"):
        q_tc_min_alpha(inst, outcome_of(L, ("1",)), 1, gamma=Fraction(1, 2))


def test_max_sum_ratio_engine():
    assert max_sum_ratio([(4, 2), (1, 1)], 1) == (2, (0,))
    assert max_sum_ratio([(4, 2), (1, 1)], 2) == (Fraction(5, 3), (0, 1))
    value, group = max_sum_ratio([(1, 0), (0, 0)], 2)
    assert value == math.inf and group == (0, 1)
    assert max_sum_ratio([(0, 1), (0, 0)], 1) == (0, None)
    # a heavier-but-worse extra member is never pulled in
    value, group = max_sum_ratio([(10, 1), (9, 1), (1, 100)], 1)
    assert value == 10 and group == (0,)
    # brute-force agreement on mixed data
    import itertools

    pairs = [(3, 1), (5, 2), (0, 0), (7, 3), (2, 1)]
    for m in (1, 2, 3):
        best = max(
            (
                Fraction(sum(pairs[i][0] for i in s), sum(pairs[i][1] for i in s))
                for r in range(m, len(pairs) + 1)
                for s in itertools.combinations(range(len(pairs)), r)
                if sum(pairs[i][1] for i in s) > 0
            ),
        )
        assert max_sum_ratio(pairs, m)[0] == best


def test_witness_soundness_random():
    rng = random.Random(5)
    for _ in range(60):
        inst = random_instance(rng, 9, 9, 4)
        W, _ = __import__("propclust").greedy_capture(inst)
        rep = pf_min_alpha(inst, W)
        if rep.witness is not None:
            seen = group_min_ratio(inst, W, rep.witness.agents, rep.witness.candidates[0])
            assert seen == rep.value
        rep = tc_min_alpha(inst, W, 2)
        if rep.witness is not None:
            seen = group_sum_ratio(inst, W, rep.witness.agents, rep.witness.candidates[0])
            assert seen == rep.value


def test_cross_notion_bounds_random():
    rng = random.Random(6)
    tau = 1e-9
    for _ in range(60):
        inst = random_instance(rng, 9, 9, 4, mode=rng.choice(["equal", "subset"]))
        W, _ = __import__("propclust").expanding_approvals(inst)
        pf = pf_min_alpha(inst, W).value
        beta = if_min_beta(inst, W).value
        assert beta <= 1 + pf + tau
        assert pf <= 2 * beta + tau
        if inst.agents_equal_candidates():
            assert pf <= 1 + beta + tau
        for g in (Fraction(3, 2), 2, 4):
            tc = tc_min_alpha(inst, W, g).value
            assert tc <= Fraction(g) * (pf + 1) / (Fraction(g) - 1) + tau


def test_oracle_equivalence_spot(small_corpus):
    from propclust import expanding_approvals

    for inst in small_corpus[:40]:
        W, _ = expanding_approvals(inst)
        assert pf_min_alpha(inst, W).value == orc.oracle_pf(inst, W).value
        assert tc_min_alpha(inst, W, 2).value == orc.oracle_tc(inst, W, 2).value
        if inst.agents_within_candidates():
            assert if_min_beta(inst, W).value == orc.oracle_if(inst, W).value


def test_lb_tc_fixture_value():
    inst, L = fixtures.lb_tc(1, 400, 4)
    W = outcome_of(L, ("c1",))
    report = tc_min_alpha(inst, W, 2)
    assert report.value == Fraction(299, 101)
    assert abs(report.value - 3) / 3 < 0.05
    assert pf_min_alpha(inst, W).value == 1
