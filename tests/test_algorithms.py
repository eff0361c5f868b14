import dataclasses
import json
import random
from fractions import Fraction
from unittest.mock import patch

import pytest

from propclust import (
    Instance,
    MetricSpace,
    expanding_approvals,
    fair_greedy_capture,
    greedy_capture,
    rank_jr_check,
    rank_pjr_check,
    rank_pjr_plus_check,
    restricted_solve,
)
from propclust import fixtures, instance as instance_module
from propclust.generate import random_instance
from propclust import pf_min_alpha, q_core_min_alpha


def test_gc_fig3a_trace_regression():
    inst, L = fixtures.fig3a(4)
    out, trace = greedy_capture(inst)
    assert out.centers == {L["1"], L["6"]}
    kinds = [(e.kind, e.delta) for e in trace.events]
    assert kinds == [("open", 0), ("open", 1), ("absorb", 2), ("absorb", 2)]
    assert trace.events[0].candidate == L["1"]
    assert trace.events[0].captured == (L["1"], L["2"], L["3"], L["4"])
    assert trace.events[1].candidate == L["6"]
    assert trace.events[1].captured == (L["5"], L["6"], L["9"])
    assert trace.events[2].agent == L["8"] and trace.events[2].center == L["6"]
    assert trace.events[3].agent == L["10"] and trace.events[3].center == L["6"]
    assert trace.events[3].remaining == 0


def test_gc_colocated_quota_opens_at_zero():
    space = MetricSpace.from_graph(3, [(0, 1, 0), (1, 2, 0)])
    inst = Instance(space, (0, 1, 2), "all", 1)
    out, trace = greedy_capture(inst)
    assert out.centers == {0}
    assert trace.events[0].delta == 0


def test_gc_fig2a_satisfies_rank_jr():
    inst, L = fixtures.fig2a(5)
    out, _ = greedy_capture(inst)
    assert rank_jr_check(inst, out).passed


def test_gc_may_open_fewer_than_k():
    inst, L = fixtures.fig3a(4)
    out, _ = greedy_capture(inst)
    assert len(out.centers) == 2 < inst.k


def test_gc_empty_candidates_error():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    inst = Instance(space, (0, 1), (0,), 1)
    empty = Instance(space, (0, 1), (), 1)
    for rule in (greedy_capture, expanding_approvals):
        rule(inst)
        with pytest.raises(ValueError, match="empty candidate"):
            rule(empty)


def test_ea_fig3a_outcome():
    inst, L = fixtures.fig3a(4)
    out, trace = expanding_approvals(inst)
    assert out.centers == {L[x] for x in ("1", "5", "6", "9")}
    assert len(out.centers) == inst.k


def test_ea_budget_conservation():
    inst, L = fixtures.fig3a(4)
    out, trace = expanding_approvals(inst)
    spent = sum(e.amount for e in trace.events if e.kind == "deduct")
    assert spent == len(out.centers)
    assert isinstance(spent, Fraction) or spent == int(spent)


def test_ea_budget_conservation_random():
    rng = random.Random(12)
    for _ in range(40):
        inst = random_instance(rng, 10, 10, 5)
        out, trace = expanding_approvals(inst)
        spent = sum(e.amount for e in trace.events if e.kind == "deduct")
        assert spent == len(out.centers)
        assert len(out.centers) == min(inst.k, inst.num_candidates)


def test_ea_outputs_satisfy_strong_axioms_random():
    rng = random.Random(13)
    for _ in range(30):
        inst = random_instance(rng, 10, 10, 4)
        out, _ = expanding_approvals(inst)
        assert rank_pjr_plus_check(inst, out).passed
        assert rank_pjr_check(inst, out).passed


def test_ea_custom_deduction_policy_keeps_axioms():
    def farthest_first(ball, dists):
        return sorted(ball, key=lambda i: (-dists[i], i))

    rng = random.Random(14)
    for _ in range(15):
        inst = random_instance(rng, 9, 9, 4)
        out, _ = expanding_approvals(inst, deduct_order=farthest_first)
        assert rank_pjr_plus_check(inst, out).passed


def test_ea_remaining_counts_funded_agents():
    def farthest_first(ball, dists):
        return sorted(ball, key=lambda i: (-dists[i], i))

    rng = random.Random(15)
    for _ in range(30):
        inst = random_instance(rng, 10, 10, 5)
        for order in (None, farthest_first):
            _, trace = expanding_approvals(inst, deduct_order=order)
            budgets = [Fraction(inst.k, inst.n)] * inst.n
            for e in trace.events:
                if e.kind == "deduct":
                    budgets[e.agent] -= e.amount
                assert e.remaining == sum(1 for b in budgets if b > 0), e


def test_ea_rejects_an_order_that_leaves_the_unit_unpaid():
    # a raised error, not an assert, so that it holds under python -O too
    inst = random_instance(random.Random(3), 8, 8, 3)
    for order in (lambda ball, dists: [], lambda ball, dists: ball[:1]):
        with pytest.raises(ValueError, match="unpaid at candidate 4"):
            expanding_approvals(inst, deduct_order=order)


def test_fgc_support_contains_recorded_outcome():
    inst, L = fixtures.fig3a(4)
    target = frozenset(L[x] for x in ("1", "5", "9", "10"))
    assert any(
        fair_greedy_capture(inst, 2, seed)[0].centers == target
        for seed in range(2000)
    )


def test_fgc_colocated_symmetric():
    space = MetricSpace.from_graph(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
    inst = Instance(space, (0, 1, 2, 3), "all", 2)
    out, trace = fair_greedy_capture(inst, 2, seed=9)
    assert len(out.centers) == 2
    # single capture at radius zero deletes the full quota
    opens = [e for e in trace.events if e.captured]
    assert opens[0].delta == 0 and len(opens[0].captured) == 4


def test_fgc_fills_to_k():
    inst, L = fixtures.fig3a(4)
    for seed in range(10):
        out, _ = fair_greedy_capture(inst, 2, seed)
        assert len(out.centers) == inst.k


def test_fgc_determinism():
    inst, L = fixtures.fig3a(4)
    a = fair_greedy_capture(inst, 2, seed=123)
    b = fair_greedy_capture(inst, 2, seed=123)
    assert a[0] == b[0]
    assert json.dumps(a[1].to_json()) == json.dumps(b[1].to_json())


def test_fgc_preconditions():
    inst, L = fixtures.fig4c(2)  # agents strictly inside candidates
    with pytest.raises(ValueError, match="agents and candidates"):
        fair_greedy_capture(inst, 1, 0)
    full, L2 = fixtures.fig3a(4)
    with pytest.raises(ValueError, match="q must satisfy"):
        fair_greedy_capture(full, 5, 0)


def test_fgc_q_core_bound_sample():
    rng = random.Random(15)
    for _ in range(10):
        inst = random_instance(rng, 10, 10, 4, mode="equal")
        q = rng.randint(1, min(2, inst.k))
        out, _ = fair_greedy_capture(inst, q, seed=rng.randrange(10**6))
        assert q_core_min_alpha(inst, out, q).value <= 5 + 1e-9


def test_trace_invariants_random():
    rng = random.Random(16)
    for _ in range(30):
        inst = random_instance(rng, 10, 10, 4)
        for solver in (greedy_capture, expanding_approvals):
            out, trace = solver(inst)
            deltas = [e.delta for e in trace.events]
            assert deltas == sorted(deltas)
        out, trace = greedy_capture(inst)
        removed = [i for e in trace.events for i in e.captured]
        assert sorted(removed) == list(range(inst.n))
        assert trace.events[-1].remaining == 0


def _colocated_instance(candidates, k):
    """Points 0-3 on a line in two pairs, 4 far off.  ``candidates`` repeats
    points out of order; the agents list points 3 (twice), 2, 1, 0, in
    descending order."""
    space = MetricSpace.from_points([[0], [1], [10], [11], [30]])
    return Instance(space, (3, 3, 2, 1, 0), candidates, k)


def _assert_lowest_parent_indices(inst, out, trace):
    """Every center and every trace ``candidate``/``center`` field is the
    lowest candidate index at an agent's point, and every captured,
    absorbed or charged agent is within the event's delta of it."""
    cands = inst.candidates
    for c in out.centers:
        assert cands.index(cands[c]) == c and cands[c] in inst.agents
    for e in trace.events:
        for c in (e.candidate, e.center):
            if c is not None:
                assert cands.index(cands[c]) == c and cands[c] in inst.agents
        if e.kind == "absorb":
            assert inst.d_ac(e.agent, e.center) == e.delta
        elif e.kind == "deduct":
            assert inst.d_ac(e.agent, e.center) <= e.delta


def test_fgc_trace_partition():
    rng = random.Random(161)
    for _ in range(20):
        inst = random_instance(rng, 11, 11, 4, mode="equal")
        q = rng.randint(1, min(2, inst.k))
        out, trace = fair_greedy_capture(inst, q, seed=7)
        removed = [i for e in trace.events for i in e.captured]
        assert len(removed) == len(set(removed))  # deleted at most once
        deltas = [e.delta for e in trace.events]
        assert deltas == sorted(deltas)
    inst = _colocated_instance((2, 0, 2, 3, 1, 0, 3, 1), 3)
    for q in (1, 2, 3):
        for seed in range(4):
            out, trace = fair_greedy_capture(inst, q, seed)
            _assert_lowest_parent_indices(inst, out, trace)


def test_gc_determinism_bitwise():
    rng = random.Random(18)
    inst = random_instance(rng, 10, 10, 4)
    a = greedy_capture(inst)
    b = greedy_capture(inst)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_restricted_identity_when_equal():
    inst, L = fixtures.fig3a(4)  # agents == candidates
    direct, _ = greedy_capture(inst)
    restricted, _ = restricted_solve(inst, "gc")
    assert restricted.centers == direct.centers
    assert restricted.origin == "gc-restricted"


def test_restricted_requires_agents_within_candidates():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    inst = Instance(space, (0,), (1,), 1)
    with pytest.raises(ValueError):
        restricted_solve(inst, "gc")
    with pytest.raises(ValueError):
        restricted_solve(inst, "bogus")


def test_restricted_builds_one_sub_instance_per_instance():
    # gc then ea in restricted mode sort one sub-instance sweep between
    # them, and read the same as on fresh copies with empty caches
    inst = _colocated_instance((4, 2, 0, 2, 3, 1, 0, 3, 1), 2)
    with patch.object(instance_module, "_sweep", wraps=instance_module._sweep) as sweep:
        runs = [restricted_solve(inst, rule) for rule in ("gc", "ea")]
    assert sweep.call_count == 1
    for rule, (out, trace) in zip(("gc", "ea"), runs):
        fresh_out, fresh_trace = restricted_solve(dataclasses.replace(inst), rule)
        assert out == fresh_out
        assert trace.to_json() == fresh_trace.to_json()
    outside = Instance(MetricSpace.from_matrix([[0, 1], [1, 0]]), (0,), (1,), 1)
    with pytest.raises(ValueError, match="restricted mode needs agents inside the candidate set"):
        restricted_solve(outside, "gc")
    assert "restricted" not in vars(outside)


def test_restricted_gc_three_proportional():
    rng = random.Random(19)
    for _ in range(20):
        inst = random_instance(rng, 9, 12, 4, mode="subset")
        out, _ = restricted_solve(inst, "gc")
        assert pf_min_alpha(inst, out).value <= 3 + 1e-9


def test_restricted_outcome_indices_are_original():
    rng = random.Random(21)
    inst = random_instance(rng, 8, 12, 3, mode="subset")
    out, _ = restricted_solve(inst, "ea")
    agent_points = set(inst.agents)
    for c in out.centers:
        assert inst.candidates[c] in agent_points
    inst = _colocated_instance((4, 2, 0, 2, 3, 1, 0, 3, 1), 2)
    for rule in ("gc", "ea"):
        out, trace = restricted_solve(inst, rule)
        _assert_lowest_parent_indices(inst, out, trace)
        for e in trace.events:
            if e.kind == "open":
                assert all(inst.d_ac(i, e.candidate) <= e.delta for i in e.captured)


def test_ea_budget_never_overdrawn():
    rng = random.Random(22)
    for _ in range(20):
        inst = random_instance(rng, 10, 10, 5)
        out, trace = expanding_approvals(inst)
        per_agent = {}
        for e in trace.events:
            if e.kind == "deduct":
                per_agent[e.agent] = per_agent.get(e.agent, 0) + e.amount
        for total in per_agent.values():
            assert total <= Fraction(inst.k, inst.n)
