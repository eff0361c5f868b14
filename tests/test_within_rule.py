"""The within-y rule: ``d <= y`` everywhere, and the oracle agrees on ties.

A distance d is within a radius y when ``d <= y``, on exact, float and mixed
spaces alike; no module but ``metric.py`` names a rounding allowance.  The
differential tests below run the fast auditors and the brute-force oracle,
which writes out its own comparison, on instances built to sit on or next
to a threshold:
co-location through zero-weight edges, exact distances offset by 10^-12,
and the same offsets on floats.  ``hypothesis.target`` steers the search
toward outcomes whose audited factor comes close to the paper's bound.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st, target

from propclust import (
    Instance,
    MetricSpace,
    Outcome,
    dprf_check,
    expanding_approvals,
    greedy_capture,
    pf_min_alpha,
    q_core_min_alpha,
    q_tc_min_alpha,
    rank_jr_check,
    rank_pjr_check,
    rank_pjr_plus_check,
    tc_min_alpha,
    uprf_check,
)
from propclust import oracle as orc
from propclust.instance import _growing_masks, _sweep

SRC = Path(__file__).resolve().parent.parent / "src" / "propclust"
OWNERS = ("metric.py",)


def _tau_lines(path):
    """Lines of ``path`` that name TAU: as a variable, an attribute, an
    imported name or a string (as in ``__all__`` or ``getattr``)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (
            (isinstance(node, ast.Name) and node.id == "TAU")
            or (isinstance(node, ast.Attribute) and node.attr == "TAU")
            or (isinstance(node, ast.alias) and "TAU" in (node.name, node.asname))
            or (isinstance(node, ast.Constant) and node.value == "TAU")
        ):
            lines.append(node.lineno)
    return lines


def test_only_metric_names_tau():
    assert _tau_lines(SRC / "metric.py"), "the guard no longer sees metric.TAU"
    copies = {
        path.name: _tau_lines(path)
        for path in sorted(SRC.glob("*.py"))
        if path.name not in OWNERS
    }
    assert {name: lines for name, lines in copies.items() if lines} == {}


def _within(space, a, b, y):
    """Whether point b lies within y of point a in the shared sweep."""
    (masks, _, _), = _growing_masks(_sweep([[space.dist(a, b)]]), [y])
    return masks[0] == 1


def test_within_is_d_le_y_on_every_space():
    third = Fraction(1, 3)
    graph = MetricSpace.from_graph(2, [(0, 1, [1, 3])])
    assert graph.exact
    assert _within(graph, 0, 1, third)
    assert not _within(graph, 0, 1, third - Fraction(1, 10**12))
    floats = MetricSpace.from_points([[0.0], [1.0 + 1e-12]])
    assert not floats.exact
    assert _within(floats, 0, 1, 1.0 + 1e-12)
    assert not _within(floats, 0, 1, 1.0)
    # one float distance makes the space inexact; its int distances and
    # its float ones are still compared as given
    mixed = MetricSpace.from_matrix([[0, 1, 1.5], [1, 0, 1.0 + 1e-12], [1.5, 1.0 + 1e-12, 0]])
    assert not mixed.exact
    assert _within(mixed, 0, 1, 1) and _within(mixed, 0, 1, 1.0)
    assert not _within(mixed, 1, 2, 1) and not _within(mixed, 0, 2, 1.5 - 1e-12)
    assert orc._within(1.0 + 1e-12, 1.0) is False
    assert orc._within(Fraction(1, 3), third) is True


@st.composite
def tie_instances(draw, kind):
    """An instance of at most 6 points over a graph with weights 0..2.

    Zero weights co-locate points.  For "fraction" and "float" every
    distance d(a, b), a != b, is raised by (o_a + o_b) * 10^-12 with
    per-point offsets o in {0, 1, 2}: still a metric, now full of near
    ties.  Agents may repeat; the outcome is greedy capture's, expanding
    approvals' or a random set of at most k candidates.
    """
    npts = draw(st.integers(2, 6))
    weight = st.integers(0, 2)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, npts)]
    point = st.integers(0, npts - 1)
    edges += draw(st.lists(st.tuples(point, point, weight), max_size=npts))
    space = MetricSpace.from_graph(npts, edges)
    if kind != "graph":
        offsets = draw(st.lists(st.integers(0, 2), min_size=npts, max_size=npts))
        cast, eps = (float, 1e-12) if kind == "float" else (Fraction, Fraction(1, 10**12))
        rows = [
            [cast(space.dist(a, b)) + (oa + ob) * eps for b, ob in enumerate(offsets)]
            for a, oa in enumerate(offsets)
        ]
        for a in range(npts):
            rows[a][a] = 0
        space = MetricSpace.from_matrix(rows)
    agents = draw(st.lists(point, min_size=1, max_size=6))
    candidates = draw(
        st.one_of(st.just("all"), st.lists(point, min_size=1, max_size=npts, unique=True))
    )
    inst = Instance(space, agents, candidates, draw(st.integers(1, 3)))
    rule = draw(st.sampled_from(["gc", "ea", "random"]))
    if rule == "gc":
        outcome, _ = greedy_capture(inst)
    elif rule == "ea":
        outcome, _ = expanding_approvals(inst)
    else:
        indices = range(inst.num_candidates)
        outcome = Outcome(draw(st.sets(st.sampled_from(indices), max_size=inst.k)))
    return inst, outcome


RANK_CHECKS = {
    "rank-jr": rank_jr_check,
    "rank-pjr": rank_pjr_check,
    "rank-pjr+": rank_pjr_plus_check,
    "dprf": dprf_check,
    "uprf": uprf_check,
}
# factor bounds that hold once an outcome passes an axiom: PF and TC at
# gamma = 2 after rank-JR, PF after UPRF
BOUNDS = (
    ("rank-jr", "pf", 1 + math.sqrt(2)),
    ("rank-jr", "tc", 4),
    ("uprf", "pf", (3 + math.sqrt(17)) / 2),
)


def _check_against_oracle(inst, outcome, exact=True):
    """Fast verdicts and factors equal the oracle's; on exact data the
    factor bounds hold too (float factors are rounded quotients)."""
    verdicts = {}
    for notion, check in RANK_CHECKS.items():
        fast = check(inst, outcome).value
        assert fast == orc.oracle_rank(notion, inst, outcome).value, notion
        verdicts[notion] = fast
    factors = {"pf": pf_min_alpha(inst, outcome).value, "tc": tc_min_alpha(inst, outcome, 2).value}
    assert factors["pf"] == orc.oracle_pf(inst, outcome).value
    assert factors["tc"] == orc.oracle_tc(inst, outcome, 2).value
    # size_cap = k covers every target size the oracle enumerates
    for q in range(1, min(2, inst.k) + 1):
        qcore = q_core_min_alpha(inst, outcome, q, size_cap=inst.k)
        assert qcore.status == "exact"
        assert qcore.value == orc.oracle_qcore(inst, outcome, q).value, ("qcore", q)
        for g in (1, 2):
            qtc = q_tc_min_alpha(inst, outcome, q, g, size_cap=inst.k)
            assert qtc.status == "exact"
            assert qtc.value == orc.oracle_qtc(inst, outcome, q, g).value, ("qtc", q, g)
    for axiom, notion, bound in BOUNDS:
        if verdicts[axiom] == "pass":
            if exact:
                assert factors[notion] <= bound, (axiom, notion)
            score = float(factors[notion]) / bound
            if math.isfinite(score):
                target(score, label=f"{notion} / bound after {axiom}")


@given(tie_instances("graph"))
@settings(max_examples=150)
def test_oracle_agrees_on_zero_weight_graphs(case):
    _check_against_oracle(*case)


@given(tie_instances("fraction"))
@settings(max_examples=150)
def test_oracle_agrees_on_fraction_near_ties(case):
    _check_against_oracle(*case)


@given(tie_instances("float"))
@settings(max_examples=150)
def test_oracle_agrees_on_float_near_ties(case):
    _check_against_oracle(*case, exact=False)


def test_fraction_near_tie_keeps_pf_bound_after_rank_jr():
    near = Fraction(1, 10**12)
    space = MetricSpace.from_matrix([[0, near, 1], [near, 0, 1], [1, 1, 0]])
    inst = Instance(space, (1, 2), "all", 2)
    W, _ = expanding_approvals(inst)
    assert W.centers == {1, 2}
    assert rank_jr_check(inst, W).passed
    assert pf_min_alpha(inst, W).value == 1


def test_float_near_tie_keeps_pf_bound_after_rank_jr():
    # The same instance on floats: candidate 0 lies 1e-12 from the agent at
    # point 1, which is not within delta = 0, so expanding approvals opens
    # that agent's own point, and the PF bound holds after rank-JR.
    space = MetricSpace.from_matrix([[0.0, 1e-12, 1.0], [1e-12, 0.0, 1.0], [1.0, 1.0, 0.0]])
    inst = Instance(space, (1, 2), "all", 2)
    W, _ = expanding_approvals(inst)
    assert W.centers == {1, 2}
    assert rank_jr_check(inst, W).passed
    assert pf_min_alpha(inst, W).value <= 1 + math.sqrt(2)
