"""The three sweep rules against literal copies of their older forms.

The rules walk the shared threshold sweep and re-check only the balls that
grew at each threshold.  The copies below are the rules as written before
that.  Greedy capture and fair greedy capture rank, at every step, the
quota-th distance of every candidate (or agent) over all uncaptured agents,
and capture what lies within it (``d <= delta``).  Expanding approvals
rescans every closed candidate at every threshold, opens the lowest-index
one whose ball holds a unit of budget, and restarts from the lowest index.
Centers and serialized traces must agree, for expanding approvals under
two deduction orders and in restricted mode too, on random instances and
on small matrices mixing int and float distances, where a traced delta of
``0`` against ``0.0`` shows in the JSON.  Expanding approvals keeps a
running budget sum per ball, and greedy capture absorbs only into grown
open balls, so both are also checked at 24 to 40 agents with ties
everywhere, directly and in restricted mode; expanding approvals is
pinned by a digest at 160 agents too, where the plain copy is too slow to
run.
"""

import hashlib
import heapq
import json
import random
from fractions import Fraction
from functools import partial
from unittest.mock import patch

from propclust import (
    Instance,
    MetricSpace,
    algorithms,
    expanding_approvals,
    fair_greedy_capture,
    greedy_capture,
    restricted_solve,
)
from propclust.algorithms import Trace, TraceEvent, closest_first_order
from propclust.cli import parse_instance
from propclust.generate import generate_family, random_instance
from propclust.instance import Outcome, quota


def _table(instance):
    """Per agent index, the distances to every candidate index."""
    cands = range(instance.num_candidates)
    return [[instance.d_ac(i, j) for j in cands] for i in range(instance.n)]


def plain_greedy_capture(instance):
    n, k = instance.n, instance.k
    m = quota(n, k, 1, 1)
    table = _table(instance)
    remaining = list(range(n))
    opened = []
    opened_set = set()
    events = []
    while remaining:
        best = None
        if len(opened) < k and len(remaining) >= m:
            for j in range(instance.num_candidates):
                if j in opened_set:
                    continue
                delta = heapq.nsmallest(m, (table[i][j] for i in remaining))[-1]
                key = (delta, 0, j, -1)
                if best is None or key < best:
                    best = key
        for w in opened:
            delta, agent = min((table[i][w], i) for i in remaining)
            key = (delta, 1, agent, w)
            if best is None or key < best:
                best = key
        delta, kind, idx, center = best
        if kind == 0:
            captured = tuple(i for i in remaining if table[i][idx] <= delta)
            remaining = [i for i in remaining if i not in set(captured)]
            opened.append(idx)
            opened_set.add(idx)
            events.append(
                TraceEvent(
                    delta=delta, kind="open", candidate=idx, captured=captured,
                    remaining=len(remaining),
                )
            )
        else:
            remaining.remove(idx)
            events.append(
                TraceEvent(
                    delta=delta, kind="absorb", agent=idx, center=center, captured=(idx,),
                    remaining=len(remaining),
                )
            )
    return Outcome(frozenset(opened), origin="gc"), Trace(tuple(events))


def plain_fair_greedy_capture(instance, q, seed):
    n, k = instance.n, instance.k
    m = quota(n, k, q, 1)
    rng = random.Random(seed)
    daa = instance.agent_rows
    cand_at_point = {}
    for idx, c in enumerate(instance.candidates):
        cand_at_point.setdefault(c, idx)
    remaining = set(range(n))
    selected = []
    events = []
    last_delta = 0
    while len(remaining) >= m:
        best = None
        for p in sorted(remaining):
            delta = heapq.nsmallest(m, (daa[p][i] for i in remaining))[-1]
            if best is None or (delta, p) < best:
                best = (delta, p)
        delta, p = best
        ball = sorted(i for i in remaining if daa[p][i] <= delta)
        pick = sorted(rng.sample(ball, min(q, len(ball))))
        pick_set = set(pick)
        others = sorted((i for i in ball if i not in pick_set), key=lambda i: (daa[p][i], i))
        deleted = tuple(sorted(pick_set | set(others[: m - len(pick)])))
        remaining -= set(deleted)
        for pos, s in enumerate(pick):
            events.append(
                TraceEvent(
                    delta=delta, kind="open", candidate=cand_at_point[instance.agents[s]],
                    captured=deleted if pos == 0 else (), remaining=len(remaining),
                )
            )
        selected.extend(pick)
        last_delta = delta
    if len(selected) < k:
        pool = sorted(set(range(n)) - set(selected))
        extra = sorted(rng.sample(pool, min(k - len(selected), len(pool))))
        for s in extra:
            events.append(
                TraceEvent(
                    delta=last_delta, kind="open",
                    candidate=cand_at_point[instance.agents[s]], remaining=len(remaining),
                )
            )
        selected.extend(extra)
    centers = frozenset(cand_at_point[instance.agents[s]] for s in selected)
    return Outcome(centers, origin=f"fgc(q={q},seed={seed})"), Trace(tuple(events))


def plain_expanding_approvals(instance, deduct_order=None):
    if deduct_order is None:
        deduct_order = closest_first_order
    n, k = instance.n, instance.k
    table = _table(instance)
    budgets = [k] * n
    funded = n
    closed = list(range(instance.num_candidates))
    opened = []
    events = []
    for delta in sorted({d for row in table for d in row}):
        while len(opened) < k:
            for j in closed:
                ball = [i for i in range(n) if table[i][j] <= delta]
                if sum(budgets[i] for i in ball) >= n:
                    break
            else:
                break
            closed.remove(j)
            opened.append(j)
            events.append(TraceEvent(delta=delta, kind="open", candidate=j, remaining=funded))
            need = n
            for i in deduct_order(ball, {i: table[i][j] for i in ball}):
                if need == 0:
                    break
                take = min(budgets[i], need)
                if take > 0:
                    budgets[i] -= take
                    need -= take
                    if budgets[i] == 0:
                        funded -= 1
                    events.append(
                        TraceEvent(
                            delta=delta, kind="deduct", agent=i, center=j,
                            amount=Fraction(take, n), remaining=funded,
                        )
                    )
    return Outcome(frozenset(opened), origin="ea"), Trace(tuple(events))


def farthest_first(ball, dists):
    return sorted(ball, key=lambda i: (-dists[i], i))


def _same(got, want):
    (out, trace), (plain_out, plain_trace) = got, want
    assert out == plain_out
    assert json.dumps(trace.to_json()) == json.dumps(plain_trace.to_json())


def _check(inst, seeds):
    _same(greedy_capture(inst), plain_greedy_capture(inst))
    for order in (None, farthest_first):
        _same(expanding_approvals(inst, order), plain_expanding_approvals(inst, order))
    if inst.agents_within_candidates():
        with patch.object(algorithms, "expanding_approvals", plain_expanding_approvals):
            plain = restricted_solve(inst, "ea")
        _same(restricted_solve(inst, "ea"), plain)
    if inst.agents_equal_candidates():
        for q in range(1, inst.k + 1):
            for seed in seeds:
                _same(fair_greedy_capture(inst, q, seed), plain_fair_greedy_capture(inst, q, seed))


def _mixed_instance(rng):
    """Off-diagonal distances in {1, 2} (always a metric), about half the
    entries cast to float, agents possibly repeated over every point."""
    npts = rng.randint(2, 7)
    rows = [[0] * npts for _ in range(npts)]
    for a in range(npts):
        for b in range(a, npts):
            d = 0 if a == b else rng.randint(1, 2)
            rows[a][b] = rows[b][a] = float(d) if rng.random() < 0.5 else d
    agents = list(range(npts)) + [rng.randrange(npts) for _ in range(rng.randint(0, 3))]
    rng.shuffle(agents)
    return Instance(MetricSpace.from_matrix(rows), agents, "all", rng.randint(1, npts))


def test_rules_match_the_plain_sweep_on_random_instances():
    rng = random.Random(20261018)
    for _ in range(700):
        _check(random_instance(rng, 9, 12, 4), seeds=(0, 1, 2))


def test_rules_match_the_plain_sweep_on_mixed_int_float_matrices():
    rng = random.Random(7)
    for _ in range(500):
        _check(_mixed_instance(rng), seeds=(0, 1, 2, 3))


def _tied_instance(rng, family):
    """24 to 40 agents: euclidean points, on a 4 x 4 grid half the time so
    that many coincide, or a graph whose edges weigh 0 to 3, so that
    zero-weight edges co-locate their ends.  Some agents are repeated, and
    four points are candidates only."""
    npts = rng.randint(20, 30) + 4
    if family == "euclidean":
        if rng.random() < 0.5:
            coords = [[rng.randrange(4) / 3, rng.randrange(4) / 3] for _ in range(npts)]
        else:
            coords = [[rng.random(), rng.random()] for _ in range(npts)]
        space = MetricSpace.from_points(coords)
    else:
        edges = [(rng.randrange(v), v, rng.randint(0, 3)) for v in range(1, npts)]
        edges += [(rng.randrange(v), v, rng.randint(0, 3)) for v in rng.sample(range(1, npts), 8)]
        space = MetricSpace.from_graph(npts, edges)
    agents = list(range(npts - 4))
    agents += [rng.randrange(npts - 4) for _ in range(rng.randint(4, 10))]
    rng.shuffle(agents)
    return Instance(space, agents, "all", rng.randint(2, 8))


def test_capture_and_approvals_match_the_plain_sweep_at_24_to_40_agents():
    rng = random.Random(25)
    for family in ("euclidean", "graph"):
        for _ in range(12):
            inst = _tied_instance(rng, family)
            assert 24 <= inst.n <= 40
            _same(greedy_capture(inst), plain_greedy_capture(inst))
            with patch.object(algorithms, "greedy_capture", plain_greedy_capture):
                plain = restricted_solve(inst, "gc")
            _same(restricted_solve(inst, "gc"), plain)
            for order in (None, farthest_first):
                _same(expanding_approvals(inst, order), plain_expanding_approvals(inst, order))
                runs = []
                for rule in (expanding_approvals, plain_expanding_approvals):
                    with patch.object(
                        algorithms, "expanding_approvals", partial(rule, deduct_order=order)
                    ):
                        runs.append(restricted_solve(inst, "ea"))
                _same(*runs)


# Recorded before expanding approvals kept a running budget sum per ball,
# when each grown ball re-summed its agents' budgets at every threshold.
RECORDED_EA_AT_SCALE_DIGEST = "a1be12e4b210509e4ad5eab4443c17dc0bb9c619620fcead71068d21d625ed3c"


def test_expanding_approvals_at_160_agents_byte_identical():
    records = []
    for family in ("euclidean", "graph"):
        inst = parse_instance(generate_family(family, 160, 5, 1))
        runs = (
            ("ea", lambda: expanding_approvals(inst)),
            ("ea-far", lambda: expanding_approvals(inst, farthest_first)),
            ("ea-restricted", lambda: restricted_solve(inst, "ea")),
        )
        for tag, run in runs:
            outcome, trace = run()
            records.append([family, tag, sorted(outcome.centers), outcome.origin, trace.to_json()])
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_EA_AT_SCALE_DIGEST
