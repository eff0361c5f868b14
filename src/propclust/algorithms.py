"""Radius-sweep clustering rules with replayable traces.

All three rules conceptually grow a radius delta around candidates and act
when enough agents fall inside a ball.  Nothing changes between consecutive
realized distances, so the smooth sweep is discretized to the finite sorted
distance set without loss.  Tie-breaking is lowest-index-first everywhere
and is part of the contract: identical inputs (and seed, where one applies)
give bit-identical outcomes and traces.

* greedy capture: opens a candidate once a full quota of uncaptured agents
  is within delta, capturing them; captured-by-proximity agents are absorbed
  by open centers as the radius grows.  May open fewer than k centers.
* expanding approvals: every agent holds budget k/n; a candidate opens when
  the agents within delta jointly hold one unit, which is collected
  closest-first (the deduction order is a pluggable policy).  Budgets are
  held as integers in units of 1/n.
* fair greedy capture: randomized rule for instances whose agents are
  exactly the candidate set; each captured ball elects q of its members
  uniformly at random, and the committee is topped up with uniformly random
  unselected agents at the end.

All three walk a threshold sweep that the instance sorted once,
``approval_sweep`` or ``proximity_sweep`` (d is within delta when
``d <= delta``).  A ball's count of uncaptured agents, or sum of budgets,
only falls while the ball does not grow, so the rules re-check only grown
balls, in one ascending pass: a ball that fails stays failed at that
threshold.  The capture rules re-count a grown ball off its mask
(``_growing_masks``); greedy capture's absorb step, too, walks only the
open balls that grew, since a threshold leaves no uncaptured agent in an
open ball.  Expanding approvals reads the entering pairs
(``_entering_pairs``) and keeps each candidate's ball budget as a running
sum: an agent's budget is added as it enters a ball, and each deduction is
subtracted from every ball that holds the agent, which a per-agent list of
candidates names.  So a threshold costs only the pairs that enter at it,
and only a ball whose sum reached n as it grew is checked.  Capture events
take delta from the distance table, so a matrix mixing ``0`` and ``0.0``
traces the value stored.  Restricted mode runs gc or ea on the sub-instance
that each instance builds once (``Instance.restricted``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .instance import Outcome, _bits, _entering_pairs, _growing_masks, quota
from .metric import _as_id
from .reports import encode_value


@dataclass(frozen=True)
class TraceEvent:
    delta: object
    kind: str  # "open" | "absorb" | "deduct"
    candidate: int | None = None
    agent: int | None = None
    center: int | None = None
    amount: object = None
    captured: tuple = ()
    remaining: int = 0

    def to_json(self):
        data = {
            "delta": encode_value(self.delta),
            "kind": self.kind,
            "remaining": self.remaining,
        }
        if self.candidate is not None:
            data["candidate"] = self.candidate
        if self.agent is not None:
            data["agent"] = self.agent
        if self.center is not None:
            data["center"] = self.center
        if self.amount is not None:
            data["amount"] = encode_value(self.amount)
        if self.captured:
            data["captured"] = list(self.captured)
        return data


@dataclass(frozen=True)
class Trace:
    events: tuple

    def to_json(self):
        return [e.to_json() for e in self.events]


def greedy_capture(instance):
    """Quota-ball sweep; returns (Outcome, Trace).

    At each threshold, while fewer than k centers are open, the
    lowest-index closed candidate with a quota of uncaptured agents in its
    ball opens and captures every uncaptured agent there.  Then each
    uncaptured agent in the ball of an open center, in index order, is
    absorbed by the lowest-index such center.
    """
    if instance.num_candidates == 0:
        raise ValueError("empty candidate set")
    n, k = instance.n, instance.k
    m = quota(n, k, 1, 1)
    cols = instance.dist_cols
    remaining = (1 << n) - 1
    opened = []
    open_mask = 0
    events = []
    for balls, _, grew in _growing_masks(instance.approval_sweep):
        for j in _bits(grew):
            if len(opened) == k or remaining.bit_count() < m:
                break
            ball = balls[j] & remaining
            if open_mask >> j & 1 or ball.bit_count() < m:
                continue
            remaining ^= ball
            opened.append(j)
            open_mask |= 1 << j
            captured = tuple(_bits(ball))
            events.append(
                TraceEvent(
                    delta=sorted(map(cols[j].__getitem__, captured))[m - 1],
                    kind="open",
                    candidate=j,
                    captured=captured,
                    remaining=remaining.bit_count(),
                )
            )
        # an open ball that did not grow holds no uncaptured agent, as the
        # previous threshold absorbed them all (and a center opened here is
        # in grew), so the lowest-index open ball holding one is a grown one
        owner = {}
        for w in _bits(grew & open_mask):
            for i in _bits(balls[w] & remaining):
                owner.setdefault(i, w)
        for i in sorted(owner):
            remaining ^= 1 << i
            events.append(
                TraceEvent(
                    delta=cols[owner[i]][i],
                    kind="absorb",
                    agent=i,
                    center=owner[i],
                    captured=(i,),
                    remaining=remaining.bit_count(),
                )
            )
        if not remaining:
            break
    outcome = Outcome(frozenset(opened), origin="gc")
    return outcome, Trace(tuple(events))


def closest_first_order(ball, dists):
    """Default deduction policy: by distance, ties by agent index."""
    return sorted(ball, key=lambda i: (dists[i], i))


def expanding_approvals(instance, deduct_order=None):
    """Budgeted sweep; returns (Outcome, Trace).

    ``deduct_order`` maps (ball agents, distance row) to the order in which
    budgets are zeroed when a candidate opens; an order that leaves part of
    the unit unpaid raises ValueError naming the candidate.
    """
    if instance.num_candidates == 0:
        raise ValueError("empty candidate set")
    if deduct_order is None:
        deduct_order = closest_first_order
    n, k = instance.n, instance.k
    cols = instance.dist_cols
    sweep = instance.approval_sweep
    budgets = [k] * n  # in units of 1/n: an opening costs n
    funded = n  # agents with a positive budget
    sums = [0] * sweep.width  # per candidate, the budget its ball holds
    holders = [[] for _ in range(n)]  # per agent, the candidates whose balls hold it
    opened = []
    events = []
    for delta, pairs in zip(sweep.ys, _entering_pairs(sweep)):
        if len(opened) == k:
            break
        # a sum only falls within a threshold, so only a ball whose sum
        # reached n as it grew can open at it
        reached = []
        for j, i in pairs:
            sums[j] += budgets[i]
            holders[i].append(j)
            if sums[j] >= n:
                reached.append(j)
        if not reached:
            continue
        for j in sorted(set(reached)):
            if len(opened) == k:
                break
            if j in opened or sums[j] < n:
                continue
            ball = [i for i, held in enumerate(holders) if j in held]
            opened.append(j)
            events.append(TraceEvent(delta=delta, kind="open", candidate=j, remaining=funded))
            need = n
            col = cols[j]
            for i in deduct_order(ball, {i: col[i] for i in ball}):
                if need == 0:
                    break
                take = min(budgets[i], need)
                if take > 0:
                    budgets[i] -= take
                    need -= take
                    for c in holders[i]:
                        sums[c] -= take
                    if budgets[i] == 0:
                        funded -= 1
                    events.append(
                        TraceEvent(
                            delta=delta,
                            kind="deduct",
                            agent=i,
                            center=j,
                            amount=Fraction(take, n),
                            remaining=funded,
                        )
                    )
            if need:
                raise ValueError(f"deduct_order left {Fraction(need, n)} unpaid at candidate {j}")
    outcome = Outcome(frozenset(opened), origin="ea")
    return outcome, Trace(tuple(events))


def fair_greedy_capture(instance, q, seed):
    """Randomized quota-ball sweep over agents; needs agents == candidates.

    Returns (Outcome, Trace); identical seeds give identical results.  Balls
    that can no longer reach the quota leave their agents uncaptured, and
    the final committee is filled up to k with uniformly random agents that
    were never selected.
    """
    q = _as_id(q, "q")
    if q < 1 or q > instance.k:
        raise ValueError("q must satisfy 1 <= q <= k")
    if not instance.agents_equal_candidates():
        raise ValueError("rule defined only when agents and candidates coincide")
    n, k = instance.n, instance.k
    m = quota(n, k, q, 1)
    rng = random.Random(seed)
    daa = instance.agent_rows
    cand_at_point = instance.candidate_at_point
    remaining = (1 << n) - 1
    selected = []
    events = []
    last_delta = 0
    for balls, _, grew in _growing_masks(instance.proximity_sweep):
        for p in _bits(grew):
            # p may survive its own capture, so it is checked again
            while remaining >> p & 1 and (balls[p] & remaining).bit_count() >= m:
                ball = _bits(balls[p] & remaining)
                delta = sorted(daa[p][i] for i in ball)[m - 1]
                pick = sorted(rng.sample(ball, min(q, len(ball))))
                pick_set = set(pick)
                others = sorted(
                    (i for i in ball if i not in pick_set), key=lambda i: (daa[p][i], i)
                )
                deleted = tuple(sorted(pick_set | set(others[: m - len(pick)])))
                for i in deleted:
                    remaining ^= 1 << i
                for pos, s in enumerate(pick):
                    events.append(
                        TraceEvent(
                            delta=delta,
                            kind="open",
                            candidate=cand_at_point[instance.agents[s]],
                            captured=deleted if pos == 0 else (),
                            remaining=remaining.bit_count(),
                        )
                    )
                selected.extend(pick)
                last_delta = delta
        if remaining.bit_count() < m:
            break
    if len(selected) < k:
        pool = sorted(set(range(n)) - set(selected))
        extra = sorted(rng.sample(pool, min(k - len(selected), len(pool))))
        for s in extra:
            events.append(
                TraceEvent(
                    delta=last_delta,
                    kind="open",
                    candidate=cand_at_point[instance.agents[s]],
                    remaining=remaining.bit_count(),
                )
            )
        selected.extend(extra)
    centers = frozenset(cand_at_point[instance.agents[s]] for s in selected)
    outcome = Outcome(centers, origin=f"fgc(q={q},seed={seed})")
    return outcome, Trace(tuple(events))


def restricted_solve(instance, rule):
    """Run a rule with the candidate set narrowed to the agents' points.

    The rule runs on the instance's cached sub-instance
    (``Instance.restricted``), built on the first call and shared by both
    rules, so only the run and the remapping of its trace are per call.
    The returned outcome refers to the original candidate indices and is
    tagged restricted.  Useful when the full candidate set is large: the
    narrowed run keeps constant-factor fairness on the full instance.
    """
    if rule not in ("gc", "ea"):
        raise ValueError(f"unknown rule {rule!r}")
    if not instance.agents_within_candidates():
        raise ValueError("restricted mode needs agents inside the candidate set")
    sub, parent = instance.restricted
    if rule == "gc":
        out, trace = greedy_capture(sub)
    else:
        out, trace = expanding_approvals(sub)
    centers = frozenset(parent[j] for j in out.centers)
    # parent.get keeps a missing candidate or center as None
    events = tuple(
        TraceEvent(
            e.delta,
            e.kind,
            parent.get(e.candidate),
            e.agent,
            parent.get(e.center),
            e.amount,
            e.captured,
            e.remaining,
        )
        for e in trace.events
    )
    outcome = Outcome(centers, origin=f"{rule}-restricted")
    return outcome, Trace(events)
