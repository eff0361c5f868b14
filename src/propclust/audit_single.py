"""Exact minimal-factor auditors for single-center deviations.

Three audits: the smallest blocking factor for proportional fairness (a
quota-sized group deviating to one unopened candidate), for individual
fairness (each agent against the radius of its nearest quota of agents), and
for the transferable core (summed distances of a scaled-quota group).

All three report a value together with a witness that reproduces it, and all
arithmetic stays exact whenever the metric is exact.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .instance import quota
from .reports import EXACT, AuditReport, Witness


def ratio(num, den):
    """num/den with the audit conventions at zero.

    A zero denominator with positive numerator is an unbounded improvement
    (inf); zero over zero can never strictly improve and counts as 1.
    Exact inputs yield a Fraction, anything float yields a float.
    """
    if den == 0:
        return 1 if num == 0 else math.inf
    if num == 0:
        return 0
    if isinstance(num, float) or isinstance(den, float) or math.isinf(num):
        return num / den
    return Fraction(num) / Fraction(den)


def dists_to_centers(instance, outcome, q=1):
    """Per agent index, the distance to the q-th closest center; inf when
    the outcome holds fewer than q centers."""
    centers = outcome.sorted_centers()
    if len(centers) < q:
        return [math.inf] * instance.n
    return [heapq.nsmallest(q, (row[c] for c in centers))[-1] for row in instance.dist_rows]


def top_group(ratios, m):
    """The m agents with the largest ratios (ties to lower index) and the
    group's minimum ratio, i.e. the m-th largest value overall."""
    order = sorted(range(len(ratios)), key=lambda i: (-ratios[i], i))
    group = tuple(sorted(order[:m]))
    return ratios[order[m - 1]], group


def group_min_ratio(instance, outcome, agents, cand):
    """Re-evaluate a proportional-fairness witness: the worst improvement
    ratio of ``agents`` deviating to candidate index ``cand``."""
    dW = dists_to_centers(instance, outcome)
    return min(ratio(dW[i], instance.d_ac(i, cand)) for i in agents)


def group_sum_ratio(instance, outcome, agents, cand):
    """Re-evaluate a transferable-core witness: ratio of summed center
    distances to summed distances to candidate index ``cand``."""
    dW = dists_to_centers(instance, outcome)
    sw = sum(dW[i] for i in agents)
    sv = sum(instance.d_ac(i, cand) for i in agents)
    return ratio(sw, sv) if (sv != 0 or sw != 0) else 1


def pf_min_alpha(instance, outcome):
    """Smallest factor at which no quota-sized group prefers one unopened
    candidate; 1 means fully proportional."""
    n, k = instance.n, instance.k
    m = quota(n, k, 1, 1)
    dW = dists_to_centers(instance, outcome)
    best = None
    if m <= n:
        for j in range(instance.num_candidates):
            if j in outcome.centers:
                continue
            ratios = [ratio(w, row[j]) for w, row in zip(dW, instance.dist_rows)]
            value, group = top_group(ratios, m)
            if best is None or value > best[0]:
                best = (value, j, group)
    if best is None or best[0] < 1:
        return AuditReport("pf", {}, 1, None, EXACT)
    value, j, group = best
    return AuditReport("pf", {}, value, Witness(agents=group, candidates=(j,)), EXACT)


def if_min_beta(instance, outcome):
    """Largest agent-wise ratio of center distance to neighborhood radius.

    Defined only when every agent point is also a candidate point.
    """
    if not instance.agents_within_candidates():
        raise ValueError("IF undefined: agents are not a subset of candidates")
    return radius_scan(instance, outcome, "if", {}, 1)


def radius_scan(instance, outcome, notion, params, q):
    """The individual-fairness scan behind ``if`` (q = 1) and ``qif``.

    Each agent's q-th center distance is divided by the radius of its
    nearest quota(n, k, q) agents, the agent itself included; the largest
    ratio is the value and the lowest-index agent attaining it the witness.
    """
    count = quota(instance.n, instance.k, q, 1)
    if count > instance.n:
        raise ValueError("count exceeds number of agents")
    dqW = dists_to_centers(instance, outcome, q)
    best = None
    for i, row in enumerate(instance.agent_rows):
        value = ratio(dqW[i], heapq.nsmallest(count, row)[-1])
        if best is None or value > best[0]:
            best = (value, i)
    value, i = best
    if value < 1:
        return AuditReport(notion, params, 1, None, EXACT)
    return AuditReport(notion, params, value, Witness(agents=(i,)), EXACT)


def tc_min_alpha(instance, outcome, gamma=1):
    """Smallest factor for the transferable core at scale ``gamma``.

    Maximizes sum(d(i,W)) / sum(d(i,c)) over candidates c outside the
    outcome and groups of at least ceil(gamma * n / k) agents, exactly, via
    Dinkelbach iteration on the subset-ratio problem.  The first candidate
    worth 1 or more becomes the incumbent and only a strictly larger value
    replaces it; on exact data a candidate that ``may_beat`` rules out is
    never iterated.
    """
    g = Fraction(gamma)
    if g < 1:
        raise ValueError("gamma must be at least 1")
    n, k = instance.n, instance.k
    m = quota(n, k, 1, g)
    dW = dists_to_centers(instance, outcome)
    params = {"gamma": g}
    exact = instance.space.exact
    best = None
    if m <= n:
        for j in range(instance.num_candidates):
            if j in outcome.centers:
                continue
            pairs = [(w, row[j]) for w, row in zip(dW, instance.dist_rows)]
            incumbent = None if best is None else best[0]
            if exact and not may_beat(pairs, m, incumbent):
                continue
            value, group = max_sum_ratio(pairs, m)
            if group is not None and (value >= 1 if best is None else value > incumbent):
                best = (value, j, group)
    if best is None:
        return AuditReport("tc", params, 1, None, EXACT)
    value, j, group = best
    return AuditReport("tc", params, value, Witness(agents=group, candidates=(j,)), EXACT)


def may_beat(pairs, m, incumbent):
    """Dinkelbach's level-set test on exact ``pairs`` (w, v).

    False only when no index set of at least m pairs has sum(w)/sum(v)
    above ``incumbent``, or, while there is none (None), at 1 or above.
    With bound b = P/Q, the largest sum of Q*w - P*v over such sets is
    then negative, or zero with an incumbent; integer data stays in
    integers.  An all-zero-denominator group with positive numerator has a
    positive sum, so it always passes.  Infinite w or incumbent are not
    tested.
    """
    bound = 1 if incumbent is None else incumbent
    if bound == math.inf or any(w == math.inf for w, _ in pairs):
        return True
    p, q = bound.numerator, bound.denominator
    margins = sorted((q * w - p * v for w, v in pairs), reverse=True)
    gain = sum(margins[:m]) + sum(g for g in margins[m:] if g > 0)
    return gain > 0 or (gain == 0 and incumbent is None)


def max_sum_ratio(pairs, m):
    """Maximize sum(w)/sum(v) over index sets of size >= m.

    ``pairs`` is a list of (w, v) with v >= 0.  Returns (value, group) where
    group attains the value, or (0, None) when no group can have a positive
    numerator.  The value is inf when some feasible all-zero-denominator
    group has positive numerator.  Dinkelbach iteration: finitely many
    breakpoints, so exact data terminates at the exact optimum.
    """
    n = len(pairs)
    if m > n or m < 1:
        return 0, None
    zero_den = [i for i, (w, v) in enumerate(pairs) if v == 0]
    if len(zero_den) >= m and any(pairs[i][0] > 0 for i in zero_den):
        zero_den.sort(key=lambda i: (-pairs[i][0], i))
        return math.inf, tuple(sorted(zero_den[:m]))
    if any(w == math.inf for w, _ in pairs):
        group = tuple(sorted(range(n), key=lambda i: (-pairs[i][0], i))[:m])
        return math.inf, group

    exact = not any(isinstance(w, float) or isinstance(v, float) for w, v in pairs)

    def level_set(t):
        margins = [(pairs[i][0] - t * pairs[i][1], i) for i in range(n)]
        margins.sort(key=lambda mi: (-mi[0], mi[1]))
        chosen = [i for _, i in margins[:m]]
        chosen += [i for mg, i in margins[m:] if mg > 0]
        gain = sum(mg for mg, _ in margins[:m]) + sum(
            mg for mg, _ in margins[m:] if mg > 0
        )
        # ascending-index sums keep reported values bit-identical to a
        # re-evaluation of the witness
        return sorted(chosen), gain

    start, _ = level_set(0)
    sw = sum(pairs[i][0] for i in start)
    sv = sum(pairs[i][1] for i in start)
    if sw == 0:
        return 0, None
    t = ratio(sw, sv)
    group = tuple(sorted(start))
    for _ in range(100_000):
        chosen, gain = level_set(t)
        eps = 0 if exact else 1e-12 * max(1.0, abs(t))
        if gain <= eps:
            return t, group
        sw = sum(pairs[i][0] for i in chosen)
        sv = sum(pairs[i][1] for i in chosen)
        t_next = ratio(sw, sv)
        if t_next <= t:
            return t, group
        t = t_next
        group = tuple(sorted(chosen))
    raise RuntimeError("ratio maximization did not converge")
