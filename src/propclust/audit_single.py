"""Exact minimal-factor auditors for single-center deviations, and the
deviation scan that the multi-center auditors share.

Three audits: the smallest blocking factor for proportional fairness (a
quota-sized group deviating to one unopened candidate), for individual
fairness (each agent against the radius of its nearest quota of agents), and
for the transferable core (summed distances of a scaled-quota group).

pf and tc are the q = 1, single-candidate case of q-core and q-tc, so all
four run ``deviation_scan``; pf and tc hand it the unopened candidates, the
q-audits every candidate.  The scan is pruned by its incumbent, the best
value so far: a bit-mask test on each agent's candidates with ratio above
the incumbent skips every target that cannot beat it.

All audits report a value together with a witness that reproduces it, and
all arithmetic stays exact whenever the metric is exact.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import combinations
from operator import ge, gt

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
    return Fraction(num, den)


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
    return _single_center(instance, outcome, "pf", {}, 1)


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
    Dinkelbach iteration on the subset-ratio problem.
    """
    g = Fraction(gamma)
    if g < 1:
        raise ValueError("gamma must be at least 1")
    return _single_center(instance, outcome, "tc", {"gamma": g}, g)


def _single_center(instance, outcome, notion, params, gamma):
    """pf and tc: the q = 1 scan over single unopened candidates only."""
    pool = [j for j in range(instance.num_candidates) if j not in outcome.centers]
    best = deviation_scan(instance, outcome, pool, 1, 1, gamma, summed=notion == "tc")
    if best is None:
        return AuditReport(notion, params, 1, None, EXACT)
    value, cands, group, _ = best
    return AuditReport(notion, params, value, Witness(agents=group, candidates=cands), EXACT)


# Relative rounding room of a float group ratio over its members' ratios:
# two sums of at most n terms and one division stay far inside it.
_FLOAT_ROOM = 1e-9


def deviation_scan(instance, outcome, pool, q, size_cap, gamma=1, summed=False):
    """The deviation scan behind pf, tc, q-core and q-tc.

    Scans subsets C' of the candidate indices ``pool`` with sizes q ..
    min(size_cap, k) for the deviation valued highest, measuring each agent
    at its q-th closest point of W and of C'.  With m = quota(n, k, |C'|,
    gamma), a deviation is valued at the m-th largest agent ratio (pf,
    q-core), or, when ``summed``, at the best summed ratio of
    ``max_sum_ratio`` (tc, q-tc).  Returns (value, C', group, |C'|) with C'
    as candidate indices, or None when no deviation is worth 1.

    The first subset in size-then-lexicographic order worth 1 or more
    becomes the incumbent b, and only a strictly larger value replaces it,
    so the witness is the first subset attaining the largest value.  A
    subset is scored only if it can still beat b (reach 1 while there is
    no incumbent).  With r_ij = ratio(d_q(i, W), d(i, j)), agent i's ratio
    at C' is the q-th largest r_ij over C', so it exceeds b exactly when C'
    holds q of the candidates G_i = {j : r_ij > b}.  A valued-at-m
    deviation beats b only if m agents do, which is exact, floats included;
    its top m agents are then among them, so its value is read from the
    ratios above b alone.  A summed one beats b only if one agent does.  A
    float group ratio can round past its members', so on float data a
    summed scan widens G_i by _FLOAT_ROOM and scores every survivor; on
    exact data it scores only the survivors that pass ``may_beat`` at b.
    """
    n, k = instance.n, instance.k
    room = _FLOAT_ROOM if summed and not instance.space.exact else 0
    dqW = dists_to_centers(instance, outcome, q)
    by_candidate = list(zip(*instance.dist_rows))
    dcols = [by_candidate[j] for j in pool]
    width = len(pool)
    # d_q(i, C') of a summed deviation; min is the common q = 1 case
    qth_smallest = min if q == 1 else lambda ds: sorted(ds)[q - 1]

    def hit_masks(columns, incumbent):
        """Keep in each pool column the (i, r_ij) with j in G_i, and return
        them with their agent masks and the number of agents with q
        candidates in G_i at all.  b only rises, so each call filters
        the columns the last one kept."""
        bound, above = (1, ge) if incumbent is None else (incumbent, gt)
        if room:
            bound, above = bound * (1 - room), gt
        columns = [[(i, r) for i, r in column if above(r, bound)] for column in columns]
        hits = [sum(1 << i for i, _ in column) for column in columns]
        return columns, hits, _reach(hits, range(width), q).bit_count()

    # r_ij >= 1 exactly when d_q(i, W) >= d(i, j); only rounding room
    # needs the ratios below 1
    columns = [
        [(i, ratio(w, d)) for i, (w, d) in enumerate(zip(dqW, dcol)) if room or w >= d]
        for dcol in dcols
    ]
    best = None
    columns, hits, reach = hit_masks(columns, None)
    for size in range(q, min(size_cap, width, k) + 1):
        m = quota(n, k, size, gamma)
        need = 1 if summed else m
        if m > n or reach < need:
            break
        for csub in combinations(range(width), size):
            if _reach(hits, csub, q).bit_count() < need:
                continue
            incumbent = None if best is None else best[0]
            if summed:
                pairs = list(zip(dqW, map(qth_smallest, zip(*[dcols[j] for j in csub]))))
                if not room and not may_beat(pairs, m, incumbent):
                    continue
                value, group = max_sum_ratio(pairs, m)
            else:
                kept = [[] for _ in range(n)]
                for j in csub:
                    for i, r in columns[j]:
                        kept[i].append(r)
                terms = [sorted(rs, reverse=True)[q - 1] if len(rs) >= q else 0 for rs in kept]
                value, group = top_group(terms, m)
            if group is not None and (value >= 1 if best is None else value > incumbent):
                best = (value, csub, group, size)
                columns, hits, reach = hit_masks(columns, value)
                if reach < need:
                    break
    if best is None:
        return None
    value, csub, group, size = best
    return value, tuple(pool[j] for j in csub), group, size


def _reach(hits, cands, q):
    """The agents with at least q of ``cands`` in their G_i, as a bit mask:
    ``levels[t]`` collects the agents with more than t so far."""
    levels = [0] * q
    for j in cands:
        h = hits[j]
        for t in range(q - 1, 0, -1):
            levels[t] |= levels[t - 1] & h
        levels[0] |= h
    return levels[-1]


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
