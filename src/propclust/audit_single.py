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
the incumbent, decided exactly on the integer table ``int_cols``, skips
every target that cannot beat it, except in tc.

All audits report a value together with a witness that reproduces it.  The
summed scans (tc, q-tc) are exact on every space: they read the instance's
integer table ``int_cols``.  pf, if and q-core compare single quotients of
the stored distances, exact whenever the metric is exact and correctly
rounded otherwise.

Every q-th closest center, of W and of C', and each agent's quota-th
closest agent is picked by one helper, ``instance._qth_smallest``: ``min``
at q = 1 and a stable sort otherwise.  Both break ties by position, as
``heapq.nsmallest`` does, so an int, a Fraction or a float comes back as
the very object stored and encodes to the same bytes.

The audits read what they share from the instance.  ``dists_to_centers``
reads the outcome's q-th center distances from the instance's outcome
slot (``Instance.outcome_slot``), which works each (q, table) out once
per outcome; ``radius_scan`` reads each agent's radius from
``Instance.radii``, sorted once per count; the deviation scan reads its
candidate columns from ``Instance.dist_cols`` and ``Instance.int_cols``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .instance import _bits, _qth_smallest, quota
from .metric import _as_gamma
from .reports import EXACT, AuditReport, Witness


def ratio(num, den):
    """num/den with the audit conventions at zero.

    An infinite numerator or a zero denominator with positive numerator is
    an unbounded improvement (inf); zero over zero can never strictly
    improve and counts as 1.  Exact inputs yield a Fraction, anything float
    yields a float; an int is never converted, however wide.
    """
    if num == math.inf:
        return math.inf
    if den == 0:
        return 1 if num == 0 else math.inf
    if num == 0:
        return 0
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num, den)


def dists_to_centers(instance, outcome, q=1, integer=False):
    """Per agent index, the distance to the q-th closest center, read from
    the center columns of ``instance.int_cols`` when ``integer`` and of
    ``instance.dist_cols`` otherwise; inf when the outcome holds fewer
    than q.  A non-candidate center raises.  The tuple is kept in the
    instance's outcome slot, so the outcome's later audits read it back."""
    _, centers, made = instance.outcome_slot(outcome)
    key = (q, integer)
    dists = made.get(key)
    if dists is None:
        if len(centers) < q:
            dists = (math.inf,) * instance.n
        else:
            cols = instance.int_cols if integer else instance.dist_cols
            dists = tuple(map(_qth_smallest(q), zip(*[cols[c] for c in centers])))
        made[key] = dists
    return dists


def top_group(ratios, m):
    """The m agents with the largest ratios (ties to lower index) and the
    group's minimum ratio, i.e. the m-th largest value overall."""
    order = sorted(range(len(ratios)), key=lambda i: (-ratios[i], i))
    group = tuple(sorted(order[:m]))
    return ratios[order[m - 1]], group


def q_group_min_ratio(instance, outcome, q, agents, cands):
    """Re-evaluate a q-core witness: the worst improvement ratio of
    ``agents`` measured at their q-th closest point of ``cands``."""
    dqW = dists_to_centers(instance, outcome, q)
    pick = _qth_smallest(q)
    vals = []
    for i in agents:
        dqc = pick([instance.d_ac(i, j) for j in cands])
        vals.append(ratio(dqW[i], dqc))
    return min(vals)


def q_group_sum_ratio(instance, outcome, q, agents, cands):
    """Re-evaluate a q-transferable-core witness (ratio of summed q-th
    distances)."""
    dqW = dists_to_centers(instance, outcome, q)
    pick = _qth_smallest(q)
    sw = sum(dqW[i] for i in agents)
    sv = sum(pick([instance.d_ac(i, j) for j in cands]) for i in agents)
    return ratio(sw, sv)


def group_min_ratio(instance, outcome, agents, cand):
    """Re-evaluate a proportional-fairness witness: the q-core re-evaluator
    at q = 1 with the one candidate index ``cand``."""
    return q_group_min_ratio(instance, outcome, 1, agents, (cand,))


def group_sum_ratio(instance, outcome, agents, cand):
    """Re-evaluate a transferable-core witness: the q-tc re-evaluator at
    q = 1 with the one candidate index ``cand``."""
    return q_group_sum_ratio(instance, outcome, 1, agents, (cand,))


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
    for i, radius in enumerate(instance.radii(count)):
        value = ratio(dqW[i], radius)
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
    g = Fraction(*_as_gamma(gamma))
    return _single_center(instance, outcome, "tc", {"gamma": g}, g)


def _single_center(instance, outcome, notion, params, gamma):
    """pf and tc: the q = 1 scan over single unopened candidates only."""
    pool = [j for j in range(instance.num_candidates) if j not in outcome.centers]
    best = deviation_scan(instance, outcome, pool, 1, 1, gamma, summed=notion == "tc")
    if best is None:
        return AuditReport(notion, params, 1, None, EXACT)
    value, cands, group = best
    return AuditReport(notion, params, value, Witness(agents=group, candidates=cands), EXACT)


def deviation_scan(instance, outcome, pool, q, size_cap, gamma=1, summed=False):
    """The deviation scan behind pf, tc, q-core and q-tc.

    Scans subsets C' of the candidate indices ``pool`` with sizes q ..
    min(size_cap, k) for the deviation valued highest, measuring each agent
    at its q-th closest point of W and of C'.  With m = quota(n, k, |C'|,
    gamma), a deviation is valued at the m-th largest agent ratio (pf,
    q-core), or, when ``summed``, at the best summed ratio of
    ``max_sum_ratio`` (tc, q-tc).  Returns (value, C', group) with C' as
    candidate indices, or None when no deviation is worth 1.

    The first subset in size-then-lexicographic order worth 1 or more
    becomes the incumbent b, and only a strictly larger value replaces it,
    so the witness is the first subset attaining the largest value.  A
    subset is scored only if it can still beat b (reach 1 while there is
    no incumbent).  With r_ij = ratio(d_q(i, W), d(i, j)), agent i's ratio
    at C' is the q-th largest r_ij over C', so it exceeds b exactly when C'
    holds q of the candidates G_i = {j : r_ij > b}.  A valued-at-m
    deviation beats b only if m agents do; its top m agents are then among
    them, so only those agents are valued, at ratio(d_q(i, W), d_q(i, C'))
    on the stored distances.  A summed one beats b only if one agent does,
    and it is scored only if it passes ``may_beat`` at b.  At q = 1 (tc) a
    summed scan skips the G_i test.

    The sets G_i are held only as bit masks, one per pool column j with
    bit i set when j is in G_i; each new incumbent clears bits of them.
    G_i is decided on the integer table ``instance.int_cols``, by
    cross-multiplication, so it is exact.  A float b (pf and q-core on
    float data) then keeps every j whose float ratio exceeds b, and perhaps
    a few more, and the float comparison with b still decides.  A summed
    scan reads only ``int_cols``, so every comparison it makes is exact, on
    float data too.  A float instance then reports the float re-evaluation
    of the exact witness, ``q_group_sum_ratio``.
    """
    n, k = instance.n, instance.k
    # tc's targets are single candidates, which may_beat screens for less than the masks cost
    unfiltered = summed and q == 1
    dqW = dists_to_centers(instance, outcome, q, summed)
    # every d_q(i, W) is inf when W holds fewer than q centers
    bounded = dqW[0] != math.inf
    by_candidate = instance.int_cols if summed else instance.dist_cols
    dcols = [by_candidate[j] for j in pool]
    width = len(pool)
    # d_q(i, C')
    qth_smallest = _qth_smallest(q)

    def hit_masks(hits, incumbent):
        """Each pool column's agent mask, bit i set when j is in G_i, and
        the number of agents with q candidates in G_i at all.  At 1 (no
        incumbent) the masks are built from the integer table: r_ij >= 1
        exactly when d_q(i, W) >= d(i, j).  b only rises, so each later
        call keeps the set bits of the last masks with r_ij > b = p/r,
        decided as d_q(i, W) * r > p * d(i, j); no ratio is above an
        infinite b."""
        if incumbent is None:
            hits = [
                sum(1 << i for i, (w, d) in enumerate(zip(iW, icol)) if w >= d) for icol in icols
            ]
        elif incumbent == math.inf:
            hits = [0] * width
        else:
            p, r = incumbent.as_integer_ratio()
            hits = [
                sum(1 << i for i in _bits(h) if iW[i] * r > p * icol[i])
                for h, icol in zip(hits, icols)
            ]
        return hits, _reach(hits, range(width), q).bit_count()

    best = None
    reach = n
    if not unfiltered:
        if summed:
            iW, icols = dqW, dcols
        else:
            iW = dists_to_centers(instance, outcome, q, True)
            by_int = instance.int_cols
            icols = [by_int[j] for j in pool]
        hits, reach = hit_masks(None, None)
    for size in range(q, min(size_cap, width, k) + 1):
        m = quota(n, k, size, gamma)
        need = 1 if summed else m
        if m > n or reach < need:
            break
        for csub in combinations(range(width), size):
            if not unfiltered:
                reached = _reach(hits, csub, q)
                if reached.bit_count() < need:
                    continue
            incumbent = None if best is None else best[0]
            if summed:
                pairs = list(zip(dqW, map(qth_smallest, zip(*[dcols[j] for j in csub]))))
                if bounded and not may_beat(pairs, m, incumbent):
                    continue
                value, group = max_sum_ratio(pairs, m)
            else:
                terms = [0] * n
                for i in _bits(reached):
                    terms[i] = ratio(dqW[i], qth_smallest([dcols[j][i] for j in csub]))
                value, group = top_group(terms, m)
            if group is not None and (value >= 1 if best is None else value > incumbent):
                best = (value, csub, group)
                if not unfiltered:
                    hits, reach = hit_masks(hits, value)
                elif value == math.inf:
                    reach = 0
                if reach < need:
                    break
    if best is None:
        return None
    value, csub, group = best
    cands = tuple(pool[j] for j in csub)
    if summed and not instance.space.exact:
        value = q_group_sum_ratio(instance, outcome, q, group, cands)
    return value, cands, group


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
    """Dinkelbach's level set on exact ``pairs`` (w, v), v >= 0, at the
    bound b = p/q: ``incumbent``, or 1 while there is none (None).

    Of the index sets of at least m pairs, the one with the largest sum of
    margins q*w - p*v holds the m largest margins, ties to the lower index,
    and every later positive one; integer pairs keep the margins integers.
    That set is returned, unordered, when its sum is positive, or zero
    while there is no incumbent, and None otherwise: exactly when some set
    of at least m pairs has sum(w)/sum(v) above b (at 1 or above while there
    is no incumbent).  A set of zero-denominator pairs with positive
    numerator has a positive sum, so it always passes.  Every w must be
    finite.
    """
    bound = 1 if incumbent is None else incumbent
    p, q = bound.numerator, bound.denominator
    margins = [q * w - p * v for w, v in pairs]
    order = sorted(range(len(margins)), key=margins.__getitem__, reverse=True)
    chosen = order[:m] + [i for i in order[m:] if margins[i] > 0]
    gain = sum(margins[i] for i in chosen)
    return chosen if gain > 0 or (gain == 0 and incumbent is None) else None


def max_sum_ratio(pairs, m):
    """Maximize sum(w)/sum(v) over index sets of size >= m.

    ``pairs`` is a list of exact (w, v) with v >= 0; w may be inf.  Returns
    (value, group) where group attains the value, or (0, None) when no
    group can have a positive numerator.  The value is inf when some
    feasible all-zero-denominator group has positive numerator, or some w
    is inf.  Dinkelbach iteration: from t = 0, each level set of
    ``may_beat`` that beats t has a strictly larger ratio, so t rises
    through finitely many subset ratios and ends at the exact optimum.
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
    t, group = 0, None
    while (chosen := may_beat(pairs, m, t)) is not None:
        t = ratio(sum(pairs[i][0] for i in chosen), sum(pairs[i][1] for i in chosen))
        group = chosen
    return t, None if group is None else tuple(sorted(group))
