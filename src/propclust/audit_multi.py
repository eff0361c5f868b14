"""Auditors for deviations to groups of q candidates.

These generalize the single-center notions by measuring every agent at its
q-th closest center.  Deviation targets are candidate subsets C' with
q <= |C'|; since the required group size grows with the entitlement while
the target stays fixed, the binding entitlement for a given C' is exactly
|C'|, which reduces the double enumeration to a single capped subset scan.
A hit cap is reported, never silently ignored: a capped value is a certified
lower bound on the exact one.

The scan is pruned by its incumbent, the best value so far.  The first
subset worth 1 or more becomes the incumbent and only a strictly larger
value replaces it.  A subset is scored only if a bit-mask test on each
agent's candidates with ratio above the incumbent says it can still beat
it.  That test is exact for q-core, on float data too.  For q-tc it is
exact on exact data, where a Dinkelbach level-set test at the incumbent
also screens each survivor; on float data it leaves room for rounding and
every survivor is scored.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
from operator import ge, gt

from .audit_single import (
    dists_to_centers,
    max_sum_ratio,
    may_beat,
    radius_scan,
    ratio,
    top_group,
)
from .instance import quota
from .reports import CAP_EXHAUSTED, EXACT, AuditReport, Witness


def default_size_cap(instance):
    return min(instance.k, instance.num_candidates, 6)


def _subset_status(instance, size_cap, gamma):
    """Exact unless target sets above the cap would still be feasible."""
    limit = min(instance.k, instance.num_candidates)
    if size_cap >= limit:
        return EXACT
    if quota(instance.n, instance.k, size_cap + 1, gamma) > instance.n:
        return EXACT
    return CAP_EXHAUSTED


def q_group_min_ratio(instance, outcome, q, agents, cands):
    """Re-evaluate a q-core witness: the worst improvement ratio of
    ``agents`` measured at their q-th closest point of ``cands``."""
    dqW = dists_to_centers(instance, outcome, q)
    vals = []
    for i in agents:
        dqc = heapq.nsmallest(q, (instance.d_ac(i, j) for j in cands))[-1]
        vals.append(ratio(dqW[i], dqc))
    return min(vals)


def q_group_sum_ratio(instance, outcome, q, agents, cands):
    """Re-evaluate a q-transferable-core witness (ratio of summed q-th
    distances)."""
    dqW = dists_to_centers(instance, outcome, q)
    sw = sum(dqW[i] for i in agents)
    sv = sum(
        heapq.nsmallest(q, (instance.d_ac(i, j) for j in cands))[-1] for i in agents
    )
    return ratio(sw, sv) if (sv != 0 or sw != 0) else 1


def q_core_min_alpha(instance, outcome, q, size_cap=None):
    """Smallest blocking factor against deviations to q-of-C' center sets."""
    if q < 1 or q > instance.k:
        raise ValueError("q must satisfy 1 <= q <= k")
    if size_cap is None:
        size_cap = max(q, default_size_cap(instance))
    if size_cap < q:
        raise ValueError("size_cap must be at least q")
    params = {"q": q, "size_cap": size_cap}
    return _q_scan(instance, outcome, "qcore", params, 1)


# Relative rounding room of a float group ratio over its members' ratios:
# two sums of at most n terms and one division stay far inside it.
_FLOAT_ROOM = 1e-9


def _q_scan(instance, outcome, notion, params, gamma):
    """Scan candidate subsets C' of sizes q .. size_cap for the deviation
    valued highest: the m-th largest agent ratio for "qcore", the best
    summed ratio of ``max_sum_ratio`` for "qtc", where m = quota(n, k,
    |C'|, gamma).

    The first subset in size-then-lexicographic order worth 1 or more
    becomes the incumbent b, and only a strictly larger value replaces it,
    so the witness is the first subset attaining the largest value.  A
    subset is scored only if it can still beat b (reach 1 while there is
    no incumbent).  With r_ij = ratio(d_q(i, W), d(i, j)), agent i's ratio
    at C' is the q-th largest r_ij over C', so it exceeds b exactly when C'
    holds q of the candidates G_i = {j : r_ij > b}.  A q-core value beats b
    only if m agents do; a q-tc group ratio only if one agent does.  The
    q-core test is exact, floats included.  A float group ratio can round
    past its members', so on float data q-tc widens G_i by _FLOAT_ROOM and
    scores every survivor; on exact data it scores only the survivors that
    pass ``may_beat`` at b.
    """
    q, size_cap = params["q"], params["size_cap"]
    n, k, nc = instance.n, instance.k, instance.num_candidates
    core = notion == "qcore"
    room = 0 if core or instance.space.exact else _FLOAT_ROOM
    dqW = dists_to_centers(instance, outcome, q)
    rows = instance.dist_rows
    rrows = [[ratio(w, d) for d in row] for w, row in zip(dqW, rows)]

    def hit_masks(incumbent):
        """Per candidate j, the agents i with j in G_i, and the agents
        with q candidates in G_i at all."""
        bound, above = (1, ge) if incumbent is None else (incumbent, gt)
        if room:
            bound, above = bound * (1 - room), gt
        hits = [0] * nc
        for i, rrow in enumerate(rrows):
            for j, r in enumerate(rrow):
                if above(r, bound):
                    hits[j] |= 1 << i
        return hits, _reach(hits, range(nc), q).bit_count()

    best = None
    hits, reach = hit_masks(None)
    top = min(size_cap, nc, k)
    for size in range(q, top + 1):
        m = quota(n, k, size, gamma)
        need = m if core else 1
        if m > n or reach < need:
            break
        for csub in combinations(range(nc), size):
            if _reach(hits, csub, q).bit_count() < need:
                continue
            incumbent = None if best is None else best[0]
            if core:
                terms = [sorted([rrow[j] for j in csub], reverse=True)[q - 1] for rrow in rrows]
                value, group = top_group(terms, m)
            else:
                pairs = [(w, sorted([row[j] for j in csub])[q - 1]) for w, row in zip(dqW, rows)]
                if not room and not may_beat(pairs, m, incumbent):
                    continue
                value, group = max_sum_ratio(pairs, m)
            if group is not None and (value >= 1 if best is None else value > incumbent):
                best = (value, csub, group, size)
                hits, reach = hit_masks(value)
                if reach < need:
                    break
    status = _subset_status(instance, size_cap, gamma)
    if best is None:
        return AuditReport(notion, params, 1, None, status)
    value, csub, group, size = best
    witness = Witness(agents=group, candidates=csub, ell=size)
    return AuditReport(notion, params, value, witness, status)


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


def q_if_min_beta(instance, outcome, q):
    """Largest ratio of q-th-center distance to the q-scaled neighborhood
    radius; needs agents inside the candidate set and k <= n."""
    if not instance.agents_within_candidates():
        raise ValueError("q-IF undefined: agents are not a subset of candidates")
    if instance.k > instance.n:
        raise ValueError("q-IF undefined: k exceeds n")
    if q < 1 or q > len(outcome.centers):
        raise ValueError("q must satisfy 1 <= q <= |W|")
    return radius_scan(instance, outcome, "qif", {"q": q}, q)


def q_tc_min_alpha(instance, outcome, q, gamma=1, size_cap=None):
    """Smallest transferable-core factor for q-of-C' deviations at scale
    gamma, maximizing the ratio of summed q-th-center distances."""
    g = Fraction(gamma)
    if g < 1:
        raise ValueError("gamma must be at least 1")
    if size_cap is None:
        size_cap = max(q, default_size_cap(instance))
    if q < 1 or q > size_cap:
        raise ValueError("q must satisfy 1 <= q <= size_cap")
    params = {"q": q, "gamma": g, "size_cap": size_cap}
    return _q_scan(instance, outcome, "qtc", params, g)
