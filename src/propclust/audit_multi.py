"""Auditors for deviations to groups of q candidates.

These generalize the single-center notions by measuring every agent at its
q-th closest center.  Deviation targets are candidate subsets C' with
q <= |C'|; since the required group size grows with the entitlement while
the target stays fixed, the binding entitlement for a given C' is exactly
|C'|, which reduces the double enumeration to a single capped subset scan.
A hit cap is reported, never silently ignored: a capped value is a certified
lower bound on the exact one.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations

from .audit_single import dists_to_centers, max_sum_ratio, radius_scan, ratio, top_group
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
    return _q_scan(instance, outcome, "qcore", params, 1, ratio, top_group)


def _q_scan(instance, outcome, notion, params, gamma, term, score):
    """Scan candidate subsets C' of sizes q .. size_cap for the deviation
    that ``score`` values highest.

    Each agent contributes ``term(d_q(i, W), d_q(i, C'))``; ``score`` maps
    those terms and the group size quota(n, k, |C'|, gamma) to (value,
    group), with group None when no group qualifies.  The first subset in
    size-then-lexicographic order with the largest value is the witness.
    """
    q, size_cap = params["q"], params["size_cap"]
    n, k = instance.n, instance.k
    dqW = dists_to_centers(instance, outcome, q)
    rows = instance.dist_rows
    best = None
    top = min(size_cap, instance.num_candidates, k)
    for size in range(q, top + 1):
        m = quota(n, k, size, gamma)
        if m > n:
            break
        for csub in combinations(range(instance.num_candidates), size):
            terms = [
                term(w, heapq.nsmallest(q, (row[j] for j in csub))[-1])
                for w, row in zip(dqW, rows)
            ]
            value, group = score(terms, m)
            if group is not None and (best is None or value > best[0]):
                best = (value, csub, group, size)
    status = _subset_status(instance, size_cap, gamma)
    if best is None or best[0] < 1:
        return AuditReport(notion, params, 1, None, status)
    value, csub, group, size = best
    witness = Witness(agents=group, candidates=csub, ell=size)
    return AuditReport(notion, params, value, witness, status)


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
    return _q_scan(instance, outcome, "qtc", params, g, lambda w, v: (w, v), max_sum_ratio)
