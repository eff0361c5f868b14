"""Auditors for deviations to groups of q candidates.

These generalize the single-center notions by measuring every agent at its
q-th closest center.  Deviation targets are candidate subsets C' with
q <= |C'|; since the required group size grows with the entitlement while
the target stays fixed, the binding entitlement for a given C' is exactly
|C'|, which reduces the double enumeration to a single capped subset scan.
A hit cap is reported, never silently ignored: a capped value is a certified
lower bound on the exact one.

q-core and q-tc run ``audit_single.deviation_scan``, the incumbent-pruned
scan that pf and tc share, over every candidate subset up to the cap.
Their witness re-evaluators, ``q_group_min_ratio`` and
``q_group_sum_ratio``, live in ``audit_single`` too, since pf's and tc's
are their q = 1 case, and are importable from here.
"""

from __future__ import annotations

from fractions import Fraction

from .audit_single import deviation_scan, q_group_min_ratio, q_group_sum_ratio, radius_scan
from .instance import quota
from .metric import _as_gamma
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


def q_core_min_alpha(instance, outcome, q, size_cap=None):
    """Smallest blocking factor against deviations to q-of-C' center sets."""
    if q < 1 or q > instance.k:
        raise ValueError("q must satisfy 1 <= q <= k")
    if size_cap is None:
        size_cap = max(q, default_size_cap(instance))
    if size_cap < q:
        raise ValueError("size_cap must be at least q")
    params = {"q": q, "size_cap": size_cap}
    return _q_report(instance, outcome, "qcore", params, 1)


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
    g = Fraction(*_as_gamma(gamma))
    if size_cap is None:
        size_cap = max(q, default_size_cap(instance))
    if q < 1 or q > size_cap:
        raise ValueError("q must satisfy 1 <= q <= size_cap")
    params = {"q": q, "gamma": g, "size_cap": size_cap}
    return _q_report(instance, outcome, "qtc", params, g)


def _q_report(instance, outcome, notion, params, gamma):
    """q-core and q-tc: the scan over all candidate subsets up to the cap."""
    q, size_cap = params["q"], params["size_cap"]
    pool = range(instance.num_candidates)
    best = deviation_scan(instance, outcome, pool, q, size_cap, gamma, summed=notion == "qtc")
    status = _subset_status(instance, size_cap, gamma)
    if best is None:
        return AuditReport(notion, params, 1, None, status)
    value, cands, group = best
    witness = Witness(agents=group, candidates=cands, ell=len(cands))
    return AuditReport(notion, params, value, witness, status)
