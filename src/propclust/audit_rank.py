"""Pass/fail auditors for distance-threshold representation axioms.

Each axiom quantifies over every distance threshold y: at threshold y an
agent approves the candidates within distance y, and the committee must
treat every large-and-cohesive group proportionally.  Approval sets change
only at realized agent-candidate distances, so auditing the finite sorted
threshold list is equivalent to auditing all real y.

All five axioms run through one incremental scan.  The (distance, row,
bit) pairs are sorted once and OR-ed into the approval, adjacency and
winner bitmasks as the threshold grows.  The sweep is
``instance._growing_masks``, which expanding approvals reads too, and the
within-y rule is the metric space's ``limit`` (exact on exact data, a
small slack on floats); each axiom supplies only what it searches at one
threshold, and the quotas are computed once per call.

The justified-representation check runs in polynomial time.  The stronger
checks enumerate (cohesive target set, cover set) pairs exactly: a violating
group always induces such a pair, and any found pair certifies a violation,
so verdicts are exact whenever the search completes within its node budget.
A "pass" returned after an exhausted budget is flagged, never silent.

The diameter-anchored axiom (no candidate reference) searches for a
violating group as a bounded-diameter clique over agents, via index-ordered
branch and bound under the same budget rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .instance import _approvals, _bits, _growing_masks, quota
from .reports import CAP_EXHAUSTED, EXACT, PASS, VIOLATION, AuditReport, RankViolation


@dataclass(frozen=True)
class Caps:
    """Budget on enumerated search nodes across one audit call."""

    node_budget: int = 1_000_000


class _BudgetExceeded(Exception):
    pass


def thresholds(instance):
    """Sorted distinct agent-candidate distances; the only y values at
    which any approval set can change."""
    return list(instance.levels)


def _proximity(instance):
    """Sweep over the agent-agent distances (and 0): per agent, a mask of
    the other agents within the threshold."""
    rows = instance.agent_rows
    pairs = [(d, i, j) for i, row in enumerate(rows) for j, d in enumerate(row) if i != j]
    # the int 0 comes first, so co-located float points cannot make it 0.0
    return sorted({0} | {d for d, _, _ in pairs}), instance.n, pairs


def _cover_sets(quotas, centers, wmasks):
    """Yield (ell, m, umask) for every cover set worth searching.

    For each (ell, m) of ``quotas``, and for each set Y of
    min(ell - 1, |W|) center positions in combinations order, umask holds
    the agents approving no center outside Y, so any group inside it
    approves fewer than ell centers.  Cover sets leaving fewer than m such
    agents are skipped.
    """
    n = len(wmasks)
    for ell, m in quotas:
        for ysub in combinations(range(len(centers)), min(ell - 1, len(centers))):
            ymask = 0
            for p in ysub:
                ymask |= 1 << p
            umask = 0
            for i in range(n):
                if wmasks[i] & ~ymask == 0:
                    umask |= 1 << i
            if umask.bit_count() >= m:
                yield ell, m, umask


def _violation(notion, y, ell, group, cands, centers, wmasks):
    seen = 0
    for i in group:
        seen |= wmasks[i]
    covered = tuple(centers[p] for p in _bits(seen))
    return RankViolation(notion, y, ell, group, witness_candidates=cands, covered_winners=covered)


def _threshold_scan(instance, outcome, caps, notion, find, sweep):
    """Run ``find`` at every threshold of ``sweep = (ys, width, pairs)``
    until it returns a violation.

    ``find`` gets the (ell, quota) pairs for ell = 1 .. k, the sweep's
    ``width`` masks and, per agent, the mask of center positions within the
    threshold.  Both mask lists change in place at the next threshold, so
    ``find`` copies out whatever it returns.
    """
    ys, width, pairs = sweep
    n, k = instance.n, instance.k
    quotas = [(ell, quota(n, k, ell, 1)) for ell in range(1, k + 1)]
    centers = outcome.sorted_centers()
    rows = instance.dist_rows
    wpairs = [(row[c], i, p) for i, row in enumerate(rows) for p, c in enumerate(centers)]
    limit = instance.space.limit
    grown = zip(ys, _growing_masks(width, pairs, ys, limit), _growing_masks(n, wpairs, ys, limit))
    budget = [caps.node_budget]
    try:
        for y, masks, wmasks in grown:
            hit = find(quotas, centers, masks, wmasks, y, budget, notion)
            if hit is not None:
                return AuditReport(notion, {}, VIOLATION, hit, EXACT)
    except _BudgetExceeded:
        return AuditReport(notion, {}, PASS, None, CAP_EXHAUSTED)
    return AuditReport(notion, {}, PASS, None, EXACT)


def _jr_at_threshold(quotas, centers, cols, wmasks, y, budget, notion):
    _, m = quotas[0]
    uncovered = 0
    for i, wmask in enumerate(wmasks):
        if not wmask:
            uncovered |= 1 << i
    if uncovered.bit_count() < m:
        return None
    for j, col in enumerate(cols):
        group = col & uncovered
        if group.bit_count() >= m:
            return _violation(notion, y, 1, tuple(_bits(group)), (j,), centers, wmasks)
    return None


def _pjr_at_threshold(quotas, centers, cols, wmasks, y, budget, notion):
    for ell, m, umask in _cover_sets(quotas, centers, wmasks):
        frequent = [j for j, col in enumerate(cols) if (col & umask).bit_count() >= m]
        if len(frequent) < ell:
            continue
        for tsub in combinations(frequent, ell):
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExceeded
            inter = umask
            for j in tsub:
                inter &= cols[j]
                if inter.bit_count() < m:
                    break
            if inter.bit_count() >= m:
                return _violation(notion, y, ell, tuple(_bits(inter)), tsub, centers, wmasks)
    return None


def _pjr_plus_at_threshold(quotas, centers, cols, wmasks, y, budget, notion):
    center_set = set(centers)
    for ell, m, umask in _cover_sets(quotas, centers, wmasks):
        for j in range(len(cols)):
            if j in center_set:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExceeded
            inter = cols[j] & umask
            if inter.bit_count() >= m:
                return _violation(notion, y, ell, tuple(_bits(inter)), (j,), centers, wmasks)
    return None


def rank_jr_check(instance, outcome):
    """At every threshold, no quota of agents shares an approved candidate
    while none of them approves any center."""
    return _threshold_scan(
        instance, outcome, Caps(), "rank-jr", _jr_at_threshold, _approvals(instance)
    )


def rank_pjr_check(instance, outcome, caps=Caps()):
    """At every threshold, every ell-large group sharing ell approved
    candidates must collectively approve ell centers."""
    return _threshold_scan(
        instance, outcome, caps, "rank-pjr", _pjr_at_threshold, _approvals(instance)
    )


def dprf_check(instance, outcome, caps=Caps()):
    """Discrete proportionally-representative fairness; same condition as
    the ell-cohesive threshold axiom, reported under its own name."""
    return _threshold_scan(
        instance, outcome, caps, "dprf", _pjr_at_threshold, _approvals(instance)
    )


def rank_pjr_plus_check(instance, outcome, caps=Caps()):
    """Strengthening where a group sharing even one unselected candidate is
    already owed ell centers."""
    return _threshold_scan(
        instance, outcome, caps, "rank-pjr+", _pjr_plus_at_threshold, _approvals(instance)
    )


def uprf_check(instance, outcome, caps=Caps()):
    """Diameter-anchored representation: any ell-large group must approve
    ell centers at the radius of its own diameter.

    The binding threshold for a group is exactly its diameter, so only
    agent-agent distances are enumerated.  Candidate locations play no role
    on the group side.
    """
    return _threshold_scan(
        instance, outcome, caps, "uprf", _uprf_at_threshold, _proximity(instance)
    )


def _uprf_at_threshold(quotas, centers, adj, wmasks, y, budget, notion):
    for ell, m, umask in _cover_sets(quotas, centers, wmasks):
        group = _clique_at_least(adj, umask, m, budget)
        if group is not None:
            return _violation(notion, y, ell, tuple(group), (), centers, wmasks)
    return None


def _clique_at_least(adj, allowed, m, budget):
    """First clique (by index order) of size >= m inside ``allowed``."""

    def rec(chosen, avail):
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExceeded
        if len(chosen) >= m:
            return chosen
        while avail:
            if len(chosen) + avail.bit_count() < m:
                return None
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            if len(chosen) + 1 + (avail & adj[v]).bit_count() >= m:
                found = rec(chosen + [v], avail & adj[v])
                if found is not None:
                    return found
        return None

    if m == 0:
        return []
    return rec([], allowed)
