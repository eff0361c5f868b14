"""Pass/fail auditors for distance-threshold representation axioms.

Each axiom quantifies over every distance threshold y: at threshold y an
agent approves the candidates within distance y, and the committee must
treat every large-and-cohesive group proportionally.  Approval sets change
only at realized agent-candidate distances, so auditing the finite sorted
threshold list is equivalent to auditing all real y.

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

from .audit_single import dists_to_centers
from .instance import quota
from .metric import TAU
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


def _report(notion, value, witness, status):
    return AuditReport(notion, {}, value, witness, status)


def rank_jr_check(instance, outcome):
    """At every threshold, no quota of agents shares an approved candidate
    while none of them approves any center."""
    n, k = instance.n, instance.k
    m = quota(n, k, 1, 1)
    if m > n:
        return _report("rank-jr", PASS, None, EXACT)
    dW = dists_to_centers(instance, outcome)
    rows = instance.dist_rows
    for y in instance.levels:
        limit = y + TAU
        uncovered = [i for i in range(n) if dW[i] > limit]
        if len(uncovered) < m:
            continue
        for j in range(instance.num_candidates):
            group = tuple(i for i in uncovered if rows[i][j] <= limit)
            if len(group) >= m:
                witness = RankViolation(
                    axiom="rank-jr",
                    threshold_y=y,
                    ell=1,
                    group=group,
                    witness_candidates=(j,),
                )
                return _report("rank-jr", VIOLATION, witness, EXACT)
    return _report("rank-jr", PASS, None, EXACT)


def _approval_columns(instance, y):
    """Per candidate, a bitmask of the agents approving it at threshold y."""
    limit = y + TAU
    cols = [0] * instance.num_candidates
    for i, row in enumerate(instance.dist_rows):
        for j, d in enumerate(row):
            if d <= limit:
                cols[j] |= 1 << i
    return cols


def _winner_masks(instance, centers, y):
    """Per agent, a bitmask over positions of ``centers`` within y."""
    limit = y + TAU
    masks = []
    for row in instance.dist_rows:
        mask = 0
        for p, c in enumerate(centers):
            if row[c] <= limit:
                mask |= 1 << p
        masks.append(mask)
    return masks


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _covered_winners(centers, wmasks, group):
    seen = 0
    for i in group:
        seen |= wmasks[i]
    return tuple(centers[p] for p in _bits(seen))


def _cover_sets(instance, centers, wmasks):
    """Yield (ell, m, umask) for every cover set worth searching.

    For ell = 1 .. k while the quota m = quota(n, k, ell) is at most n, and
    for each set Y of min(ell - 1, |W|) center positions in combinations
    order, umask holds the agents approving no center outside Y, so any
    group inside it approves fewer than ell centers.  Cover sets leaving
    fewer than m such agents are skipped.
    """
    n, k = instance.n, instance.k
    for ell in range(1, k + 1):
        m = quota(n, k, ell, 1)
        if m > n:
            return
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
    return RankViolation(
        axiom=notion,
        threshold_y=y,
        ell=ell,
        group=group,
        witness_candidates=cands,
        covered_winners=_covered_winners(centers, wmasks, group),
    )


def _threshold_scan(instance, outcome, caps, notion, find):
    """Run ``find`` at every threshold until it returns a violation."""
    centers = outcome.sorted_centers()
    budget = [caps.node_budget]
    try:
        for y in instance.levels:
            cols = _approval_columns(instance, y)
            wmasks = _winner_masks(instance, centers, y)
            hit = find(instance, centers, cols, wmasks, y, budget, notion)
            if hit is not None:
                return _report(notion, VIOLATION, hit, EXACT)
    except _BudgetExceeded:
        return _report(notion, PASS, None, CAP_EXHAUSTED)
    return _report(notion, PASS, None, EXACT)


def _pjr_at_threshold(instance, centers, cols, wmasks, y, budget, notion):
    nc = instance.num_candidates
    for ell, m, umask in _cover_sets(instance, centers, wmasks):
        frequent = [j for j in range(nc) if (cols[j] & umask).bit_count() >= m]
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


def _pjr_plus_at_threshold(instance, centers, cols, wmasks, y, budget, notion):
    center_set = set(centers)
    for ell, m, umask in _cover_sets(instance, centers, wmasks):
        for j in range(instance.num_candidates):
            if j in center_set:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExceeded
            inter = cols[j] & umask
            if inter.bit_count() >= m:
                return _violation(notion, y, ell, tuple(_bits(inter)), (j,), centers, wmasks)
    return None


def rank_pjr_check(instance, outcome, caps=Caps()):
    """At every threshold, every ell-large group sharing ell approved
    candidates must collectively approve ell centers."""
    return _threshold_scan(instance, outcome, caps, "rank-pjr", _pjr_at_threshold)


def dprf_check(instance, outcome, caps=Caps()):
    """Discrete proportionally-representative fairness; same condition as
    the ell-cohesive threshold axiom, reported under its own name."""
    return _threshold_scan(instance, outcome, caps, "dprf", _pjr_at_threshold)


def rank_pjr_plus_check(instance, outcome, caps=Caps()):
    """Strengthening where a group sharing even one unselected candidate is
    already owed ell centers."""
    return _threshold_scan(instance, outcome, caps, "rank-pjr+", _pjr_plus_at_threshold)


def uprf_check(instance, outcome, caps=Caps()):
    """Diameter-anchored representation: any ell-large group must approve
    ell centers at the radius of its own diameter.

    The binding threshold for a group is exactly its diameter, so only
    agent-agent distances are enumerated.  Candidate locations play no role
    on the group side.
    """
    notion = "uprf"
    n = instance.n
    centers = outcome.sorted_centers()
    daa = instance.agent_rows
    yvals = {0}
    for i in range(n):
        for j in range(i + 1, n):
            yvals.add(daa[i][j])
    budget = [caps.node_budget]
    try:
        for y in sorted(yvals):
            limit = y + TAU
            wmasks = _winner_masks(instance, centers, y)
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if daa[i][j] <= limit:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            for ell, m, umask in _cover_sets(instance, centers, wmasks):
                group = _clique_at_least(adj, umask, m, budget)
                if group is not None:
                    witness = _violation(notion, y, ell, tuple(group), (), centers, wmasks)
                    return _report(notion, VIOLATION, witness, EXACT)
    except _BudgetExceeded:
        return _report(notion, PASS, None, CAP_EXHAUSTED)
    return _report(notion, PASS, None, EXACT)


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
