"""Pass/fail auditors for distance-threshold representation axioms.

Each axiom quantifies over every distance threshold y: at threshold y an
agent approves the candidates within distance y, and the committee must
treat every large-and-cohesive group proportionally.  Approval sets change
only at realized agent-candidate distances, so auditing the finite sorted
threshold list is equivalent to auditing all real y.

All five axioms run through one incremental scan.  The (distance, row,
bit) pairs are sorted once and OR-ed into the approval or adjacency masks
and into the centers' balls as the threshold grows.  The sweep is
``instance._growing_masks``, which the clustering rules read too: an agent
approves a candidate at threshold y when their distance d has ``d <= y``.

At each threshold the scan walks every cover set: for ell and a set Y of
ell - 1 centers, the agents approving no center outside Y, who together
approve fewer than ell centers.  The cover sets live across thresholds:
a cover set changes only where an agent of it enters a ball of a center
outside Y, and one that falls below its quota is dropped for good.  A
failed search whose cover set and masks inside it are unchanged is not
run again; the scan charges the nodes it charged last time, so a budget
runs out exactly where re-running it would.  The uprf search does the
same for each failed subtree whose edges are unchanged, within a search
and across thresholds.  Each axiom supplies only a search inside one
cover set, and the scan builds the violation from what it finds:
rank-pjr and dprf look for ell candidates that a quota of the cover set
all approve, rank-pjr+ for one such unopened candidate, and uprf for a
quota within the threshold of one another (an index-ordered
branch-and-bound clique search).  rank-jr is exactly the ell = 1 row of
rank-pjr+: the ell = 1 cover set is the agents approving no center, and a
center's approvers are never among them.

Every search is exact: a violating group always induces a (target, cover
set) pair, and any pair found certifies a violation.  Each search is
``search(masks, ell, m, umask, left, memo, entered) -> (hit, nodes
charged)``, and only the scan subtracts from the budget.  The rank-jr and
rank-pjr+ search reads at most |C| columns per cover set and is never
charged, so their verdicts are always exact; the others charge one node
per ell-set or clique node, replayed searches and subtrees included, and a
"pass" returned after an exhausted node budget is flagged, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice

from .instance import _approvals, _bits, _checked_centers, _growing_masks, _proximity, quota
from .metric import _as_id
from .reports import CAP_EXHAUSTED, EXACT, PASS, VIOLATION, AuditReport, RankViolation


@dataclass(frozen=True)
class Caps:
    """Budget on enumerated search nodes across one audit call: an int of
    at least 0, anything else (bools included) a ValueError.

    It bounds only the exponential searches: the ell-sets of rank-pjr and
    dprf and the clique nodes of uprf.  ``search(masks, ell, m, umask,
    left, memo, entered) -> (hit, nodes charged)`` returns what it charged
    and only ``_threshold_scan`` subtracts from the budget.  The nodes
    charged are those of the plain, unreplayed search: a replayed search
    or clique subtree charges the nodes it charged when it ran.  Cover-set
    upkeep (up to 2^|W| cover sets per threshold) is never charged.
    """

    node_budget: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "node_budget", _as_id(self.node_budget, "node_budget"))
        if self.node_budget < 0:
            raise ValueError(f"node_budget must be at least 0, got {self.node_budget}")


def thresholds(instance):
    """Sorted distinct agent-candidate distances; the only y values at
    which any approval set can change."""
    return list(instance.levels)


def _threshold_scan(instance, outcome, caps, notion, search, sweep, max_ell):
    """Search every cover set for ell = 1 .. ``max_ell`` at every threshold
    of ``sweep = (ys, width, pairs)`` until ``search`` finds a violation.

    A cover set is an (ell, m, Y) for a set Y of min(ell - 1, |W|) center
    positions, in combinations order within each ell: its umask holds the
    agents in no ball of a center outside Y, so any group inside it
    approves fewer than ell centers.  The cover sets are built once and
    kept live across thresholds.  Balls only grow, so a umask only loses
    agents: it is updated only where an agent entered a center's ball, and
    a cover set is dropped for good once it holds fewer than its quota m.

    ``search(masks, ell, m, umask, left, memo, entered) -> (hit, nodes
    charged)`` gets the sweep's ``width`` masks at the threshold, the cover
    set's ell, quota m and agent mask, ``left``, the nodes still available,
    the cover set's own dict ``memo`` and the threshold's ``entered`` bits.
    Its hit is (group, witness candidates), the group as a bit mask of at
    least m agents inside umask, or None; it may stop once it has charged
    more than ``left``.  Only this scan subtracts from the budget, and it
    reports ``cap_exhausted`` once that leaves less than 0, whatever the
    hit.  A search must read the masks only inside umask (``mask & umask``,
    or the masks of agents in umask), so it returns the same and charges
    the same while neither its umask nor those bits change.  The scan
    therefore replays a failed search whose umask is unchanged and whose
    sweep added no bit inside that umask: it charges the nodes the search
    charged last time, and runs out where the search would have.  So
    between two searches of a cover set, only the later threshold's
    ``entered`` can have added bits inside the earlier one's umask.  The
    uprf search relies on this to keep its failed subtrees in ``memo``
    across thresholds; the other searches ignore ``memo`` and ``entered``.
    The masks change in place at the next threshold, and the scan builds
    the report, covered winners included, before that.
    """
    ys, width, pairs = sweep
    n, k = instance.n, instance.k
    centers = _checked_centers(instance, outcome)
    everyone = (1 << n) - 1
    # [ell, m, positions outside Y, umask, nodes of the last failed search, memo]
    live = []
    for ell in range(1, max_ell + 1):
        m = quota(n, k, ell, 1)
        for ysub in combinations(range(len(centers)), min(ell - 1, len(centers))):
            outside = tuple(p for p in range(len(centers)) if p not in ysub)
            live.append([ell, m, outside, everyone, None, {}])
    # only the centers' columns: uprf never needs the full agent-candidate table
    rows = instance.dist_rows
    wpairs = [(rows[i][c], p, i) for i in range(n) for p, c in enumerate(centers)]
    grown = zip(ys, _growing_masks(width, pairs, ys), _growing_masks(len(centers), wpairs, ys))
    left = caps.node_budget
    for y, (masks, entered, _), (balls, covered, _) in grown:
        if covered:
            kept = []
            for cover in live:
                umask = cover[3]
                if umask & covered:
                    for p in cover[2]:
                        umask &= ~balls[p]
                    if umask.bit_count() < cover[1]:
                        continue
                    if umask != cover[3]:
                        cover[3] = umask
                        cover[4] = None
                kept.append(cover)
            live = kept
            if not live:
                break
        for cover in live:
            ell, m, _, umask, spent, memo = cover
            hit = None
            if spent is None or entered & umask:
                hit, spent = search(masks, ell, m, umask, left, memo, entered)
            left -= spent
            if left < 0:
                return AuditReport(notion, {}, PASS, None, CAP_EXHAUSTED)
            if hit is None:
                cover[4] = spent
                continue
            group, cands = hit
            winners = tuple(c for c, ball in zip(centers, balls) if ball & group)
            violation = RankViolation(notion, y, ell, tuple(_bits(group)), cands, winners)
            return AuditReport(notion, {}, VIOLATION, violation, EXACT)
    return AuditReport(notion, {}, PASS, None, EXACT)


def _ell_sets(cols, ell, m, umask, left, *_):
    """rank-pjr and dprf: the first ell candidates, among those with m
    approvers in the cover set, that m of its agents all approve; it tries
    at most left + 1 ell-sets, the last only to run the budget out."""
    frequent = [j for j, col in enumerate(cols) if (col & umask).bit_count() >= m]
    charged = 0
    for charged, tsub in enumerate(islice(combinations(frequent, ell), left + 1), 1):
        inter = umask
        for j in tsub:
            inter &= cols[j]
            if inter.bit_count() < m:
                break
        if inter.bit_count() >= m:
            return (inter, tsub), charged
    return None, charged


def _unopened(unopened, cols, ell, m, umask, *_):
    """rank-jr and rank-pjr+: the first unopened candidate with m approvers
    in the cover set.  At most |C| columns per cover set, so never charged."""
    for j in unopened:
        if (cols[j] & umask).bit_count() >= m:
            return (cols[j] & umask, (j,)), 0
    return None, 0


def _clique_at_least(adj, ell, m, umask, left, memo, entered):
    """uprf: the first clique of m agents in the cover set.  Agents join in
    index order, so the clique found is the first one in that order.

    A depth-first branch and bound on an explicit stack (a clique of a
    thousand agents nests a thousand deep), charging one node per node
    entered and stopping once it has charged more than ``left``.  A node's
    subtree depends only on ``need``, the agents it still needs, on
    ``avail``, the agents it may add, and on the edges inside ``avail``,
    and edges are only ever added.  So a failed subtree of more than 3
    nodes is stored as ``(need, avail): nodes charged``, and a node whose
    key is stored is not entered: its nodes are charged, and a budget runs
    out where the subtree would have run it out.  Keys this search stored
    are reused as they are.  ``memo`` holds the keys the cover set's latest
    search looked up or stored; one is reused while fewer than two bits of
    ``entered`` lie in its ``avail``, since a new edge inside it would set
    both of its ends.  A failed search leaves its own keys in ``memo``.
    Found subtrees are never stored and the branching order is the plain
    search's, so the clique found and the node where a budget runs out are
    the plain search's too.
    """
    charged = 0
    fresh = {}
    stack = []  # the suspended ancestors: (chosen, need, avail, count, key, charged on entry)
    chosen, need, avail, count = 0, m, umask, umask.bit_count()
    while True:
        # enter a node: replay its stored subtree, or charge it
        key = (need, avail)
        spent = fresh.get(key)
        if spent is None and key in memo and (avail & entered).bit_count() < 2:
            spent = memo[key]
        start = charged
        charged += 1 if spent is None else spent
        if charged > left:
            return None, charged
        if spent is not None:
            avail = 0
        elif need <= 0:
            return (chosen, ()), charged
        # branch from the innermost open node, backing up past the
        # nodes with no agent left to add
        while True:
            while avail and count >= need:
                low = avail & -avail
                avail ^= low
                count -= 1
                nbrs = avail & adj[low.bit_length() - 1]
                grow = nbrs.bit_count()
                if grow >= need - 1:
                    break
            else:
                if charged - start > 3:
                    fresh[key] = charged - start
                if not stack:
                    memo.clear()
                    memo.update(fresh)
                    return None, charged
                chosen, need, avail, count, key, start = stack.pop()
                continue
            stack.append((chosen, need, avail, count, key, start))
            chosen, need, avail, count = chosen | low, need - 1, nbrs, grow
            break


def _unopened_scan(instance, outcome, notion, max_ell):
    unopened = [j for j in range(instance.num_candidates) if j not in outcome.centers]
    search = partial(_unopened, unopened)
    return _threshold_scan(instance, outcome, Caps(), notion, search, _approvals(instance), max_ell)


def rank_jr_check(instance, outcome):
    """At every threshold, no quota of agents shares an approved candidate
    while none of them approves any center: the ell = 1 row of rank-pjr+,
    never charged, so the verdict is always exact."""
    return _unopened_scan(instance, outcome, "rank-jr", 1)


def rank_pjr_check(instance, outcome, caps=Caps()):
    """At every threshold, every ell-large group sharing ell approved
    candidates must collectively approve ell centers."""
    return _threshold_scan(
        instance, outcome, caps, "rank-pjr", _ell_sets, _approvals(instance), instance.k
    )


def dprf_check(instance, outcome, caps=Caps()):
    """Discrete proportionally-representative fairness; same condition as
    the ell-cohesive threshold axiom, reported under its own name."""
    return _threshold_scan(
        instance, outcome, caps, "dprf", _ell_sets, _approvals(instance), instance.k
    )


def rank_pjr_plus_check(instance, outcome):
    """Strengthening where a group sharing even one unselected candidate is
    already owed ell centers.  Never charged, so the verdict is always
    exact."""
    return _unopened_scan(instance, outcome, "rank-pjr+", instance.k)


def uprf_check(instance, outcome, caps=Caps()):
    """Diameter-anchored representation: any ell-large group must approve
    ell centers at the radius of its own diameter.

    The binding threshold for a group is exactly its diameter, so only
    agent-agent distances are enumerated.  Candidate locations play no role
    on the group side.
    """
    return _threshold_scan(
        instance, outcome, caps, "uprf", _clique_at_least, _proximity(instance), instance.k
    )
