"""Pass/fail auditors for distance-threshold representation axioms.

Each axiom quantifies over every distance threshold y: at threshold y an
agent approves the candidates within distance y, and the committee must
treat every large-and-cohesive group proportionally.  Approval sets change
only at realized agent-candidate distances, so auditing the finite sorted
threshold list is equivalent to auditing all real y.

All five axioms run through one incremental scan.  Each instance sorts
the entries of its distance tables once, in ``Instance.approval_sweep``
and ``Instance.proximity_sweep``, and every call replays that order through
``instance._growing_masks``, which the capture rules read too, OR-ing
the pairs into the approval or adjacency masks as the threshold grows: an
agent approves a candidate at threshold y when their distance d has
``d <= y``.  A center's ball is its approval mask, read straight off a
walk of the approval sweep, so no call sorts or copies a ball: every
scan makes one such walk, the approval scans search its masks too, and
uprf walks its adjacency sweep beside it.  That walk's ``grew``, the candidates whose balls
grew at the threshold, and ``entered``, the agents that entered them, tell
the scan which cover sets may have lost an agent.

At each threshold the scan walks every cover set: for ell and a set Y of
ell - 1 centers, the agents approving no center outside Y, who together
approve fewer than ell centers.  The instance builds their templates
once per center count and ell (``Instance.cover_sets``), so rank-jr
builds only its ell = 1 row; each call keeps its own agent masks and
memos.  The cover sets live across thresholds: a cover set changes only
where an agent of it enters a ball of a center outside Y, and one that
falls below its quota is dropped for good.  A failed search whose cover
set and masks inside it are unchanged is not run again; the scan charges
the nodes it charged last time, so a budget runs out exactly where
re-running it would.  An approval search is run again only where one of
its cover set's agents entered a ball, and uprf's only where two of them
entered: its search reads only edges inside the cover set, and a new edge
enters with both its ends.  A search that does run picks up where the
cover set's last one failed: the approval searches read only the columns
that grew since, and uprf charges each failed subtree whose edges are
unchanged in place of entering it, within a search and across
thresholds.  Each axiom supplies
only a search inside one cover set, and the scan builds the violation
from what it finds: rank-pjr and dprf look for ell candidates that a
quota of the cover set all approve, rank-pjr+ for one such unopened
candidate, and uprf for a quota within the threshold of one another (an
index-ordered branch-and-bound clique search).  rank-jr is exactly the
ell = 1 row of rank-pjr+: the ell = 1 cover set is the agents approving
no center, and a center's approvers are never among them.

rank-pjr+ implies rank-pjr, so rank-pjr+, rank-pjr and dprf share one
walk per outcome, kept in the outcome slot's map
(``Instance.outcome_slot``).  rank-pjr and dprf are one condition and
one walk (``_ladder``): in each cover set it runs rank-pjr+'s search
until that search's first hit, rank-pjr+'s own report, and the ell-set
search from that cover set on; before that hit the plain ell-set scan
finds nothing and charges nothing, so the walk's rank-pjr report is the
plain scan's.  The slot keeps the walk's rank-pjr+ report and its
rank-pjr report per node budget: rank-pjr and dprf read the latter, and
rank-pjr+ reads the former, or scans on its own until its first hit and
keeps its report.  rank-jr always runs its own ell = 1 scan.  Every call
returns a fresh report.

Every search is exact: a violating group always induces a (target, cover
set) pair, and any pair found certifies a violation.  Each search is
``search(masks, ell, m, umask, left, memo, entered, grew) -> (hit, nodes
charged)``, and only the scan subtracts from the budget.  A cover set is
searched at the first threshold, where every non-empty column grew, and
after that only where its last search failed, so a search may keep what
it learned in the cover set's ``memo``: rank-pjr and dprf keep the
cover set's frequent columns, those with a quota of its agents, and uprf
its failed clique subtrees; the rank-jr and rank-pjr+ search keeps
nothing.  The rank-jr and rank-pjr+ search reads at most |C| columns per
cover set and is never charged, so their verdicts are always exact; the
others charge one node per ell-set or clique node, replayed searches and
subtrees included, and a "pass" returned after an exhausted node budget
is flagged, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations, islice

from .instance import _bits, _growing_masks
from .metric import _as_id
from .reports import CAP_EXHAUSTED, EXACT, PASS, VIOLATION, AuditReport, RankViolation


@dataclass(frozen=True)
class Caps:
    """Budget on enumerated search nodes across one audit call: an int of
    at least 0, anything else (bools included) a ValueError.

    It bounds only the exponential searches: the ell-sets of rank-pjr and
    dprf and the clique nodes of uprf.  ``search(masks, ell, m, umask,
    left, memo, entered, grew) -> (hit, nodes charged)`` returns what it
    charged and only ``_threshold_scan`` subtracts from the budget.  The
    nodes charged are those of the plain search, run from scratch: a
    replayed search or clique subtree charges the nodes it charged when it
    ran, and the frequent columns that rank-pjr and dprf keep in ``memo``
    change what they read, never which ell-sets they charge.  Cover-set
    upkeep (up to 2^|W| cover sets per threshold) and the frequent-column
    upkeep are never charged.  rank-pjr's walk runs rank-pjr+'s uncharged
    search before its ell-set search, so it charges the plain ell-set
    scan's nodes; the outcome slot keeps its report per budget.  A uprf
    search that is not run again, because fewer than two of its cover
    set's agents entered, and a stored clique subtree charged in place of
    being entered, charge what the plain search would, so the budget runs
    out at the same node.
    """

    node_budget: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "node_budget", _as_id(self.node_budget, "node_budget"))
        if self.node_budget < 0:
            raise ValueError(f"node_budget must be at least 0, got {self.node_budget}")


# the default budget: the checks' signature default, and what the uncharged
# rank-jr and rank-pjr+ scan is handed
_CAPS = Caps()


def thresholds(instance):
    """Sorted distinct agent-candidate distances; the only y values at
    which any approval set can change."""
    return list(instance.approval_sweep.ys)


def _threshold_scan(instance, outcome, caps, notion, search, max_ell, adjacency=None, then=None):
    """Search every cover set for ell = 1 .. ``max_ell`` at every threshold
    until ``search`` finds a violation: every threshold of the instance's
    ``approval_sweep``, or with ``adjacency`` (uprf's
    ``instance.proximity_sweep``) every threshold of that sweep.

    With ``then``, a follow-on ``(notion, search)``, the scan returns two
    reports: ``search``'s, and ``then``'s, whose search takes over from
    the first hit on, in that same cover set.  So the rank-pjr walk is
    rank-pjr+'s search up to its hit and the ell-set search from there on.
    A search that runs out of budget or threshold reports a pass, flagged
    ``cap_exhausted`` if the budget ran out, and so does ``then`` if it
    never took over.

    A cover set is an (ell, m, Y) for a set Y of min(ell - 1, |W|) center
    positions, in combinations order within each ell: its umask holds the
    agents in no ball of a center outside Y, so any group inside it
    approves fewer than ell centers.  The positions outside each Y come
    from ``instance.cover_sets``, one ell at a time up to ``max_ell``, and
    each ell's quota m from ``instance.quotas``; each call makes its own
    live copies and keeps them across thresholds.
    One walk of the approval sweep, read at the scan's thresholds, gives
    each threshold's (balls, entered, grew): a center's ball is that walk's
    mask of the center.  The approval scans search those same masks with
    that same ``entered``; with ``adjacency`` the search reads one step of
    the adjacency walk instead, its masks and its ``entered``, and no
    candidate column grows for it.  Balls only grow, so a
    umask only loses agents, and only an agent that just entered a center's
    ball can leave: a umask is recomputed from the balls only at a
    threshold where that walk's ``grew`` holds a center and one of the
    umask's agents is in its ``entered``, and a cover set is dropped for
    good once it holds fewer than its quota m.  Recomputing
    a umask that lost no agent leaves it, and its replay, unchanged.

    ``search(masks, ell, m, umask, left, memo, entered, grew) -> (hit,
    nodes charged)`` gets the walk's masks at the threshold, the
    cover set's ell, quota m and agent mask, ``left``, the nodes still
    available, the cover set's own dict ``memo``, the threshold's
    ``entered`` bits and ``grew``, the ascending list of the candidates
    whose balls grew at the threshold (empty for uprf, whose masks are the
    agents' adjacency).  Its hit is (group, witness candidates), the group
    as a bit mask of at least m agents inside umask, or None; it may stop
    once it has charged more than ``left``.  Only this scan subtracts from
    the budget, and it reports ``cap_exhausted`` once that leaves less than 0, whatever the
    hit.  A search must read the masks only inside umask (``mask & umask``,
    or the masks of agents in umask), so it returns the same and charges
    the same while neither its umask nor those bits change.  The scan
    therefore replays a failed search whose umask is unchanged and whose
    walk added no bit inside that umask: it charges the nodes the search
    charged last time, and runs out where the search would have.  For the
    approval walk that is where no agent of the umask is in ``entered``.
    With ``adjacency`` it is where at most one is: the search reads an
    agent's mask only inside the umask, and an edge enters the symmetric
    adjacency with both its ends, so one agent of the umask entering alone
    gained edges only to agents outside it.  So between two searches of a
    cover set, only the later threshold's ``entered`` can have added bits
    inside the earlier one's umask, and only its ``grew`` columns can have
    gained agents there; with ``adjacency``, where the umask is unchanged,
    two of its agents are in that ``entered``.  Every cover
    set is searched at the first threshold, where every non-empty column
    is in ``grew``, and each later search of it follows a failed one.  So
    a search may keep state in ``memo`` from one run to the next: uprf its
    failed subtrees, rank-pjr and dprf their frequent columns; the
    rank-jr and rank-pjr+ search reads only ``grew``.  ``then``'s search
    finds a cover set's ``memo`` as the first search left it, and replays
    its failed searches: it may follow only where, up to the first hit, it
    would have failed in the same cover sets and charged the same nodes.
    The masks change in place at the next threshold, and the scan builds
    each report, covered winners included, before that.
    """
    centers = instance.outcome_slot(outcome)[1]
    everyone = (1 << instance.n) - 1
    # [ell, m, positions outside Y, umask, nodes of the last failed search, memo]
    quotas = instance.quotas
    live = [
        [ell, quotas[ell], outside, everyone, None, {}]
        for ell in range(1, max_ell + 1)
        for outside in instance.cover_sets(len(centers), ell)
    ]
    cmask = sum(1 << c for c in centers)
    # a failed search reads the same again while at most ``lone`` of its
    # umask's agents entered: a new adjacency edge enters with both its ends
    if adjacency is None:
        ys, approvals = instance.approval_sweep.ys, _growing_masks(instance.approval_sweep)
        lone = 0
    else:
        ys, adjacent = adjacency.ys, _growing_masks(adjacency)
        approvals = _growing_masks(instance.approval_sweep, ys)
        lone = 1
    pair = then is not None
    first = None  # the first search's report, once ``then`` took over

    def passed(status):
        report = AuditReport(notion, {}, PASS, None, status)
        if then is not None:  # the follow-on search never took over
            return report, AuditReport(then[0], {}, PASS, None, status)
        return (first, report) if pair else report

    left = caps.node_budget
    for y, (balls, entered, grew) in zip(ys, approvals):
        # an agent can leave a umask only at a threshold where a center's ball grew
        covered = entered if grew & cmask else 0
        masks = balls
        if adjacency is not None:
            # uprf's search reads the agents' adjacency and no candidate column
            masks, entered, _ = next(adjacent)
            grew = 0
        dropped = False
        grown = None
        for cover in live:
            ell, m, outside, umask, spent, memo = cover
            if umask & covered:
                for p in outside:
                    umask &= ~balls[centers[p]]
                if umask.bit_count() < m:
                    cover[3] = 0  # emptied: filtered out after this threshold
                    dropped = True
                    continue
                if umask != cover[3]:
                    cover[3] = umask
                    spent = cover[4] = None
            run = spent is None or (entered & umask).bit_count() > lone
            while True:
                hit = None
                if run:
                    if grown is None:  # one ascending list per threshold
                        grown = _bits(grew)
                    hit, spent = search(masks, ell, m, umask, left, memo, entered, grown)
                left -= spent
                if left < 0:
                    return passed(CAP_EXHAUSTED)
                if hit is None:
                    cover[4] = spent
                    break
                group, cands = hit
                winners = tuple(c for c in centers if balls[c] & group)
                violation = RankViolation(notion, y, ell, tuple(_bits(group)), cands, winners)
                report = AuditReport(notion, {}, VIOLATION, violation, EXACT)
                if then is None:
                    return (first, report) if pair else report
                first, (notion, search), then = report, then, None
                run = True
        if dropped:
            live = [cover for cover in live if cover[3]]
            if not live:
                break
    return passed(EXACT)


def _ell_sets(cols, ell, m, umask, left, memo, entered, grew):
    """rank-pjr and dprf: the first ell candidates, among those with m
    approvers in the cover set, that m of its agents all approve; it tries
    at most left + 1 ell-sets, the last only to run the budget out.

    The frequent columns, those with m approvers in the cover set, are
    kept in ``memo`` as a bitmask with the umask they were counted in.  A
    column's approvers inside an unchanged umask rise only where it grows,
    so only the ``grew`` columns can join, and the frequent ones are
    counted again only where the umask lost agents.  A cover set's first
    ell-set search, at the first threshold or where the rank-pjr walk
    switches to it, counts every column.
    """
    if "frequent" in memo:
        last, frequent = memo["frequent"]
        if last != umask:
            frequent = sum(1 << j for j in _bits(frequent) if (cols[j] & umask).bit_count() >= m)
    else:
        frequent, grew = 0, range(len(cols))
    for j in grew:
        if (cols[j] & umask).bit_count() >= m:
            frequent |= 1 << j
    memo["frequent"] = umask, frequent
    charged = 0
    for charged, tsub in enumerate(islice(combinations(_bits(frequent), ell), left + 1), 1):
        inter = umask
        for j in tsub:
            inter &= cols[j]
            if inter.bit_count() < m:
                break
        if inter.bit_count() >= m:
            return (inter, tsub), charged
    return None, charged


def _unopened(opened, cols, ell, m, umask, left, memo, entered, grew):
    """rank-jr and rank-pjr+: the first unopened candidate with m approvers
    in the cover set.  At most |C| columns per cover set, so never charged.

    Only the ``grew`` columns are read.  At the first threshold every
    non-empty column grew.  After it, the cover set's last search failed,
    its umask has only lost agents since, and a column's approvers inside
    it rise only where the column grows; so no other column can have
    reached m, and the first of ``grew`` is the first of all.
    """
    for j in grew:
        col = cols[j] & umask
        if col.bit_count() >= m and j not in opened:
            return (col, (j,)), 0
    return None, 0


def _clique_at_least(adj, ell, m, umask, left, memo, entered, grew):
    """uprf: the first clique of m agents in the cover set.  Agents join in
    index order, so the clique found is the first one in that order.

    A depth-first branch and bound on an explicit stack (a clique of a
    thousand agents nests a thousand deep), charging one node per node
    entered and stopping once it has charged more than ``left``.  A node's
    subtree depends only on ``need``, the agents it still needs, on
    ``avail``, the agents it may add, and on the edges inside ``avail``,
    and edges are only ever added.  So every failed subtree below the
    root, however small, is stored as ``(need, avail): nodes charged``,
    and a child whose key is stored is not entered: the parent's branch
    loop charges its nodes in place, and a budget runs out where the
    subtree would have run it out.  Keys this search stored (``fresh``)
    are reused as they are.  ``memo`` holds the keys the cover set's latest
    search stored or reused; one is reused while fewer than two bits of
    ``entered`` lie in its ``avail``, since a new edge inside it would set
    both of its ends.  A failed search leaves its own keys in ``memo``.
    The root is always entered: the scan runs a search again only where
    its umask changed or two of its agents entered, and either way the
    root's key is not reusable.  Found subtrees are never stored and the
    branching order is the plain search's, so the clique found and the
    node where a budget runs out are the plain search's too.
    """
    charged = 0
    fresh = {}
    stack = []  # the suspended ancestors: (chosen, need, avail, count, key, charged on entry)
    chosen, need, avail, count, key = 0, m, umask, umask.bit_count(), None
    while True:
        start = charged
        charged += 1
        if charged > left:
            return None, charged
        if need <= 0:
            return (chosen, ()), charged
        # branch from the innermost open node, charging the stored children
        # in place and backing up past the nodes with too few agents left to
        # add; count >= need >= 1 leaves an agent in avail
        while True:
            while count >= need:
                low = avail & -avail
                avail ^= low
                count -= 1
                nbrs = avail & adj[low.bit_length() - 1]
                grow = nbrs.bit_count()
                if grow >= need - 1:
                    child = (need - 1, nbrs)
                    spent = fresh.get(child)
                    if spent is None and child in memo and (nbrs & entered).bit_count() < 2:
                        spent = fresh[child] = memo[child]
                    if spent is None:
                        break
                    charged += spent
                    if charged > left:
                        return None, charged
            else:
                if not stack:
                    memo.clear()
                    memo.update(fresh)
                    return None, charged
                fresh[key] = charged - start
                chosen, need, avail, count, key, start = stack.pop()
                continue
            stack.append((chosen, need, avail, count, key, start))
            chosen, need, avail, count, key = chosen | low, need - 1, nbrs, grow, child
            break


def _unopened_scan(instance, outcome, notion, max_ell):
    search = partial(_unopened, outcome.centers)
    return _threshold_scan(instance, outcome, _CAPS, notion, search, max_ell)


def _renamed(report, notion):
    """A fresh report of ``notion`` with a kept report's verdict: its
    witness, if any, names ``notion`` as its axiom."""
    witness = report.witness
    if witness is not None and witness.axiom != notion:
        witness = replace(witness, axiom=notion)
    return AuditReport(notion, {}, report.value, witness, report.status)


def _ladder(instance, outcome, caps):
    """The outcome's rank-pjr report at ``caps``, from its outcome slot.

    One walk per node budget runs rank-pjr+'s search until its first hit
    and the ell-set search from that cover set on, and the slot keeps
    both reports.  Before that hit no cover set holds ell columns
    with a quota of its agents: centers outside Y have no approvers there
    and Y holds at most ell - 1 centers, so one of ell such columns would
    be an unopened candidate, a rank-pjr+ hit.  So the plain ell-set scan
    would find nothing and charge nothing before it, and the walk gives
    its report, witness and node charges."""
    kept = instance.outcome_slot(outcome)[2]
    key = ("rank-pjr", caps.node_budget)
    if key not in kept:
        unopened = partial(_unopened, outcome.centers)
        kept["rank-pjr+"], kept[key] = _threshold_scan(
            instance, outcome, caps, "rank-pjr+", unopened, instance.k, then=("rank-pjr", _ell_sets)
        )
    return kept[key]


def rank_jr_check(instance, outcome):
    """At every threshold, no quota of agents shares an approved candidate
    while none of them approves any center: the ell = 1 row of rank-pjr+,
    never charged, so the verdict is always exact."""
    return _unopened_scan(instance, outcome, "rank-jr", 1)


def rank_pjr_check(instance, outcome, caps=_CAPS):
    """At every threshold, every ell-large group sharing ell approved
    candidates must collectively approve ell centers.  Read from, or run
    as, the outcome's rank-pjr walk (``_ladder``), once per node budget."""
    return _renamed(_ladder(instance, outcome, caps), "rank-pjr")


def dprf_check(instance, outcome, caps=_CAPS):
    """Discrete proportionally-representative fairness; same condition as
    the ell-cohesive threshold axiom, so it is rank-pjr's report from the
    same walk, under its own name, its witness's axiom included."""
    return _renamed(_ladder(instance, outcome, caps), "dprf")


def rank_pjr_plus_check(instance, outcome):
    """Strengthening where a group sharing even one unselected candidate is
    already owed ell centers.  Never charged, so the verdict is always
    exact.  Read from the outcome slot, or scanned until its first hit
    and kept there."""
    kept = instance.outcome_slot(outcome)[2]
    report = kept.get("rank-pjr+")
    if report is None:
        report = kept["rank-pjr+"] = _unopened_scan(instance, outcome, "rank-pjr+", instance.k)
    return _renamed(report, "rank-pjr+")


def uprf_check(instance, outcome, caps=_CAPS):
    """Diameter-anchored representation: any ell-large group must approve
    ell centers at the radius of its own diameter.

    The binding threshold for a group is exactly its diameter, so only
    agent-agent distances are enumerated.  Candidate locations play no role
    on the group side.
    """
    adjacency = instance.proximity_sweep
    return _threshold_scan(
        instance, outcome, caps, "uprf", _clique_at_least, instance.k, adjacency=adjacency
    )
