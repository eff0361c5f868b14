"""Problem instances, outcomes, and quotas by integer ceiling division.

An instance is a set of agents and a set of candidates (both lists of point
ids into one metric space, agents possibly repeated) together with a target
number of centers ``k``.  An outcome is a set of *candidate indices*, which
keeps co-located candidates distinguishable.

The threshold sweep that every rule and auditor reads lives here too.
``_sweep`` builds one from a distance table by sorting the table's flat
indices once, into compact arrays: an instance builds ``approval_sweep``
(whose ``ys`` are the approval thresholds) from its agent-candidate table
and ``proximity_sweep`` from its agent-agent table.  ``_entering_pairs``
replays a sorted order on every call, yielding at each threshold y the
pairs that came within it (a distance d is within y when ``d <= y``), and
``_growing_masks`` ORs those pairs into one bitmask per row.
The rank audits' quota per ell (``quotas``) and cover-set templates
(``cover_sets``) are built once per instance too, the templates one ell
at a time, the first time a scan reads them.  One map,
``candidate_at_point``, answers which candidate stands at a point, and
restricted mode's sub-instance (``restricted``) is built once through it,
so its own tables are too.

Every rule and auditor reads the agent-by-candidate distances from one
table per number kind, stored per candidate: the stored distances
(``dist_cols``) and their integer scaling (``int_cols``).  They and each
agent's neighbourhood radius for a count (``radii``) are built once per
instance.  What depends on an outcome lives in one slot, the outcome
audited last (``outcome_slot``): keyed by the center set, it holds the
sorted centers, checked once, and the q-th center distances and rank
reports the audits have worked out so far.  Every audit of one outcome,
and of an equal one audited next, reads them there; another center set
replaces the slot.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, islice
from operator import ne
from typing import NamedTuple

from .metric import MetricSpace, _as_gamma, _as_id


def quota(n, k, ell=1, gamma=1):
    """Smallest integer >= gamma * ell * n / k, computed exactly.

    This is the minimum size of a group entitled to ``ell`` centers, scaled
    by ``gamma``.  All arguments are integers except ``gamma``, which may
    be an int, a Fraction or a finite float (each float is an exact binary
    rational, 1.1 included).  With gamma = p/q in lowest terms the quota is
    the integer ceiling division of p * ell * n by q * k; an int gamma is
    its own p, and any other is split once with ``as_integer_ratio()``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if n < 0 or ell < 0:
        raise ValueError("n and ell must be non-negative")
    p, q = _as_gamma(gamma)
    return -(-(p * ell * n) // (q * k))


@dataclass(frozen=True)
class Instance:
    """Agents, candidates, and committee size over a shared metric space.

    ``agents`` and ``candidates`` are tuples of point ids.  Duplicate agent
    entries are allowed (co-located voters are distinct agents); candidate
    entries are distinct selectable slots even when co-located.

    Rules and auditors read lazily built, read-only tables: the
    agent-by-candidate distances, per candidate, ``dist_cols`` and their
    integer scaling ``int_cols``, the agent-by-agent distances
    ``agent_rows`` and each agent's radius ``radii(count)``, built once
    per count, the two sorted threshold sweeps ``approval_sweep`` and
    ``proximity_sweep``, the lowest candidate index at each candidate
    point ``candidate_at_point``, restricted mode's sub-instance and its
    candidate map ``restricted``, and the rank audits' quota per ell
    ``quotas`` and cover-set templates ``cover_sets(size, ell)``, built
    once per center count and ell.  One slot, ``outcome_slot``, keeps the
    checked centers, q-th center distances and rank reports of the outcome
    audited last.
    ``d_ac`` and ``d_aa`` read the metric space directly; the brute-force
    oracle uses only those, so it stays independent of the tables.
    """

    space: MetricSpace
    agents: tuple
    candidates: tuple
    k: int

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(_as_id(a, "agent") for a in self.agents))
        if self.candidates == "all":
            cands = tuple(range(self.space.num_points))
        else:
            cands = tuple(_as_id(c, "candidate") for c in self.candidates)
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "k", _as_id(self.k, "k"))
        if len(self.agents) < 1:
            raise ValueError("need at least one agent")
        if self.k < 1:
            raise ValueError("k must be positive")
        npts = self.space.num_points
        for a in self.agents:
            if not 0 <= a < npts:
                raise ValueError(f"agent point id out of range: {a}")
        for c in self.candidates:
            if not 0 <= c < npts:
                raise ValueError(f"candidate point id out of range: {c}")

    @property
    def n(self):
        return len(self.agents)

    @property
    def num_candidates(self):
        return len(self.candidates)

    def d_ac(self, agent_idx, cand_idx):
        """Distance from an agent index to a candidate index."""
        return self.space.dist(self.agents[agent_idx], self.candidates[cand_idx])

    def d_aa(self, i, j):
        """Distance between two agent indices."""
        return self.space.dist(self.agents[i], self.agents[j])

    @cached_property
    def dist_cols(self):
        """Per candidate index, the distances from every agent index: the
        one stored agent-by-candidate table, so a row ``i`` is read as
        ``dist_cols[j][i]``."""
        dist = self.space.dist
        return tuple(tuple(dist(a, c) for a in self.agents) for c in self.candidates)

    @cached_property
    def int_cols(self):
        """``dist_cols`` times the lcm of all their denominators: an integer
        table with the same ratios.  Every float is an exact binary
        rational, so the scale is a power of two on float data, and 1 on
        integer data.  The summed deviation audits read it, which keeps
        tc and q-tc exact on every kind of space, and pf and q-core decide
        their pruning test on it."""
        cols = [[d.as_integer_ratio() for d in col] for col in self.dist_cols]
        scale = math.lcm(*{den for col in cols for _, den in col})
        return tuple(tuple(num * (scale // den) for num, den in col) for col in cols)

    @cached_property
    def agent_rows(self):
        """Per agent index, the distances to every agent index."""
        dist = self.space.dist
        return tuple(tuple(dist(a, b) for b in self.agents) for a in self.agents)

    def radii(self, count):
        """Per agent index, the radius of its nearest ``count`` agents, itself
        included: the count-th smallest of its ``agent_rows`` row, as the
        very object stored.  Built once per count."""
        made = self._radii
        radii = made.get(count)
        if radii is None:
            radii = made[count] = tuple(map(_qth_smallest(count), self.agent_rows))
        return radii

    @cached_property
    def _radii(self):
        # count -> radii; the audits read only counts quota(n, k, q) for q <= k
        return {}

    @cached_property
    def approval_sweep(self):
        """The sweep over the agent-candidate distances: per candidate, a
        mask of the agents approving it (the agents in its ball), at each
        sorted distinct distance, the only radii at which any ball gains
        an agent.  It sorts the agent-major table, ``dist_cols`` transposed
        (one empty row when there is no candidate, so the width is 0), and
        keeps only the sweep."""
        return _sweep(list(zip(*self.dist_cols)) or [()])

    @cached_property
    def proximity_sweep(self):
        """The sweep over the agent-agent distances (and 0): per agent, a
        mask of the agents within the threshold, itself included.  uprf is
        unaffected: its clique search drops an agent from ``avail`` before
        reading its adjacency, and self pairs enter at y = 0, where no
        search is replayed.  The table is symmetric, so which index is the
        mask and which the bit does not matter.  Its diagonal makes the
        first threshold a zero, which is set to the int 0, so co-located
        float points cannot make it 0.0."""
        sweep = _sweep(self.agent_rows)
        return sweep._replace(ys=(0, *sweep.ys[1:]))

    def cover_sets(self, size, ell):
        """The rank audits' cover-set templates for ``size`` centers and
        one ell: for each set Y of min(ell - 1, size) center positions, in
        combinations order, the positions outside Y.  Each ell is built
        only when a scan first reads it, so rank-jr builds its one ell = 1
        template and never the 2^size of the higher rows."""
        key = (size, ell)
        made = self._cover_sets
        templates = made.get(key)
        if templates is None:
            templates = tuple(
                tuple(p for p in range(size) if p not in ysub)
                for ysub in combinations(range(size), min(ell - 1, size))
            )
            if size <= self.k:
                made[key] = templates
        return templates

    @cached_property
    def quotas(self):
        """quota(n, k, ell) for ell = 0 .. k, the least size of a group owed
        ell centers: worked out once per instance, since the rank audits
        read one per ell on every call."""
        return tuple(quota(self.n, self.k, ell) for ell in range(self.k + 1))

    @cached_property
    def _cover_sets(self):
        # (center count, ell) -> templates, kept for the instance's life; only
        # counts up to k are kept, so at most (k + 1) * k keys.  An outcome of
        # more than k centers, which ``validate`` flags, builds its own per call.
        return {}

    @cached_property
    def candidate_at_point(self):
        """Per candidate point, its lowest candidate index: the candidate
        that a rule opening an agent's point names."""
        at = {}
        for idx, c in enumerate(self.candidates):
            at.setdefault(c, idx)
        return at

    @cached_property
    def restricted(self):
        """Restricted mode's ``(sub, parent)``: the sub-instance whose
        candidates are the agents' points, in first-appearance order (which
        sets its tie-breaks), and the map from its candidate indices to the
        lowest candidate index at each point in this instance.  Built once,
        so gc and ea in restricted mode share the sub-instance's tables.
        Needs every agent on a candidate point (KeyError otherwise)."""
        points = tuple(dict.fromkeys(self.agents))
        at = self.candidate_at_point
        parent = {j: at[p] for j, p in enumerate(points)}
        return Instance(self.space, self.agents, points, self.k), parent

    def outcome_slot(self, outcome):
        """The slot of the outcome audited last, keyed by its center set:
        ``(center set, centers, kept)``, with the sorted centers, checked,
        and the map of what the audits worked out for the outcome: from
        (q, table) to the q-th center distances that
        ``audit_single.dists_to_centers`` fills, and the rank ladder's
        reports that ``audit_rank`` keeps, rank-pjr+'s under
        ``"rank-pjr+"`` and rank-pjr's per node budget under
        ``("rank-pjr", budget)``.  An outcome with another
        center set is checked and replaces the slot; one with a
        non-candidate center raises ValueError with ``validate``'s detail
        and leaves the slot as it was.  An equal outcome, however built,
        reads the slot as it stands."""
        slot = self.__dict__.get("_slot")
        if slot is None or slot[0] != outcome.centers:
            for problem in validate(self, outcome):
                if problem["kind"] == "membership":
                    raise ValueError(problem["detail"])
            slot = (outcome.centers, outcome.sorted_centers(), {})
            object.__setattr__(self, "_slot", slot)
        return slot

    def agents_within_candidates(self):
        """True when every agent sits on some candidate point (N inside C)."""
        return all(a in self.candidate_at_point for a in self.agents)

    def agents_equal_candidates(self):
        """True when agents and candidates occupy the same point set (N = C)."""
        return self.candidate_at_point.keys() == set(self.agents)


class Sweep(NamedTuple):
    """A threshold sweep sorted once: ``width`` masks grow through the
    ascending thresholds ``ys``.  Pair t of the ascending distance order
    is flat index ``bits[t] * width + rows[t]`` of the distance table and
    puts bit ``bits[t]`` into mask ``rows[t]``; the pairs within ``ys[s]``
    are the first ``ends[s]``.  Order within one threshold is immaterial:
    a replay yields only at the ends."""

    ys: tuple
    width: int
    rows: array
    bits: array
    ends: array


def _sweep(table):
    """The ``Sweep`` of a distance table, whose entry ``table[bit][row]``
    puts ``bit`` into mask ``row`` once it is within a threshold y, that
    is when ``table[bit][row] <= y``.  The thresholds are the table's
    distinct values; of equal values such as 0 and 0.0 the first one seen
    row by row is kept.
    The table's flat indices are sorted by distance (a stable sort, so
    ties keep row-major order), and each index t is stored as row
    ``t % width`` and bit ``t // width``."""
    width = len(table[0])
    flat = [d for row in table for d in row]
    order = sorted(range(len(flat)), key=flat.__getitem__)
    dists = list(map(flat.__getitem__, order))
    # each run of equal distances starts where one differs from the one before;
    # the sort is stable, so a run's first value is its first in row-major order
    starts = list(compress(range(len(dists)), map(ne, dists, [None, *dists])))
    ys = tuple(map(dists.__getitem__, starts))
    ends = [*starts[1:], len(dists)] if dists else []
    rows = array("i", [t % width for t in order])
    bits = array("i", [t // width for t in order])
    return Sweep(ys, width, rows, bits, array("q", ends))


def _entering_pairs(sweep, ys=None):
    """Yield, at each threshold y of the ascending ``ys`` (``sweep.ys``
    when None), an iterator over the ``(row, bit)`` pairs that came within
    y since the previous threshold, that is the pairs with ``d <= y`` not
    yielded before, in the sorted order.  A sweep can be read at any
    ascending ``ys``, since every pair's distance is one of its own
    thresholds.

    This is the one replay of the order the instance sorted once; every
    rule and auditor that sweeps thresholds reads it, most through
    ``_growing_masks``.  The iterators share one stream, so a caller must
    read each to its end before drawing the next.
    """
    ends = sweep.ends
    if ys is not None:
        ends = [ends[s - 1] if s else 0 for s in (bisect_right(sweep.ys, y) for y in ys)]
    pairs = zip(sweep.rows, sweep.bits)
    start = 0
    for end in ends:
        yield islice(pairs, end - start)
        start = end


def _growing_masks(sweep, ys=None):
    """Yield ``(masks, entered, grew)`` at each threshold of
    ``_entering_pairs(sweep, ys)``: the ``sweep.width`` bitmasks, mask
    ``row`` holding ``bit`` for every pair with ``d <= y``; ``entered``,
    the OR of ``1 << bit`` over the pairs that entered at the threshold;
    and ``grew``, the OR of ``1 << row`` over the rows those pairs went to.

    One list is updated in place and yielded at every threshold, so a
    caller must copy out what it keeps past the next one.
    """
    masks = [0] * sweep.width
    for pairs in _entering_pairs(sweep, ys):
        entered = grew = 0
        for row, bit in pairs:
            b = 1 << bit
            masks[row] |= b
            entered |= b
            grew |= 1 << row
        yield masks, entered, grew


def _qth_smallest(q):
    """The function that returns the q-th smallest of a sequence, or its
    largest when it holds fewer: the same object that
    ``heapq.nsmallest(q, values)[-1]`` returns, since ``min`` and the
    stable sort both break ties by position."""
    if q == 1:
        return min
    return lambda values: sorted(values)[:q][-1]


def _bits(mask):
    """The positions of the set bits of ``mask``, ascending: each step
    takes the lowest set bit, so the walk costs one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Outcome:
    """A chosen center set: a frozenset of candidate indices, at most k.
    An iterable that names an index twice is rejected, not collapsed."""

    centers: frozenset
    origin: str = "external"

    def __post_init__(self):
        ids = [_as_id(c, "center") for c in self.centers]
        centers = frozenset(ids)
        if len(centers) != len(ids):
            raise ValueError(f"repeated center in {sorted(ids)}")
        object.__setattr__(self, "centers", centers)

    def sorted_centers(self):
        return tuple(sorted(self.centers))


def validate(instance, outcome):
    """Check an outcome against an instance; violations returned as data.

    Returns an empty list when the outcome is well-formed, otherwise a list
    of ``{"kind": ..., "detail": ...}`` records.
    """
    violations = []
    if len(outcome.centers) > instance.k:
        violations.append(
            {"kind": "size", "detail": f"{len(outcome.centers)} centers exceed k={instance.k}"}
        )
    for c in sorted(outcome.centers):
        if not 0 <= c < instance.num_candidates:
            violations.append(
                {"kind": "membership", "detail": f"center {c} is not a candidate index"}
            )
    return violations
