"""Problem instances, outcomes, and quotas by integer ceiling division.

An instance is a set of agents and a set of candidates (both lists of point
ids into one metric space, agents possibly repeated) together with a target
number of centers ``k``.  An outcome is a set of *candidate indices*, which
keeps co-located candidates distinguishable.

The threshold sweep that every rule and auditor reads lives here too:
``_growing_masks`` over the pairs of ``_approvals`` or ``_proximity``,
counting a distance d as within a threshold y when ``d <= y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

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

    Rules and auditors read four lazily built, read-only tables: the
    agent-by-candidate distances ``dist_rows`` and their integer scaling
    ``int_rows``, the agent-by-agent distances ``agent_rows`` and the
    sorted distinct agent-candidate distances ``levels``.  ``d_ac`` and
    ``d_aa`` read the metric space directly; the brute-force oracle uses
    only those, so it stays independent of the tables.
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
    def dist_rows(self):
        """Per agent index, the distances to every candidate index."""
        dist = self.space.dist
        return tuple(tuple(dist(a, c) for c in self.candidates) for a in self.agents)

    @cached_property
    def int_rows(self):
        """``dist_rows`` times the lcm of all their denominators: an integer
        table with the same ratios.  Every float is an exact binary
        rational, so the scale is a power of two on float data, and 1 on
        integer data.  The summed deviation audits read it, which keeps
        tc and q-tc exact on every kind of space."""
        rows = [[d.as_integer_ratio() for d in row] for row in self.dist_rows]
        scale = math.lcm(*{den for row in rows for _, den in row})
        return tuple(tuple(num * (scale // den) for num, den in row) for row in rows)

    @cached_property
    def agent_rows(self):
        """Per agent index, the distances to every agent index."""
        dist = self.space.dist
        return tuple(tuple(dist(a, b) for b in self.agents) for a in self.agents)

    @cached_property
    def levels(self):
        """Sorted distinct agent-candidate distances: the only radii at
        which any ball around a candidate gains an agent."""
        return tuple(sorted({d for row in self.dist_rows for d in row}))

    def agents_within_candidates(self):
        """True when every agent sits on some candidate point (N inside C)."""
        cand_points = set(self.candidates)
        return all(a in cand_points for a in self.agents)

    def agents_equal_candidates(self):
        """True when agents and candidates occupy the same point set (N = C)."""
        return set(self.agents) == set(self.candidates)


def _growing_masks(size, pairs, ys):
    """Yield ``(masks, entered, grew)`` at each threshold y of the ascending
    ``ys``: the ``size`` bitmasks, mask ``row`` holding ``bit`` for every
    pair ``(d, row, bit)`` with ``d <= y``; ``entered``, the OR of
    ``1 << bit`` over the pairs that came within y at this threshold; and
    ``grew``, the OR of ``1 << row`` over the rows those pairs went to.

    Every rule and auditor that sweeps thresholds reads its masks here.  The
    pairs are sorted once and OR-ed in as y grows.  One list is updated in
    place and yielded at every threshold, so a caller must copy out what it
    keeps past the next one.
    """
    pairs = sorted(pairs, key=itemgetter(0))
    masks = [0] * size
    pos = 0
    for y in ys:
        entered = grew = 0
        while pos < len(pairs) and pairs[pos][0] <= y:
            _, row, bit = pairs[pos]
            b = 1 << bit
            masks[row] |= b
            entered |= b
            grew |= 1 << row
            pos += 1
        yield masks, entered, grew


def _approvals(instance):
    """Sweep over the agent-candidate distances: per candidate, a mask of
    the agents approving it (the agents in its ball)."""
    pairs = [(d, j, i) for i, row in enumerate(instance.dist_rows) for j, d in enumerate(row)]
    return instance.levels, instance.num_candidates, pairs


def _proximity(instance):
    """Sweep over the agent-agent distances (and 0): per agent, a mask of
    the agents within the threshold, itself included.  uprf is unaffected:
    its clique search drops an agent from ``avail`` before reading its
    adjacency, and self pairs enter at y = 0, where no search is replayed."""
    rows = instance.agent_rows
    pairs = [(d, i, j) for i, row in enumerate(rows) for j, d in enumerate(row)]
    # the int 0 comes first, so co-located float points cannot make it 0.0
    return sorted({0} | {d for d, _, _ in pairs}), instance.n, pairs


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


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


def _checked_centers(instance, outcome):
    """Sorted centers; ValueError with ``validate``'s detail for a non-candidate."""
    for problem in validate(instance, outcome):
        if problem["kind"] == "membership":
            raise ValueError(problem["detail"])
    return outcome.sorted_centers()
