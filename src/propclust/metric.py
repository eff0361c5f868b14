"""Finite metric spaces with exact distance queries.

Distances are plain numbers: ``int`` / ``Fraction`` for graph metrics and
exact matrices, ``float`` for coordinate spaces.  Exact inputs stay exact all
the way through shortest paths and queries, so audits on integer-weighted
instances never see rounding.  Each space owns the within-y rule that every
rule and auditor reads, :meth:`MetricSpace.limit`: an exact space (every
distance an int or ``Fraction``) compares exactly, and a space holding any
float distance allows a slack of ``TAU`` so it behaves like its exact
counterpart near ties.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from numbers import Real
from operator import index, sub

# Slack for radius comparisons in spaces with float distances.
TAU = 1e-9

_NORMS = ("l1", "l2", "linf")


def _as_id(value, what):
    """``value`` as an int; bools and non-integral values raise ValueError
    rather than being rounded."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _as_coord(value):
    """``value`` as a float; strings and bools raise ValueError."""
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"coordinate must be a number, got {value!r}")


def as_weight(w):
    """Coerce an edge weight: int, Fraction, or a [num, den] pair."""
    if isinstance(w, bool):
        raise ValueError("invalid weight: bool")
    if isinstance(w, (int, Fraction)):
        if w < 0:
            raise ValueError("negative weight")
        return w
    if isinstance(w, (list, tuple)) and len(w) == 2:
        num, den = _as_id(w[0], "weight numerator"), _as_id(w[1], "weight denominator")
        if den == 0:
            raise ValueError("weight denominator is zero")
        frac = Fraction(num, den)
        if frac < 0:
            raise ValueError("negative weight")
        return frac if frac.denominator != 1 else frac.numerator
    raise ValueError(f"invalid weight: {w!r}")


def _as_distance(x):
    """Coerce a matrix entry: a finite non-negative float, or a weight."""
    if isinstance(x, float):
        if not math.isfinite(x) or x < 0:
            raise ValueError(f"invalid distance: {x!r}")
        return x
    return as_weight(x)


class MetricSpace:
    """Immutable distance oracle over points ``0 .. num_points - 1``.

    Construct via :meth:`from_matrix`, :meth:`from_graph`, or
    :meth:`from_points`.  All pairwise distances are materialized at
    construction; instances are safe for concurrent reads.
    """

    __slots__ = ("_d", "_slack", "kind", "coords", "norm")

    def __init__(self, d, kind, coords=None, norm=None):
        self._d = d
        self._slack = TAU if any(isinstance(x, float) for row in d for x in row) else 0
        self.kind = kind
        self.coords = coords
        self.norm = norm

    @property
    def num_points(self):
        return len(self._d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, rows):
        """Build from a full symmetric distance matrix (O(n^3) validation)."""
        n = len(rows)
        d = [list(r) for r in rows]
        if any(len(r) != n for r in d):
            raise ValueError("matrix is not square")
        for i in range(n):
            if d[i][i] != 0:
                raise ValueError("nonzero diagonal")
            for j in range(n):
                if d[i][j] < 0:
                    raise ValueError("negative distance")
                if d[i][j] != d[j][i]:
                    raise ValueError("matrix is not symmetric")
        space = cls(d, "matrix")
        limit = space.limit
        # exhaustive triangle check; the inner max over k runs in C, and
        # limit(y) >= y, so limit is consulted only past y itself
        for j in range(n):
            dj = d[j]
            for i in range(n):
                di = d[i]
                excess = max(map(sub, di, dj))
                if excess > di[j] and excess > limit(di[j]):
                    k = max(range(n), key=lambda x: di[x] - dj[x])
                    raise ValueError(f"triangle inequality fails at ({i},{j},{k})")
        return space

    @classmethod
    def from_graph(cls, num_nodes, edges):
        """Build the shortest-path metric of an undirected weighted graph.

        ``edges`` is an iterable of ``(u, v, w)`` with non-negative rational
        weights (int, Fraction, or ``[num, den]``).  Raises on disconnected
        graphs since the metric would be undefined.
        """
        n = _as_id(num_nodes, "node count")
        if n <= 0:
            raise ValueError("graph needs at least one node")
        adj = [[] for _ in range(n)]
        for u, v, w in edges:
            u, v = _as_id(u, "edge endpoint"), _as_id(v, "edge endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u},{v})")
            weight = as_weight(w)
            adj[u].append((v, weight))
            adj[v].append((u, weight))
        d = [_dijkstra(adj, s) for s in range(n)]
        for row in d:
            if any(x is None for x in row):
                raise ValueError("metric undefined: graph is disconnected")
        return cls(d, "graph")

    @classmethod
    def from_points(cls, coords, norm="l2"):
        """Build from finite coordinate rows under an lp norm ("l1", "l2",
        "linf")."""
        if norm not in _NORMS:
            raise ValueError(f"unknown norm {norm!r}")
        pts = [tuple(map(_as_coord, row)) for row in coords]
        if not pts:
            raise ValueError("need at least one point")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("inconsistent dimension")
        if not all(map(math.isfinite, (x for p in pts for x in p))):
            raise ValueError("non-finite coordinate")
        n = len(pts)
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = _norm_dist(pts[i], pts[j], norm)
        return cls(d, "points", coords=pts, norm=norm)

    # -- queries -----------------------------------------------------------

    def limit(self, y):
        """The largest distance that counts as within radius ``y``: ``y``
        itself in an exact space, ``y + TAU`` in a space with floats."""
        return y + self._slack if self._slack else y

    @property
    def exact(self):
        """True when every distance is an int or ``Fraction``."""
        return not self._slack

    def dist(self, a, b):
        """Metric distance between two point ids."""
        return self._d[a][b]

    def dist_q(self, a, targets, q):
        """The q-th smallest distance from ``a`` to ``targets``.

        ``targets`` is a sequence of point ids; repeats count with
        multiplicity.  ``dist_q(a, T, 1)`` is the ordinary nearest distance.
        """
        targets = list(targets)
        if q < 1 or q > len(targets):
            raise ValueError("insufficient targets")
        row = self._d[a]
        return heapq.nsmallest(q, (row[t] for t in targets))[-1]

    def ball(self, a, r, universe):
        """Points of ``universe`` within distance ``r`` of ``a``."""
        row = self._d[a]
        limit = self.limit(r)
        return {x for x in universe if row[x] <= limit}

    def neighborhood_radius(self, a, agents, count):
        """Smallest radius whose ball around ``a`` holds ``count`` agents.

        ``agents`` is a sequence (repeats count with multiplicity) that must
        contain ``a``; the result is the count-th smallest distance from
        ``a``, with ``a`` itself contributing distance zero.
        """
        agents = list(agents)
        if a not in agents:
            raise ValueError("point is not one of the agents")
        if count < 1 or count > len(agents):
            raise ValueError("count exceeds number of agents")
        row = self._d[a]
        return heapq.nsmallest(count, (row[x] for x in agents))[-1]


def _dijkstra(adj, source):
    n = len(adj)
    dist = [None] * n
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = du
        for v, w in adj[u]:
            if dist[v] is None:
                heapq.heappush(heap, (du + w, v))
    return dist


def _norm_dist(p, q, norm):
    if norm == "l2":
        return math.dist(p, q)
    diffs = [abs(x - y) for x, y in zip(p, q)]
    return sum(diffs) if norm == "l1" else max(diffs)
