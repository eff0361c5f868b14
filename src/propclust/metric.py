"""Finite metric spaces with exact distance queries.

Distances are plain numbers: ``int`` / ``Fraction`` for graph metrics and
exact matrices, ``float`` for coordinate spaces.  Exact inputs stay exact all
the way through shortest paths and queries, so audits on integer-weighted
instances never see rounding.  Every rule and auditor counts d as within
radius y when ``d <= y``, on every kind of space: a float is an exact binary
rational and all of them read the same stored distances, so comparing them
as given is self-consistent.  One float tolerance is left, for input
rounding: :meth:`MetricSpace.from_matrix`'s triangle check.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from numbers import Real
from operator import index, sub

# Read only by the benchmark's violation re-check (perfbench/checks.py).
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


def _as_gamma(value):
    """``value`` as the exact ratio ``(p, q)`` of ints, q > 0, of a quota
    scale gamma >= 1: an int, a Fraction or a finite float.  Anything else,
    bools, strings, inf and nan included, raises ValueError naming gamma
    rather than being coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        p, q = value, 1
    elif isinstance(value, Fraction) or isinstance(value, float) and math.isfinite(value):
        p, q = value.as_integer_ratio()
    else:
        raise ValueError(f"gamma must be an int, a Fraction or a finite float, got {value!r}")
    if p < q:
        raise ValueError("gamma must be at least 1")
    return p, q


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

    __slots__ = ("_d", "exact", "kind", "coords", "norm")

    def __init__(self, d, kind, coords=None, norm=None):
        self._d = d
        # True when every distance is an int or ``Fraction``
        self.exact = not any(isinstance(x, float) for row in d for x in row)
        # far-apart finite coordinates can overflow to an inf distance
        if not self.exact and any(math.inf in row for row in d):
            raise ValueError("distances must be finite")
        self.kind = kind
        self.coords = coords
        self.norm = norm

    @property
    def num_points(self):
        return len(self._d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, rows):
        """Build from a full symmetric distance matrix (O(n^3) validation).

        The triangle inequality is checked exactly, except that a matrix
        holding a float may miss it by ``4 * sys.float_info.epsilon`` times
        the compared rows' largest distance, the rounding of float input."""
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
        room = 0 if space.exact else 4 * sys.float_info.epsilon
        rowmax = [max(r) for r in d]
        # exhaustive triangle check, each unordered pair once: neither
        # max_k (d_ik - d_jk) nor max_k (d_jk - d_ik), minus the min of the
        # same differences, may pass d_ij; the max and min run in C, and
        # the allowance is consulted only past d_ij itself
        for j in range(n):
            dj = d[j]
            for i in range(j):
                di = d[i]
                diffs = list(map(sub, di, dj))
                excess = max(max(diffs), -min(diffs))
                if excess > di[j] and excess > di[j] + room * max(rowmax[i], rowmax[j]):
                    i, j, k = _first_failure(d, rowmax, room)
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

    def dist(self, a, b):
        """Metric distance between two point ids."""
        return self._d[a][b]


def _first_failure(d, rowmax, room):
    """The failing triangle ``(i, j, k)`` that an ordered scan, j-major,
    meets first: d_ik passes d_ij + d_jk by more than the allowance.
    ``from_matrix`` runs it only once a failure is known, to name it."""
    n = len(d)
    for j in range(n):
        dj = d[j]
        for i in range(n):
            di = d[i]
            excess = max(map(sub, di, dj))
            if excess > di[j] and excess > di[j] + room * max(rowmax[i], rowmax[j]):
                return i, j, max(range(n), key=lambda x: di[x] - dj[x])


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
