"""Embedded reference corpus: small instances with known audit verdicts.

Each builder returns ``(instance, labels)`` where ``labels`` maps display
names to point ids (these instances list candidates in point order, so the
ids double as candidate indices).  ``repro_cases`` enumerates every recorded
verdict; the command-line ``repro`` subcommand and the regression tests both
replay it.

Graph fixtures are encoded from their drawn edge lists.  One drawing quirk
is material: the 9-point variant of the two-cluster graph leaves one node
with no incident edges, so that point is omitted entirely (a disconnected
graph has no metric), giving 9 agents rather than 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .generate import block_edges
from .instance import Instance, Outcome, quota
from .metric import MetricSpace


def _co_located(base, others):
    return [(base, o, 0) for o in others]


def _graph_instance(num, edges, k, agents=None, candidates="all"):
    space = MetricSpace.from_graph(num, edges)
    agents = tuple(range(num)) if agents is None else tuple(agents)
    return Instance(space, agents, candidates, k)


def fig2a(k=5):
    """Two clusters joined by a long edge; four co-located agents on the
    left, six spread on the right."""
    labels = {str(i): i - 1 for i in range(1, 11)}
    edges = _co_located(0, [1, 2, 3]) + [
        (0, 4, 10),
        (4, 5, 1),
        (5, 6, 1),
        (4, 7, 1),
        (5, 8, 1),
        (6, 9, 1),
        (7, 8, 1),
        (8, 9, 1),
    ]
    return _graph_instance(10, edges, k), labels


def fig2b(k=5):
    """Variant with stretched left bridge (5) and inner edge (3)."""
    labels = {str(i): i - 1 for i in range(1, 11)}
    edges = _co_located(0, [1, 2, 3]) + [
        (0, 4, 5),
        (4, 5, 3),
        (5, 6, 1),
        (5, 8, 1),
        (7, 8, 1),
        (8, 9, 1),
    ]
    return _graph_instance(10, edges, k), labels


def fig3a(k=4):
    """Sparser two-cluster graph with 9 points (see module docstring)."""
    names = [1, 2, 3, 4, 5, 6, 8, 9, 10]
    labels = {str(name): i for i, name in enumerate(names)}
    edges = _co_located(0, [1, 2, 3]) + [
        (labels["1"], labels["5"], 10),
        (labels["5"], labels["6"], 1),
        (labels["6"], labels["9"], 1),
        (labels["8"], labels["9"], 1),
        (labels["9"], labels["10"], 1),
    ]
    return _graph_instance(9, edges, k), labels


def fig3b(k=4):
    """Ten points with two routes into the left cluster."""
    labels = {str(i): i - 1 for i in range(1, 11)}
    edges = _co_located(0, [1, 2, 3]) + [
        (0, 4, 4),
        (4, 5, 2),
        (5, 6, 3),
        (5, 8, 2),
        (7, 8, 1),
        (8, 9, 1),
        (0, 5, 4),
    ]
    return _graph_instance(10, edges, k), labels


def fig4a(alpha=2):
    """Path of three singles behind a bridge of length alpha; three
    co-located agents at the root.  k = 2."""
    labels = {str(i): i - 1 for i in range(1, 7)}
    edges = _co_located(0, [1, 2]) + [
        (0, 3, alpha),
        (3, 4, 1),
        (4, 5, 1),
    ]
    return _graph_instance(6, edges, 2), labels


def fig4b(beta=2):
    """Star around c: three unit spokes and two centers at radius beta."""
    labels = {"w1": 0, "w2": 1, "c": 2, "1": 3, "2": 4, "3": 5}
    edges = [
        (2, 0, beta),
        (2, 1, beta),
        (2, 3, 1),
        (2, 4, 1),
        (2, 5, 1),
    ]
    return _graph_instance(6, edges, 2), labels


def fig4c(beta=2):
    """Four agents around c at distance 1 and around w at distance
    2*beta; only the four agents are voters.  k = 1."""
    labels = {"1": 0, "2": 1, "3": 2, "4": 3, "c": 4, "w": 5}
    edges = [
        (4, 0, 1),
        (4, 1, 1),
        (4, 2, 1),
        (4, 3, 1),
        (0, 5, 2 * beta),
        (1, 5, 2 * beta),
        (2, 5, 2 * beta),
        (3, 5, 2 * beta),
    ]
    space = MetricSpace.from_graph(6, edges)
    return Instance(space, (0, 1, 2, 3), "all", 1), labels


def path_uprf():
    """Three agents on a unit path with one candidate two past the end."""
    labels = {"1": 0, "2": 1, "3": 2, "c": 3}
    space = MetricSpace.from_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 2)])
    return Instance(space, (0, 1, 2), "all", 1), labels


def near_tie_uprf():
    """Two agents at distance 1 and one candidate w at 1 + 10^-12 from the
    first and 2 from the second; an exact matrix, k = 1.  With W = {w} the
    pair's diameter is 1 and neither member is within 1 of w, so UPRF is
    violated; any slack of 10^-12 or more would hide it."""
    labels = {"a0": 0, "a1": 1, "w": 2}
    near = 1 + Fraction(1, 10**12)
    space = MetricSpace.from_matrix([[0, 1, near], [1, 0, 2], [near, 2, 0]])
    return Instance(space, (0, 1), "all", 1), labels


def lb_tc(alpha=1, n=400, k=4):
    """Core stress fixture: a near-quota block co-located with candidate c,
    the rest at distance 1, and the single open center at distance alpha
    from the far block."""
    z = quota(n, k, 1, 1) - 1
    edges = [(0, 2 + i, 0) for i in range(z)]
    edges += [(0, 2 + i, 1) for i in range(z, n)]
    edges += [(1, 2 + i, alpha) for i in range(z, n)]
    labels = {"c": 0, "c1": 1}
    space = MetricSpace.from_graph(n + 2, edges)
    agents = tuple(range(2, n + 2))
    return Instance(space, agents, (0, 1), k), labels


def qtc_blocks(n=10, k=4):
    """Two co-located blocks at distance 1; the committee takes one center
    from the small block and k-1 from the large one."""
    if not 2 <= k <= n:
        raise ValueError("fixture needs 2 <= k <= n")
    z = quota(n, k, 1, 1)
    labels = {"block1": 0, "block2": z}
    space = MetricSpace.from_graph(n, block_edges(n, k))
    inst = Instance(space, tuple(range(n)), "all", k)
    centers = frozenset({0} | set(range(z, z + k - 1)))
    return inst, labels, Outcome(centers)


def outcome_of(labels, names):
    return Outcome(frozenset(labels[x] for x in names))


@dataclass(frozen=True)
class ReproCase:
    fixture: str
    notion: str
    params: dict = field(default_factory=dict)
    outcome: tuple = ()
    expected: object = None
    build: object = None  # () -> (instance, labels)
    witness: tuple = None  # (agent labels, candidate labels) for *-witness rows


def repro_cases():
    """Every recorded verdict of the corpus, in report order.

    Rows tagged ``*-witness`` re-evaluate a concrete recorded deviation and
    assert its exact factor; plain rows run the full auditor.  The recorded
    3-of-C' deviation ({5..10} to {6,9,10}) certifies a factor of 10/3, but
    it is not the binding one: full enumeration finds {5,6,9}, where every
    member of the same group improves by 13/3 (the exact audit value).
    """
    w2a5 = ("1", "2", "3", "6", "9")
    w2a4 = ("1", "2", "6", "7")
    right = ("5", "6", "7", "8", "9", "10")
    cases = [
        ReproCase("fig2a", "pf", {}, w2a5, 1, lambda: fig2a(5)),
        ReproCase("fig2a", "qcore", {"q": 3}, w2a5, Fraction(13, 3), lambda: fig2a(5)),
        ReproCase(
            "fig2a",
            "qcore-witness",
            {"q": 3},
            w2a5,
            Fraction(10, 3),
            lambda: fig2a(5),
            witness=(right, ("6", "9", "10")),
        ),
        ReproCase("fig2a", "qcore", {"q": 1}, w2a5, 1, lambda: fig2a(5)),
        ReproCase("fig2a", "if", {}, w2a4, 2, lambda: fig2a(4)),
        ReproCase("fig2a", "tc", {"gamma": 1}, w2a4, 2, lambda: fig2a(4)),
        ReproCase(
            "fig2a",
            "tc-witness",
            {"gamma": 1},
            w2a4,
            2,
            lambda: fig2a(4),
            witness=(("8", "9", "10"), ("9",)),
        ),
        ReproCase("fig2b", "dprf", {}, w2a5, "violation", lambda: fig2b(5)),
        ReproCase("fig2b", "uprf", {}, w2a5, "pass", lambda: fig2b(5)),
        ReproCase("fig3a", "solve-gc", {}, ("1", "6"), None, lambda: fig3a(4)),
        ReproCase("fig3a", "solve-ea", {}, ("1", "5", "6", "9"), None, lambda: fig3a(4)),
        ReproCase("fig3a", "rank-jr", {}, ("1", "2", "3", "6"), "pass", lambda: fig3a(4)),
        ReproCase("fig3a", "rank-pjr", {}, ("1", "2", "3", "6"), "violation", lambda: fig3a(4)),
        ReproCase("fig3b", "rank-pjr", {}, ("1", "2", "3", "9"), "pass", lambda: fig3b(4)),
        ReproCase("fig3b", "rank-pjr+", {}, ("1", "2", "3", "9"), "violation", lambda: fig3b(4)),
        ReproCase("fig4a", "pf", {}, ("2", "3"), 2, lambda: fig4a(2)),
        ReproCase("fig4a", "if", {}, ("2", "3"), 3, lambda: fig4a(2)),
        ReproCase("fig4b", "if", {}, ("w1", "w2"), 2, lambda: fig4b(2)),
        ReproCase("fig4b", "pf", {}, ("w1", "w2"), 3, lambda: fig4b(2)),
        ReproCase("fig4c", "if", {}, ("w",), 2, lambda: fig4c(2)),
        ReproCase("fig4c", "pf", {}, ("w",), 4, lambda: fig4c(2)),
        ReproCase("path_uprf", "uprf", {}, ("c",), "pass", path_uprf),
        ReproCase("path_uprf", "rank-jr", {}, ("c",), "violation", path_uprf),
        ReproCase(
            "lb_tc",
            "tc",
            {"gamma": 2},
            ("c1",),
            Fraction(299, 101),
            lambda: lb_tc(1, 400, 4),
        ),
        ReproCase("qtc_blocks", "qtc", {"q": 2, "gamma": 1, "size_cap": 4}, None, math.inf),
        ReproCase("qtc_blocks", "rank-pjr", {}, None, "pass"),
        ReproCase("qtc_blocks", "uprf", {}, None, "pass"),
        ReproCase("qtc_blocks", "qif", {"q": 2}, None, 1),
        ReproCase("near_tie_uprf", "uprf", {}, ("w",), "violation", near_tie_uprf),
    ]
    return cases
