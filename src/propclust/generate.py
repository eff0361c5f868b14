"""Seeded random instance generators for property tests and the CLI.

Three families: coordinate instances in the unit square, connected graphs
with small integer weights (exercising exact arithmetic and co-location),
and the two-block stress construction.  The same (family, parameters, seed)
always yields the same instance.
"""

from __future__ import annotations

import random

from .instance import Instance, quota
from .metric import MetricSpace


def euclidean_instance(rng, n, k, extra_candidates=0):
    """Agents at random unit-square points; candidates are all points
    (agents plus ``extra_candidates`` candidate-only points)."""
    total = n + extra_candidates
    coords = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(total)]
    space = MetricSpace.from_points(coords)
    return Instance(space, tuple(range(n)), "all", k)


def _graph_edges(rng, total, zero_edges=True):
    edges = []
    for v in range(1, total):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, 9)))
    for _ in range(rng.randrange(total)):
        u = rng.randrange(total)
        v = rng.randrange(total)
        if u != v:
            lo = 0 if zero_edges and rng.random() < 0.2 else 1
            edges.append((u, v, rng.randint(lo, 9)))
    return edges


def graph_instance(rng, n, k, extra_candidates=0, zero_edges=True):
    """Connected random graph with integer weights; a sprinkling of
    zero-weight edges keeps co-located points in the mix."""
    total = n + extra_candidates
    edges = _graph_edges(rng, total, zero_edges)
    space = MetricSpace.from_graph(total, edges)
    return Instance(space, tuple(range(n)), "all", k)


def random_instance(rng, max_n=12, max_c=12, max_k=5, mode=None):
    """One mixed-family instance.

    ``mode`` forces the agent/candidate relationship: "equal" (N = C),
    "subset" (agents strictly inside candidates), "free" (candidates are an
    arbitrary point subset), or None for a seeded mix.
    """
    if mode is None:
        mode = rng.choice(["equal", "equal", "subset", "subset", "free"])
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(max_k, n))
    extra = 0 if mode == "equal" else rng.randint(1, max(1, max_c - n))
    if n + extra > max_c:
        extra = max(0, max_c - n)
    if mode == "equal":
        extra = 0
    family = rng.choice(["euclidean", "graph"])
    if family == "euclidean":
        inst = euclidean_instance(rng, n, k, extra)
    else:
        inst = graph_instance(rng, n, k, extra)
    if mode == "free":
        pts = list(range(inst.space.num_points))
        size = rng.randint(1, len(pts))
        cands = tuple(sorted(rng.sample(pts, size)))
        inst = Instance(inst.space, inst.agents, cands, k)
    if mode != "equal" and inst.n < max_n and rng.random() < 0.2:
        # duplicate one agent entry: co-located voters are distinct agents
        agents = inst.agents + (inst.agents[rng.randrange(inst.n)],)
        inst = Instance(inst.space, agents, inst.candidates, k)
    return inst


def instance_to_file(instance):
    """InstanceFile JSON object for an instance (graph spaces are not
    reconstructable from distances, so those emit a matrix)."""
    space = instance.space
    if space.kind == "points":
        metric = {
            "type": "points",
            "dim": len(space.coords[0]),
            "coords": [list(p) for p in space.coords],
            "norm": space.norm,
        }
    else:
        metric = {
            "type": "matrix",
            "d": [
                [_encode_weight(space.dist(i, j)) for j in range(space.num_points)]
                for i in range(space.num_points)
            ],
        }
    return {
        "metric": metric,
        "agents": list(instance.agents),
        "candidates": list(instance.candidates),
        "k": instance.k,
    }


def _encode_weight(w):
    if isinstance(w, float) or isinstance(w, int):
        return w
    return [w.numerator, w.denominator]


def generate_family(family, n, k, seed):
    """CLI entry: deterministic InstanceFile dict for a family.  Sizes that
    make no valid instance raise ValueError (blocks needs two blocks)."""
    low = 2 if family == "blocks" else 1
    for name, value in (("n", n), ("k", k)):
        if value < low:
            raise ValueError(f"{family} needs {name} >= {low}, got {value}")
    rng = random.Random(seed)
    if family == "euclidean":
        coords = [
            [round(rng.uniform(0, 1), 9), round(rng.uniform(0, 1), 9)]
            for _ in range(n)
        ]
        return {
            "metric": {"type": "points", "dim": 2, "coords": coords, "norm": "l2"},
            "agents": list(range(n)),
            "candidates": "all",
            "k": k,
        }
    if family == "graph":
        edges = [[u, v, w] for u, v, w in _graph_edges(rng, n)]
        return {
            "metric": {"type": "graph", "nodes": n, "edges": edges},
            "agents": list(range(n)),
            "candidates": "all",
            "k": k,
        }
    if family == "blocks":
        z = quota(n, k, 1, 1)
        edges = [[0, i, 0] for i in range(1, z)]
        edges += [[z, i, 0] for i in range(z + 1, n)]
        edges.append([0, z, 1])
        return {
            "metric": {"type": "graph", "nodes": n, "edges": edges},
            "agents": list(range(n)),
            "candidates": "all",
            "k": k,
        }
    raise ValueError(f"unknown family {family!r}")
