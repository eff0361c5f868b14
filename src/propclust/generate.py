"""Seeded random instance generators for property tests and the CLI.

Three families, named in ``FAMILIES`` (the ``gen`` choices): coordinate
instances in the unit square, connected graphs with small integer weights
(exercising exact arithmetic and co-location), and the two-block stress
construction.  The same (family, parameters, seed) always yields the same
instance.
"""

from __future__ import annotations

import random

from .instance import Instance, quota
from .metric import MetricSpace, _as_id


def euclidean_instance(rng, n, k, extra_candidates=0):
    """Agents at random unit-square points; candidates are all points
    (agents plus ``extra_candidates`` candidate-only points)."""
    total = n + extra_candidates
    coords = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(total)]
    space = MetricSpace.from_points(coords)
    return Instance(space, tuple(range(n)), "all", k)


def _graph_edges(rng, total):
    edges = []
    for v in range(1, total):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, 9)))
    for _ in range(rng.randrange(total)):
        u = rng.randrange(total)
        v = rng.randrange(total)
        if u != v:
            lo = 0 if rng.random() < 0.2 else 1
            edges.append((u, v, rng.randint(lo, 9)))
    return edges


def graph_instance(rng, n, k, extra_candidates=0):
    """Connected random graph with integer weights; a sprinkling of
    zero-weight edges keeps co-located points in the mix."""
    total = n + extra_candidates
    edges = _graph_edges(rng, total)
    space = MetricSpace.from_graph(total, edges)
    return Instance(space, tuple(range(n)), "all", k)


def random_instance(rng, max_n=12, max_c=12, max_k=5, mode=None):
    """One mixed-family instance.

    ``mode`` forces the agent/candidate relationship: "equal" (N = C),
    "subset" (agents strictly inside candidates), "free" (candidates are an
    arbitrary point subset), or None for a seeded mix.  ``max_n`` must be
    at least 2 and ``max_k`` at least 1; both are checked before any draw.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    if mode is None:
        mode = rng.choice(["equal", "equal", "subset", "subset", "free"])
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(max_k, n))
    extra = 0 if mode == "equal" else rng.randint(1, max(1, max_c - n))
    if n + extra > max_c:
        extra = max(0, max_c - n)
    inst = rng.choice([euclidean_instance, graph_instance])(rng, n, k, extra)
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


def block_edges(n, k):
    """The ``[u, v, w]`` edges of two co-located blocks at distance 1,
    points 0 .. z - 1 and z .. n - 1 for z = quota(n, k).  Unchecked."""
    z = quota(n, k, 1, 1)
    edges = [[0, i, 0] for i in range(1, z)]
    edges += [[z, i, 0] for i in range(z + 1, n)]
    edges.append([0, z, 1])
    return edges


def _euclidean_metric(rng, n, k):
    coords = [[round(rng.uniform(0, 1), 9), round(rng.uniform(0, 1), 9)] for _ in range(n)]
    return {"type": "points", "dim": 2, "coords": coords, "norm": "l2"}


def _graph_metric(rng, n, k):
    return {"type": "graph", "nodes": n, "edges": [list(e) for e in _graph_edges(rng, n)]}


def _blocks_metric(rng, n, k):
    return {"type": "graph", "nodes": n, "edges": block_edges(n, k)}


# The one list of generate_family's families: each one's metric and the
# least n and k it takes.
_FAMILY_METRICS = {
    "euclidean": (_euclidean_metric, 1),
    "graph": (_graph_metric, 1),
    "blocks": (_blocks_metric, 2),
}
FAMILIES = tuple(_FAMILY_METRICS)


def generate_family(family, n, k, seed):
    """CLI entry: deterministic InstanceFile dict for a family.  An unknown
    family, then sizes that are not ints (bools included) or make no valid
    instance, raise ValueError (blocks needs two blocks)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    metric, low = _FAMILY_METRICS[family]
    n, k = _as_id(n, "n"), _as_id(k, "k")
    for name, value in (("n", n), ("k", k)):
        if value < low:
            raise ValueError(f"{family} needs {name} >= {low}, got {value}")
    return {
        "metric": metric(random.Random(seed), n, k),
        "agents": list(range(n)),
        "candidates": "all",
        "k": k,
    }
