"""The benchmark's workloads: seeded inputs and the calls one pass makes.

A workload is a list of jobs.  A job is one instance together with the
rules to run on it and the auditors to run on the outcomes of some of those
rules.  ``build`` makes the jobs from a seed; the pass loop in ``run.py``
executes them.  Everything here uses only the public functions of the
package, looked up by their ``<module>.<function>`` names, which are also the
names of the per-layer metrics.

Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
NAMES = ("eucl-threshold", "graph-exact", "mixed-corpus")

# Instance counts and sizes.  Per-instance cost varies a lot with the data
# (expanding approvals stops at a data-dependent level), so each pass spreads
# its work over many instances to keep seed-to-seed spread small.
FULL = {
    "eucl-threshold": {"count": 48, "n": 12, "extra": 6, "big_n": 80},
    "graph-exact": {"count": 32, "n": 8},
    "mixed-corpus": {"count": 540},
}
SMOKE = {
    "eucl-threshold": {"count": 2, "n": 8, "extra": 4, "big_n": 12},
    "graph-exact": {"count": 2, "n": 8},
    "mixed-corpus": {"count": 12},
}
# generator seed of the larger eucl-threshold instance, whatever the workload
# seed: its uprf audit then always ends pass / cap_exhausted after the same
# number of search nodes
BIG_SEED = 1
K = 5
# agents and points per mixed-corpus instance are at most this.  An
# instance's cost grows steeply with its size, so a corpus's total varies
# from seed to seed; resampling measured per-instance costs, the middle half
# of a pass's audit time over seeds spreads 8 % of its median at 8 (320
# instances) and 5 % at 6 (540 instances, about the same cost)
MIXED_MAX_N = 6


@dataclass
class Job:
    """One instance and the calls a pass makes on it.

    ``rules`` holds (tag, function name, extra args); ``audits`` holds
    (function name, extra args) and runs on the outcome of every rule whose
    tag is in ``audited``.
    """

    instance: object
    rules: list
    audits: list
    audited: tuple


def resolve(pc, name):
    """The package function behind a ``<module>.<function>`` name."""
    module, func = name.split(".")
    return getattr(getattr(pc, module), func)


def rule_applies(instance, fname, args):
    if fname == "algorithms.fair_greedy_capture":
        q = args[0]
        return instance.agents_equal_candidates() and 1 <= q <= instance.k
    if fname == "algorithms.restricted_solve":
        return instance.agents_within_candidates()
    return True


def audit_applies(instance, outcome, fname, args):
    """The documented preconditions of each auditor."""
    if fname == "audit_single.if_min_beta":
        return instance.agents_within_candidates()
    if fname == "audit_multi.q_core_min_alpha":
        q, size_cap = args
        return 1 <= q <= instance.k and size_cap >= q
    if fname == "audit_multi.q_tc_min_alpha":
        q, _gamma, size_cap = args
        return 1 <= q <= size_cap
    if fname == "audit_multi.q_if_min_beta":
        q = args[0]
        return (
            instance.agents_within_candidates()
            and instance.k <= instance.n
            and 1 <= q <= len(outcome.centers)
        )
    return True


EUCL_RULES = [
    ("gc", "algorithms.greedy_capture", ()),
    ("ea", "algorithms.expanding_approvals", ()),
    ("gc-restricted", "algorithms.restricted_solve", ("gc",)),
    ("ea-restricted", "algorithms.restricted_solve", ("ea",)),
]
EUCL_AUDITS = [
    ("audit_single.pf_min_alpha", ()),
    ("audit_single.tc_min_alpha", (2,)),
    ("audit_rank.rank_jr_check", ()),
    ("audit_rank.rank_pjr_check", ()),
    ("audit_rank.rank_pjr_plus_check", ()),
    ("audit_rank.uprf_check", ()),
]
GRAPH_RULES = [
    ("gc", "algorithms.greedy_capture", ()),
    ("ea", "algorithms.expanding_approvals", ()),
    ("fgc", "algorithms.fair_greedy_capture", (2, 0)),
]
GRAPH_AUDITS = [
    ("audit_single.pf_min_alpha", ()),
    ("audit_single.if_min_beta", ()),
    ("audit_single.tc_min_alpha", (1,)),
    ("audit_multi.q_core_min_alpha", (2, 3)),
    ("audit_multi.q_tc_min_alpha", (2, 1, 3)),
    ("audit_multi.q_if_min_beta", (2,)),
    ("audit_rank.rank_jr_check", ()),
    ("audit_rank.rank_pjr_check", ()),
]
MIXED_RULES = [
    ("gc", "algorithms.greedy_capture", ()),
    ("ea", "algorithms.expanding_approvals", ()),
    ("fgc", "algorithms.fair_greedy_capture", (1, 0)),
    ("ea-restricted", "algorithms.restricted_solve", ("ea",)),
]
MIXED_AUDITS = [
    ("audit_single.pf_min_alpha", ()),
    ("audit_single.if_min_beta", ()),
    ("audit_single.tc_min_alpha", (1,)),
    ("audit_multi.q_core_min_alpha", (2, 2)),
    ("audit_multi.q_tc_min_alpha", (2, 1, 2)),
    ("audit_multi.q_if_min_beta", (2,)),
    ("audit_rank.rank_jr_check", ()),
    ("audit_rank.rank_pjr_check", ()),
    ("audit_rank.rank_pjr_plus_check", ()),
    ("audit_rank.dprf_check", ()),
    ("audit_rank.uprf_check", ()),
]


def build(pc, name, seed, smoke, rec):
    """The jobs of workload ``name`` for ``seed``; ``rec`` times the input
    layers (``generate``, ``metric.build``, ``json`` and
    ``cli.parse_instance``)."""
    size = (SMOKE if smoke else FULL)[name]
    if name == "eucl-threshold":
        return _eucl_jobs(pc, seed, size, rec)
    if name == "graph-exact":
        return _graph_jobs(pc, seed, size, rec)
    if name == "mixed-corpus":
        return _mixed_jobs(pc, seed, size, rec)
    raise ValueError(f"unknown workload {name!r}")


def _sub_seed(seed, index):
    return seed * 1000 + index


def _points_instance(pc, file, agents, rec, idx):
    space = rec.setup(
        "metric.build", idx, pc.metric.MetricSpace.from_points, file["metric"]["coords"]
    )
    return rec.setup("metric.build", idx, pc.instance.Instance, space, agents, "all", K)


def _eucl_jobs(pc, seed, size, rec):
    """Float points in the unit square, ``extra`` candidate-only points each,
    plus one larger instance for a budget-bound diameter (uprf) audit."""
    n, total = size["n"], size["n"] + size["extra"]
    jobs = []
    for idx in range(size["count"]):
        file = rec.setup(
            "generate", idx, pc.generate.generate_family, "euclidean", total, K,
            _sub_seed(seed, idx),
        )
        inst = _points_instance(pc, file, tuple(range(n)), rec, idx)
        jobs.append(Job(inst, EUCL_RULES, EUCL_AUDITS, ("gc", "ea")))
    idx = size["count"]
    big = size["big_n"]
    file = rec.setup("generate", idx, pc.generate.generate_family, "euclidean", big, K, BIG_SEED)
    inst = _points_instance(pc, file, tuple(range(big)), rec, idx)
    jobs.append(
        Job(inst, EUCL_RULES[:1], [("audit_rank.uprf_check", ())], ("gc",))
    )
    return jobs


def _graph_jobs(pc, seed, size, rec):
    """Integer-weighted connected graphs with two extra zero-weight edges
    each, so co-located points and distance ties are always present."""
    n = size["n"]
    jobs = []
    for idx in range(size["count"]):
        sub = _sub_seed(seed, idx)
        file = rec.setup(
            "generate", idx, pc.generate.generate_family, "graph", n, K, sub
        )
        rng = random.Random(sub)
        edges = list(file["metric"]["edges"])
        while len(edges) < len(file["metric"]["edges"]) + 2:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append([u, v, 0])
        space = rec.setup("metric.build", idx, pc.metric.MetricSpace.from_graph, n, edges)
        inst = rec.setup(
            "metric.build", idx, pc.instance.Instance, space, tuple(range(n)), "all", K
        )
        jobs.append(Job(inst, GRAPH_RULES, GRAPH_AUDITS, ("gc", "ea", "fgc")))
    return jobs


def _mixed_jobs(pc, seed, size, rec):
    """Small instances of every family and agent/candidate relationship,
    each round-tripped through its JSON instance file."""
    rng = random.Random(seed)
    tags = tuple(tag for tag, _, _ in MIXED_RULES)
    jobs = []
    for idx in range(size["count"]):
        made = rec.setup(
            "generate", idx, pc.generate.random_instance, rng, MIXED_MAX_N, MIXED_MAX_N, K
        )
        file = rec.setup("json", idx, _json_round_trip, pc, made)
        inst = rec.setup("cli.parse_instance", idx, pc.cli.parse_instance, file)
        jobs.append(Job(inst, MIXED_RULES, MIXED_AUDITS, tags))
    return jobs


def _json_round_trip(pc, instance):
    return json.loads(json.dumps(pc.generate.instance_to_file(instance)))
