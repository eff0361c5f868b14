"""Output checks, run outside the timed region.

Each check returns a list of problems (empty when the output is sound):

* rule outcomes are valid, hold at most k centers, and for expanding
  approvals the deducted budget in the trace sums exactly to |W|;
* every numeric witness reproduces its report's value under the package's
  public re-evaluators;
* every threshold-axiom violation is re-derived from raw distances.
"""

from __future__ import annotations

import math

EA_TAGS = ("ea", "ea-restricted")
REEVALUATORS = {
    "pf": "group_min_ratio",
    "tc": "group_sum_ratio",
    "qcore": "q_group_min_ratio",
    "qtc": "q_group_sum_ratio",
}


def check_outcome(pc, instance, tag, outcome, trace):
    problems = [v["detail"] for v in pc.instance.validate(instance, outcome)]
    if len(outcome.centers) > instance.k:
        problems.append(f"{tag}: {len(outcome.centers)} centers exceed k")
    if tag in EA_TAGS:
        deducted = sum(e.amount for e in trace.events if e.kind == "deduct")
        if deducted != len(outcome.centers):
            problems.append(f"{tag}: deducted {deducted} != |W| = {len(outcome.centers)}")
    return problems


def check_report(pc, instance, outcome, report):
    witness = report.witness
    if isinstance(witness, pc.reports.RankViolation):
        return _check_violation(pc, instance, outcome, witness)
    if report.value in ("pass", "violation"):
        if report.value == "violation" or witness is not None:
            return [f"{report.notion}: violation without a RankViolation"]
        return []
    if witness is None:
        if report.value != 1:
            return [f"{report.notion}: value {report.value} without a witness"]
        return []
    if report.notion in REEVALUATORS:
        again = _reevaluate(pc, instance, outcome, report)
    else:
        again = _agent_ratio(pc, instance, outcome, report)
    if again != report.value:
        return [f"{report.notion}: witness re-evaluates to {again}, report says {report.value}"]
    return []


def _reevaluate(pc, instance, outcome, report):
    w = report.witness
    q = report.params.get("q")
    if q is None:
        fn = getattr(pc.audit_single, REEVALUATORS[report.notion])
        return fn(instance, outcome, w.agents, w.candidates[0])
    fn = getattr(pc.audit_multi, REEVALUATORS[report.notion])
    return fn(instance, outcome, q, w.agents, w.candidates)


def _agent_ratio(pc, instance, outcome, report):
    """if / qif: the witness agent's q-th center distance over the radius of
    its nearest q-scaled quota of agents."""
    q = report.params.get("q", 1)
    (i,) = report.witness.agents
    centers = sorted(outcome.centers)
    dists = sorted(instance.d_ac(i, c) for c in centers)
    d_w = dists[q - 1] if len(dists) >= q else math.inf
    count = pc.instance.quota(instance.n, instance.k, q, 1)
    around = sorted(instance.d_aa(i, j) for j in range(instance.n))
    return pc.audit_single.ratio(d_w, around[count - 1])


def _check_violation(pc, instance, outcome, v):
    """Re-derive a threshold-axiom violation from raw distances."""
    slack = v.threshold_y + pc.metric.TAU
    n, k = instance.n, instance.k
    group = v.group
    problems = []
    if list(group) != sorted(set(group)) or not all(0 <= i < n for i in group):
        return [f"{v.axiom}: malformed group {group}"]
    if len(group) < pc.instance.quota(n, k, v.ell, 1):
        problems.append(f"{v.axiom}: group of {len(group)} is below the quota for ell={v.ell}")
    if v.axiom == "uprf":
        if any(instance.d_aa(a, b) > slack for a in group for b in group):
            problems.append("uprf: group diameter exceeds the threshold")
    else:
        want = v.ell if v.axiom in ("rank-pjr", "dprf") else 1
        cands = v.witness_candidates
        if len(set(cands)) != want or not all(0 <= c < instance.num_candidates for c in cands):
            problems.append(f"{v.axiom}: expected {want} witness candidates, got {cands}")
        elif any(instance.d_ac(i, c) > slack for i in group for c in cands):
            problems.append(f"{v.axiom}: a group member does not approve a witness candidate")
        if v.axiom == "rank-pjr+" and set(cands) & outcome.centers:
            problems.append("rank-pjr+: witness candidate is a center")
    covered = tuple(
        c for c in sorted(outcome.centers) if any(instance.d_ac(i, c) <= slack for i in group)
    )
    if covered != tuple(v.covered_winners):
        problems.append(f"{v.axiom}: covered winners {v.covered_winners} != {covered}")
    if len(covered) >= v.ell:
        problems.append(f"{v.axiom}: group approves {len(covered)} centers at ell={v.ell}")
    return problems
