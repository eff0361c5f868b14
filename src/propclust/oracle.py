"""Brute-force reference auditors for small instances.

Every function here is a direct enumeration of the corresponding fairness
definition: all agent subsets, all candidate subsets, all entitlement
levels, all realized thresholds.  Nothing is shared with the fast auditors
except the metric space, so agreement between the two is meaningful
evidence of correctness rather than a tautology.  In particular the oracle
imports no ``quota``: it compares each group's size with the rational
``Fraction(ell * n, k)`` (times gamma) itself, so the oracle-equivalence
tests check the fast auditors' integer quotas too.

Deliberately slow; guarded to at most 10 agents and 10 candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

GUARD_N = 10
GUARD_C = 10


@dataclass(frozen=True)
class OracleResult:
    value: object
    witness: object = None
    checked: int = 0


def _guard(instance):
    if instance.n > GUARD_N or instance.num_candidates > GUARD_C:
        raise ValueError("oracle size guard exceeded")


def _oratio(num, den):
    if den == 0:
        return 1 if num == 0 else math.inf
    if num == 0:
        return 0
    if isinstance(num, float) or isinstance(den, float) or math.isinf(num):
        return num / den
    return Fraction(num) / Fraction(den)


def _d_near(instance, i, points):
    return min((instance.space.dist(instance.agents[i], p) for p in points), default=math.inf)


def _d_qth(instance, i, points, q):
    if len(points) < q:
        return math.inf
    dists = sorted(instance.space.dist(instance.agents[i], p) for p in points)
    return dists[q - 1]


def _center_points(instance, outcome):
    return [instance.candidates[c] for c in outcome.sorted_centers()]


def _agent_subsets(n, min_size):
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) >= min_size:
            yield members


def oracle_pf(instance, outcome):
    _guard(instance)
    n, k = instance.n, instance.k
    need = Fraction(n, k)
    wpts = _center_points(instance, outcome)
    dw = [_d_near(instance, i, wpts) for i in range(n)]
    best, witness, checked = 1, None, 0
    for j in range(instance.num_candidates):
        if j in outcome.centers:
            continue
        ratios = [_oratio(dw[i], instance.d_ac(i, j)) for i in range(n)]
        for members in _agent_subsets(n, 1):
            if len(members) < need:
                continue
            checked += 1
            worst = min(ratios[i] for i in members)
            if worst > best:
                best, witness = worst, (tuple(members), j)
    return OracleResult(best, witness, checked)


def oracle_if(instance, outcome):
    _guard(instance)
    if not instance.agents_within_candidates():
        raise ValueError("IF undefined: agents are not a subset of candidates")
    n, k = instance.n, instance.k
    need = Fraction(n, k)
    wpts = _center_points(instance, outcome)
    best, witness = 1, None
    for i in range(n):
        dists = sorted(
            instance.space.dist(instance.agents[i], a) for a in instance.agents
        )
        r = next(d for cnt, d in enumerate(dists, start=1) if cnt >= need)
        val = _oratio(_d_near(instance, i, wpts), r)
        if val > best:
            best, witness = val, (i,)
    return OracleResult(best, witness)


def oracle_tc(instance, outcome, gamma=1):
    _guard(instance)
    n, k = instance.n, instance.k
    need = Fraction(gamma) * Fraction(n, k)
    wpts = _center_points(instance, outcome)
    dw = [_d_near(instance, i, wpts) for i in range(n)]
    best, witness, checked = 1, None, 0
    for j in range(instance.num_candidates):
        if j in outcome.centers:
            continue
        dc = [instance.d_ac(i, j) for i in range(n)]
        for members in _agent_subsets(n, 1):
            if len(members) < need:
                continue
            checked += 1
            sw = sum(dw[i] for i in members)
            sv = sum(dc[i] for i in members)
            if sv == 0:
                if sw > 0:
                    return OracleResult(math.inf, (tuple(members), j), checked)
                continue
            val = _oratio(sw, sv)
            if val > best:
                best, witness = val, (tuple(members), j)
    return OracleResult(best, witness, checked)


def oracle_qcore(instance, outcome, q):
    _guard(instance)
    n, k = instance.n, instance.k
    cpts = list(instance.candidates)
    wpts = _center_points(instance, outcome)
    dqw = [_d_qth(instance, i, wpts, q) for i in range(n)]
    best, witness, checked = 1, None, 0
    for ell in range(1, k + 1):
        need = Fraction(ell * n, k)
        if need > n:
            break
        for size in range(q, min(ell, len(cpts)) + 1):
            for csub in combinations(range(len(cpts)), size):
                ratios = [
                    _oratio(dqw[i], _d_qth(instance, i, [cpts[j] for j in csub], q))
                    for i in range(n)
                ]
                for members in _agent_subsets(n, 1):
                    if len(members) < need:
                        continue
                    checked += 1
                    worst = min(ratios[i] for i in members)
                    if worst > best:
                        best, witness = worst, (tuple(members), csub, ell)
    return OracleResult(best, witness, checked)


def oracle_qif(instance, outcome, q):
    _guard(instance)
    if not instance.agents_within_candidates():
        raise ValueError("q-IF undefined: agents are not a subset of candidates")
    if instance.k > instance.n:
        raise ValueError("q-IF undefined: k exceeds n")
    n, k = instance.n, instance.k
    need = Fraction(q * n, k)
    wpts = _center_points(instance, outcome)
    best, witness = 1, None
    for i in range(n):
        dists = sorted(
            instance.space.dist(instance.agents[i], a) for a in instance.agents
        )
        r = next(d for cnt, d in enumerate(dists, start=1) if cnt >= need)
        val = _oratio(_d_qth(instance, i, wpts, q), r)
        if val > best:
            best, witness = val, (i,)
    return OracleResult(best, witness)


def oracle_qtc(instance, outcome, q, gamma=1):
    _guard(instance)
    n, k = instance.n, instance.k
    cpts = list(instance.candidates)
    wpts = _center_points(instance, outcome)
    dqw = [_d_qth(instance, i, wpts, q) for i in range(n)]
    best, witness, checked = 1, None, 0
    for ell in range(1, k + 1):
        need = Fraction(gamma) * Fraction(ell * n, k)
        if need > n:
            break
        for size in range(q, min(ell, len(cpts)) + 1):
            for csub in combinations(range(len(cpts)), size):
                dqc = [
                    _d_qth(instance, i, [cpts[j] for j in csub], q) for i in range(n)
                ]
                for members in _agent_subsets(n, 1):
                    if len(members) < need:
                        continue
                    checked += 1
                    sw = sum(dqw[i] for i in members)
                    sv = sum(dqc[i] for i in members)
                    if sv == 0:
                        if sw > 0:
                            return OracleResult(
                                math.inf, (tuple(members), csub, ell), checked
                            )
                        continue
                    val = _oratio(sw, sv)
                    if val > best:
                        best, witness = val, (tuple(members), csub, ell)
    return OracleResult(best, witness, checked)


def _within(d, y):
    """Distance ``d`` is within radius ``y``, on exact and float data alike."""
    return d <= y


def _approvals_at(instance, y):
    masks = []
    for i in range(instance.n):
        mask = 0
        for j in range(instance.num_candidates):
            if _within(instance.d_ac(i, j), y):
                mask |= 1 << j
        masks.append(mask)
    return masks


def oracle_rank(axiom, instance, outcome):
    """Literal subset enumeration for a threshold axiom; axiom is one of
    rank-jr, rank-pjr, rank-pjr+, dprf, uprf."""
    _guard(instance)
    if axiom == "uprf":
        return _oracle_uprf(instance, outcome)
    n, k = instance.n, instance.k
    wmask = 0
    for c in outcome.centers:
        wmask |= 1 << c
    yvals = sorted(
        {
            instance.d_ac(i, j)
            for i in range(n)
            for j in range(instance.num_candidates)
        }
    )
    checked = 0
    for y in yvals:
        approvals = _approvals_at(instance, y)
        for members in _agent_subsets(n, 1):
            checked += 1
            size = len(members)
            inter = approvals[members[0]]
            union_w = 0
            for i in members:
                inter &= approvals[i]
                union_w |= approvals[i] & wmask
            if axiom == "rank-jr":
                if size >= Fraction(n, k) and inter and union_w == 0:
                    return OracleResult("violation", (y, 1, tuple(members)), checked)
            elif axiom in ("rank-pjr", "dprf"):
                for ell in range(1, k + 1):
                    if (
                        size >= Fraction(ell * n, k)
                        and inter.bit_count() >= ell
                        and union_w.bit_count() < ell
                    ):
                        return OracleResult(
                            "violation", (y, ell, tuple(members)), checked
                        )
            elif axiom == "rank-pjr+":
                for ell in range(1, k + 1):
                    if (
                        size >= Fraction(ell * n, k)
                        and inter
                        and inter & ~wmask
                        and union_w.bit_count() < ell
                    ):
                        return OracleResult(
                            "violation", (y, ell, tuple(members)), checked
                        )
            else:
                raise ValueError(f"unknown axiom {axiom!r}")
    return OracleResult("pass", None, checked)


def _oracle_uprf(instance, outcome):
    n, k = instance.n, instance.k
    wpts = _center_points(instance, outcome)
    checked = 0
    for members in _agent_subsets(n, 1):
        checked += 1
        size = len(members)
        diam = 0
        for a, b in combinations(members, 2):
            d = instance.d_aa(a, b)
            if d > diam:
                diam = d
        covered = sum(
            1
            for c in wpts
            if any(
                _within(instance.space.dist(instance.agents[i], c), diam) for i in members
            )
        )
        for ell in range(1, k + 1):
            if size >= Fraction(ell * n, k) and covered < ell:
                return OracleResult("violation", (diam, ell, tuple(members)), checked)
    return OracleResult("pass", None, checked)
