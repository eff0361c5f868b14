import hashlib
import json
import random
from functools import partial
from itertools import combinations, islice, permutations

import pytest

from propclust import (
    Caps,
    Instance,
    MetricSpace,
    Outcome,
    dprf_check,
    expanding_approvals,
    greedy_capture,
    rank_jr_check,
    rank_pjr_check,
    rank_pjr_plus_check,
    thresholds,
    uprf_check,
)
from propclust import audit_rank, fixtures
from propclust.fixtures import outcome_of
from propclust.cli import parse_instance
from propclust.generate import generate_family, random_instance
from propclust.reports import CAP_EXHAUSTED
from propclust import oracle as orc
from test_byte_identity import budget_outcomes


def test_thresholds_fig3b():
    inst, L = fixtures.fig3b(4)
    vals = thresholds(inst)
    assert vals == [0, 1, 2, 3, 4, 5, 6, 7]


def test_thresholds_single_point():
    space = MetricSpace.from_matrix([[0]])
    inst = Instance(space, (0,), "all", 1)
    assert thresholds(inst) == [0]


def test_thresholds_fig2a_contains_long_edge():
    inst, L = fixtures.fig2a(5)
    assert 10 in thresholds(inst)


def test_rank_jr_fig3a_pass():
    inst, L = fixtures.fig3a(4)
    assert rank_jr_check(inst, outcome_of(L, ("1", "2", "3", "6"))).passed


def test_rank_jr_path_violation():
    inst, L = fixtures.path_uprf()
    report = rank_jr_check(inst, outcome_of(L, ("c",)))
    assert not report.passed
    v = report.witness
    assert v.threshold_y == 1
    assert v.witness_candidates == (L["2"],)
    assert v.group == (L["1"], L["2"], L["3"])


def test_rank_jr_zero_distance_pass():
    space = MetricSpace.from_matrix([[0, 5], [5, 0]])
    inst = Instance(space, (0, 1), "all", 2)
    assert rank_jr_check(inst, Outcome(frozenset({0, 1}))).passed


def test_rank_pjr_fig3a_violation():
    inst, L = fixtures.fig3a(4)
    report = rank_pjr_check(inst, outcome_of(L, ("1", "2", "3", "6")))
    assert not report.passed
    v = report.witness
    assert v.threshold_y == 2
    assert v.ell == 2
    assert set(v.group) == {L[x] for x in ("5", "6", "8", "9", "10")}


def test_rank_pjr_fig3b_pass():
    inst, L = fixtures.fig3b(4)
    assert rank_pjr_check(inst, outcome_of(L, ("1", "2", "3", "9"))).passed


def test_rank_pjr_fig2b_violation():
    inst, L = fixtures.fig2b(5)
    report = rank_pjr_check(inst, outcome_of(L, ("1", "2", "3", "6", "9")))
    assert not report.passed
    assert report.witness.threshold_y == 4
    assert report.witness.ell == 3


def test_rank_pjr_plus_fig3b_violation():
    inst, L = fixtures.fig3b(4)
    report = rank_pjr_plus_check(inst, outcome_of(L, ("1", "2", "3", "9")))
    assert not report.passed
    v = report.witness
    assert v.threshold_y == 3
    assert v.witness_candidates == (L["6"],)
    assert set(v.group) == {L[str(i)] for i in range(5, 11)}
    assert v.ell == 2


def test_dprf_matches_recorded_verdicts():
    inst, L = fixtures.fig2b(5)
    assert not dprf_check(inst, outcome_of(L, ("1", "2", "3", "6", "9"))).passed
    inst3, L3 = fixtures.fig3b(4)
    assert dprf_check(inst3, outcome_of(L3, ("1", "2", "3", "9"))).passed


def test_uprf_fig2b_pass():
    inst, L = fixtures.fig2b(5)
    assert uprf_check(inst, outcome_of(L, ("1", "2", "3", "6", "9"))).passed


def test_uprf_path_pass_but_not_rank_jr():
    inst, L = fixtures.path_uprf()
    W = outcome_of(L, ("c",))
    assert uprf_check(inst, W).passed
    assert not rank_jr_check(inst, W).passed


def test_uprf_exact_near_tie_violation():
    # d(a0, w) = 1 + 10^-12 on an exact matrix: at y = 1, the pair's
    # diameter, neither agent is within 1 of w
    inst, L = fixtures.near_tie_uprf()
    W = outcome_of(L, ("w",))
    report = uprf_check(inst, W)
    assert report.value == "violation" and report.status == "exact"
    v = report.witness
    assert (v.threshold_y, v.group, v.ell) == (1, (0, 1), 1)
    assert orc.oracle_rank("uprf", inst, W).value == "violation"
    assert orc.oracle_rank("uprf", inst, W).witness == (1, 1, (0, 1))


def test_uprf_nonexistence_when_k_exceeds_colocated_candidates():
    # one agent, two centers wanted, only one candidate on the agent's point
    space = MetricSpace.from_matrix([[0, 3], [3, 0]])
    inst = Instance(space, (0,), "all", 2)
    for centers in ({0}, {1}, {0, 1}):
        assert not uprf_check(inst, Outcome(frozenset(centers))).passed


def test_implication_chain_random(small_corpus):
    for inst in small_corpus[:60]:
        W, _ = expanding_approvals(inst)
        plus = rank_pjr_plus_check(inst, W)
        pjr = rank_pjr_check(inst, W)
        jr = rank_jr_check(inst, W)
        if plus.passed:
            assert pjr.passed
        if pjr.passed:
            assert jr.passed


def test_rank_oracle_equivalence(small_corpus):
    rng = random.Random(17)
    for inst in small_corpus[:30]:
        cands = list(range(inst.num_candidates))
        size = rng.randint(1, min(inst.k, len(cands)))
        W = Outcome(frozenset(rng.sample(cands, size)))
        for notion, check in [
            ("rank-jr", rank_jr_check),
            ("rank-pjr", rank_pjr_check),
            ("rank-pjr+", rank_pjr_plus_check),
            ("dprf", dprf_check),
            ("uprf", uprf_check),
        ]:
            fast = check(inst, W).value
            slow = orc.oracle_rank(notion, inst, W).value
            assert fast == slow, (notion, inst, W)


def test_threshold_completeness_refined_grid():
    # auditing on a 10x refined y-grid finds nothing the threshold list missed
    rng = random.Random(3)
    for _ in range(10):
        inst = random_instance(rng, 6, 5, 3)
        W, _ = expanding_approvals(inst)
        base = rank_jr_check(inst, W).value
        vals = thresholds(inst)
        fine = []
        for a, b in zip(vals, vals[1:]):
            step = (b - a) / 10
            fine.extend(a + i * step for i in range(10))
        fine.append(vals[-1])
        n, k = inst.n, inst.k
        from propclust.instance import quota

        m = quota(n, k, 1, 1)
        centers = W.sorted_centers()
        grid_violation = False
        for y in fine:
            for j in range(inst.num_candidates):
                group = [
                    i
                    for i in range(n)
                    if inst.d_ac(i, j) <= y
                    and min(inst.d_ac(i, c) for c in centers) > y
                ]
                if len(group) >= m:
                    grid_violation = True
        assert grid_violation == (base == "violation")


def test_cap_exhaustion_reports_status():
    inst, L = fixtures.fig2b(5)
    W = outcome_of(L, ("1", "2", "3", "6", "9"))
    tiny = Caps(node_budget=1)
    report = uprf_check(inst, W, tiny)
    assert report.status == CAP_EXHAUSTED
    assert report.value == "pass"  # pass-within-budget, flagged


def test_violation_found_before_cap_is_exact():
    inst, L = fixtures.fig2b(5)
    W = outcome_of(L, ("1", "2", "3", "6", "9"))
    report = dprf_check(inst, W, Caps(node_budget=10**9))
    assert not report.passed
    assert report.status == "exact"


def test_rank_pjr_plus_is_never_budgeted():
    # the violation lies 1,736 candidate checks into the scan, replays
    # counted; rank-pjr+ is never charged, so no budget can hide it
    inst = parse_instance(generate_family("euclidean", 12, 5, 10))
    report = rank_pjr_plus_check(inst, Outcome(frozenset({0, 1, 10})))
    assert (report.value, report.status) == ("violation", "exact")
    v = report.witness
    assert (v.threshold_y, v.ell, v.witness_candidates) == (0.5228690022585855, 4, (9,))
    assert v.group == (0, 1, 2, 3, 4, 6, 7, 8, 9, 10)
    assert v.covered_winners == (0, 1, 10)


def test_rank_pjr_plus_exact_on_euclidean_160():
    # more than a million candidate checks, replays counted, precede this
    # violation: past the default node budget
    inst = parse_instance(generate_family("euclidean", 160, 5, 1))
    W, _ = greedy_capture(inst)
    report = rank_pjr_plus_check(inst, W)
    assert (report.value, report.status) == ("violation", "exact")
    v = report.witness
    assert (v.threshold_y, v.ell, v.witness_candidates) == (0.5190531844854269, 4, (2,))
    assert v.covered_winners == (15, 80, 109)


def test_rank_jr_is_never_budgeted():
    # ~1,100 thresholds below the center's 0.5 each leave both agents
    # uncovered, so a search charging one node per candidate per threshold
    # would spend more than the default million nodes
    extra = [(t / 2750, 0.0) for t in range(1, 1101)]
    space = MetricSpace.from_points([(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)] + extra)
    inst = Instance(space, (0, 1), tuple(range(2, 1103)), 1)
    report = rank_jr_check(inst, Outcome([0]))
    assert (report.value, report.status) == ("pass", "exact")


def test_uprf_clique_search_is_not_recursive():
    # 1,100 co-located agents and k = 1: the clique of everyone is 1,100
    # agents deep, past Python's recursion limit
    space = MetricSpace.from_points([[0.0, 0.0]] * 1100)
    inst = Instance(space, tuple(range(1100)), "all", 1)
    report = uprf_check(inst, Outcome(frozenset()))
    assert (report.value, report.status) == ("violation", "exact")
    assert report.witness.group == tuple(range(1100))


def test_uprf_budget_runs_out_where_it_did():
    # the last budget that runs out and the first that finds the
    # violation, on float data and on tied graph thresholds
    for family, short, y, winners in (
        ("euclidean", 8_261_433, 0.7852615076052013, (16, 78)),
        ("graph", 2_161_441, 25, (3, 5)),
    ):
        inst = parse_instance(generate_family(family, 80, 5, 1))
        W, _ = greedy_capture(inst)
        report = uprf_check(inst, W, Caps(short))
        assert (report.value, report.status) == ("pass", CAP_EXHAUSTED)
        report = uprf_check(inst, W, Caps(short + 1))
        assert (report.value, report.status) == ("violation", "exact")
        assert (report.witness.threshold_y, report.witness.covered_winners) == (y, winners)


def test_uprf_budget_edge_with_a_center_off_the_agents():
    # the one center stands at no agent's point, so agents enter its ball
    # between two proximity thresholds; the cover sets must be refreshed
    # from the approval walk there, or a stale umask replays an old node
    # count and the budget runs out elsewhere
    pts = [(6, 2), (5, 0), (2, 5), (0, 1), (6, 4), (6, 5), (5, 5)]
    inst = Instance(MetricSpace.from_points(pts, "l1"), range(6), "all", 2)
    W = Outcome([6])
    report = uprf_check(inst, W, Caps(27))
    assert (report.value, report.status) == ("pass", CAP_EXHAUSTED)
    report = uprf_check(inst, W, Caps(28))
    assert (report.value, report.status) == ("violation", "exact")
    assert report.witness.group == tuple(range(6)) and report.witness.ell == 2
    assert (report.witness.threshold_y, report.witness.covered_winners) == (10, (6,))


def _plain_clique_at_least(adj, ell, m, umask, left, *_):
    """The uprf search without subtree replay, kept as it was."""
    charged = 0

    def rec(chosen, size, avail, count):
        nonlocal charged
        charged += 1
        if charged > left:
            return None
        if size >= m:
            return chosen
        while avail:
            if size + count < m:
                return None
            low = avail & -avail
            avail ^= low
            count -= 1
            nbrs = avail & adj[low.bit_length() - 1]
            grow = nbrs.bit_count()
            if size + 1 + grow >= m:
                found = rec(chosen | low, size + 1, nbrs, grow)
                if found is not None or charged > left:
                    return found
        return None

    group = rec(0, 0, umask, umask.bit_count())
    return (None if group is None else (group, ())), charged


def test_uprf_matches_the_plain_clique_search():
    # same reports as the plain search at no budget, one node, half the
    # nodes the plain scan charges, one node short of them, and all
    calls = []

    def plain(adj, ell, m, umask, left, *_):
        hit, charged = _plain_clique_at_least(adj, ell, m, umask, left)
        calls.append(left - charged)
        return hit, charged

    def plain_uprf(inst, W, budget):
        return audit_rank._threshold_scan(
            inst, W, Caps(budget), "uprf", plain, inst.k, adjacency=inst.proximity_sweep
        )

    for family, cases in (
        ("euclidean", ((12, 1), (36, 1), (52, 3))),
        ("graph", ((12, 1), (44, 2), (52, 3))),
        # two co-located blocks: every edge enters at y = 0 or y = 1
        ("blocks", ((12, 0), (20, 0))),
    ):
        for n, seed in cases:
            inst = parse_instance(generate_family(family, n, 5, seed))
            rng = random.Random(seed)
            drawn = Outcome(frozenset(rng.sample(range(inst.num_candidates), 2)))
            for W in (greedy_capture(inst)[0], drawn):
                calls.clear()
                # the last search finds the violation, so what it leaves is
                # what the scan leaves: replayed searches between the
                # searches come off the ``left`` each search is handed
                assert plain_uprf(inst, W, 10**6).value == "violation"
                used = 10**6 - calls[-1]
                for budget in sorted({0, 1, used // 2, max(used - 1, 0), used}):
                    expected = plain_uprf(inst, W, budget).to_json_str()
                    assert uprf_check(inst, W, Caps(budget)).to_json_str() == expected


def test_uprf_reruns_a_search_only_where_an_edge_entered_its_umask():
    # the clique search reads only edges inside the umask, and a new edge
    # enters with both its ends: so a cover set's failed search runs again
    # only where its umask lost agents or two of its agents entered, on
    # float data (one edge per threshold) and on tied graph thresholds
    for family, n, seed in (("euclidean", 36, 1), ("graph", 44, 2)):
        inst = parse_instance(generate_family(family, n, 5, seed))
        W, _ = greedy_capture(inst)
        log = []

        def logged(adj, ell, m, umask, left, memo, entered, grew):
            log.append((memo, umask, entered))
            return audit_rank._clique_at_least(adj, ell, m, umask, left, memo, entered, grew)

        report = audit_rank._threshold_scan(
            inst, W, Caps(), "uprf", logged, inst.k, adjacency=inst.proximity_sweep
        )
        assert report.to_json_str() == uprf_check(inst, W).to_json_str()
        last = {}  # a cover set's memo is its own for the whole scan
        reruns = 0
        for memo, umask, entered in log:
            before = last.get(id(memo))
            if before is not None and before == umask:
                assert (entered & umask).bit_count() >= 2
                reruns += 1
            last[id(memo)] = umask
        assert reruns > 0


@pytest.mark.parametrize("budget", [-1, -10**6, 1.5, 2.0, True, False, "10", None])
def test_caps_rejects_a_budget_that_is_not_an_int_of_at_least_0(budget):
    with pytest.raises(ValueError, match="node_budget"):
        Caps(budget)


def test_caps_accepts_int_budgets():
    assert Caps().node_budget == 1_000_000
    assert Caps(0).node_budget == 0
    assert Caps(node_budget=7).node_budget == 7


def test_rank_jr_builds_only_its_ell_one_cover_set():
    # rank-jr reads only the ell = 1 row of the cover sets, so a committee
    # of k = |W| = 40 must not build the 2^40 cover sets of the higher rows
    for k in (16, 40):
        space = MetricSpace.from_points([(float(x),) for x in range(2 * k)])
        inst = Instance(space, range(0, 2 * k, 2), "all", k)
        W = Outcome(range(0, 2 * k, 2))
        assert rank_jr_check(inst, W).passed
        assert list(inst._cover_sets) == [(k, 1)]


def test_cover_sets_of_oversized_outcomes_are_not_kept():
    # an outcome of more than k centers is audited, but its cover-set
    # templates are built per call and not kept on the instance
    space = MetricSpace.from_points([(float(x),) for x in range(8)])
    inst = Instance(space, range(8), "all", 3)
    W = Outcome(range(0, 8, 2))
    for check in (rank_jr_check, rank_pjr_check, rank_pjr_plus_check, dprf_check, uprf_check):
        fresh = Instance(space, range(8), "all", 3)
        assert check(inst, W).to_json() == check(fresh, W).to_json()
        assert check(inst, W).to_json() == check(fresh, W).to_json()
    assert inst._cover_sets == {}


def _plain_unopened(unopened, cols, ell, m, umask, *_):
    """The rank-jr and rank-pjr+ search reading every unopened column,
    kept as it was."""
    for j in unopened:
        if (cols[j] & umask).bit_count() >= m:
            return (cols[j] & umask, (j,)), 0
    return None, 0


def _plain_ell_sets(cols, ell, m, umask, left, *_):
    """The rank-pjr and dprf search rebuilding its frequent columns from
    every column, kept as it was."""
    frequent = [j for j, col in enumerate(cols) if (col & umask).bit_count() >= m]
    charged = 0
    for charged, tsub in enumerate(islice(combinations(frequent, ell), left + 1), 1):
        inter = umask
        for j in tsub:
            inter &= cols[j]
            if inter.bit_count() < m:
                break
        if inter.bit_count() >= m:
            return (inter, tsub), charged
    return None, charged


def _tied_rank_instance(rng):
    """8 to 18 points: euclidean on a 3 x 3 grid, so that many coincide, or
    in the unit square, or a graph whose edges weigh 0 to 2, so that
    zero-weight edges co-locate their ends.  Some agents are repeated, and
    half the time a few points are candidates only."""
    npts = rng.randint(8, 18)
    family = rng.choice(("grid", "square", "graph"))
    if family == "grid":
        space = MetricSpace.from_points([[rng.randrange(3), rng.randrange(3)] for _ in range(npts)])
    elif family == "square":
        space = MetricSpace.from_points([[rng.random(), rng.random()] for _ in range(npts)])
    else:
        edges = [(rng.randrange(v), v, rng.randint(0, 2)) for v in range(1, npts)]
        edges += [(rng.randrange(v), v, rng.randint(0, 2)) for v in rng.sample(range(1, npts), 4)]
        space = MetricSpace.from_graph(npts, edges)
    spare = rng.choice((0, 3))
    agents = list(range(npts - spare))
    agents += [rng.randrange(npts - spare) for _ in range(rng.randint(0, 4))]
    rng.shuffle(agents)
    return Instance(space, agents, "all", rng.randint(2, 5))


def _logged(search, log):
    def run(cols, ell, m, umask, left, *rest):
        hit, charged = search(cols, ell, m, umask, left, *rest)
        log.append((ell, m, umask, left, hit, charged))
        return hit, charged

    return run


def test_incremental_rank_searches_match_the_plain_ones():
    # the searches that read only the grown columns, and keep rank-pjr's
    # frequent columns across thresholds, against the ones that read every
    # column at every search: same reports, and the same hit and nodes
    # charged at every search, at small budgets and the default one
    rng = random.Random(27)
    for _ in range(60):
        inst = _tied_rank_instance(rng)
        outcomes = []
        for rule in (greedy_capture, expanding_approvals):
            try:
                outcomes.append(rule(inst)[0])
            except ValueError:
                pass
        size = rng.randint(0, min(inst.k, inst.num_candidates))
        outcomes.append(Outcome(rng.sample(range(inst.num_candidates), size)))
        for W in outcomes:
            unopened = [j for j in range(inst.num_candidates) if j not in W.centers]
            fast_unopened = partial(audit_rank._unopened, W.centers)
            plain_unopened = partial(_plain_unopened, unopened)
            runs = [
                ("rank-jr", fast_unopened, plain_unopened, 1, [None]),
                ("rank-pjr+", fast_unopened, plain_unopened, inst.k, [None]),
                ("rank-pjr", audit_rank._ell_sets, _plain_ell_sets, inst.k, [0, 1, 7, 40, None]),
            ]
            for notion, fast, plain, max_ell, budgets in runs:
                for budget in budgets:
                    caps = Caps() if budget is None else Caps(budget)
                    logs = ([], [])
                    reports = [
                        audit_rank._threshold_scan(
                            inst, W, caps, notion, _logged(search, log), max_ell
                        ).to_json_str()
                        for search, log in zip((fast, plain), logs)
                    ]
                    assert reports[0] == reports[1]
                    assert logs[0] == logs[1]
                    if notion == "rank-jr":
                        assert rank_jr_check(inst, W).to_json_str() == reports[0]
                    elif notion == "rank-pjr+":
                        assert rank_pjr_plus_check(inst, W).to_json_str() == reports[0]
                    else:
                        assert rank_pjr_check(inst, W, caps).to_json_str() == reports[0]


# Recorded with every rank-jr, rank-pjr+, rank-pjr and dprf search reading
# all |C| columns, before they read only the columns that grew.
RECORDED_EUCLIDEAN_320_DIGEST = "9293b7d52234ac2c98ca212fbf9517625b75bdae56bdafe8d4d5d2eddff58b8f"


def test_rank_audits_at_320_agents_byte_identical():
    inst = parse_instance(generate_family("euclidean", 320, 5, 1))
    records = []
    for tag, rule in (("gc", greedy_capture), ("ea", expanding_approvals)):
        W, _ = rule(inst)
        for check in (rank_jr_check, rank_pjr_plus_check, rank_pjr_check, dprf_check):
            records.append([tag, check(inst, W).to_json()])
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_EUCLIDEAN_320_DIGEST


LADDER_CHECKS = (rank_jr_check, rank_pjr_check, rank_pjr_plus_check, dprf_check)


def _ladder_call(check, inst, W, caps):
    if check in (rank_jr_check, rank_pjr_plus_check):
        return check(inst, W)
    return check(inst, W, caps)


def test_rank_reports_do_not_depend_on_call_order(small_corpus):
    # one instance answers the four notions from its outcome slot in any
    # order: each report equals the notion's lone call on a fresh instance,
    # in all 24 orders at one budget and forward and reversed at the rest,
    # and a report asked for twice is a fresh object each time
    for idx, src in enumerate(small_corpus):
        data = (src.space, src.agents, src.candidates, src.k)
        for W in budget_outcomes(src, idx):
            for budget in (0, 1, 7, 40, None):
                caps = Caps() if budget is None else Caps(budget)
                lone = [
                    _ladder_call(check, Instance(*data), W, caps).to_json_str()
                    for check in LADDER_CHECKS
                ]
                orders = list(permutations(range(4)))
                if budget != 7:
                    orders = [orders[0], orders[-1]]
                for order in orders:
                    inst = Instance(*data)
                    for i in order:
                        report = _ladder_call(LADDER_CHECKS[i], inst, W, caps)
                        assert report.to_json_str() == lone[i], (idx, W, budget, order, i)
                for check in LADDER_CHECKS:
                    first, again = (_ladder_call(check, inst, W, caps) for _ in range(2))
                    assert first == again and first is not again
                    assert first.params is not again.params
