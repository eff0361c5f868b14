import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from propclust import Instance, MetricSpace, Outcome, q_tc_min_alpha, quota, tc_min_alpha, validate
from propclust import algorithms, audit_rank, fixtures
from propclust.cli import NUMERIC_NOTIONS, RANK_NOTIONS, parse_instance, run_audit
from propclust.fixtures import outcome_of
from propclust.generate import generate_family
from propclust.instance import _entering_pairs, _growing_masks, _sweep


def test_quota_examples():
    assert quota(10, 5, 1, 1) == 2
    assert quota(10, 4, 1, 1) == 3
    assert quota(7, 3, 0, 2) == 0


def test_quota_exact_halves():
    # the classic ceil(2.5) case must not round through floats
    assert quota(5, 2, 1, 1) == 3
    assert quota(10, 4, 1, Fraction(3, 2)) == 4
    assert quota(10, 4, 2, 1.5) == 8


def test_quota_errors():
    for args, message in (
        ((10, 0, 1, 1), "k must be positive"),
        ((10, -1, 1, 1), "k must be positive"),
        ((-1, 2, 1, 1), "n and ell must be non-negative"),
        ((10, 2, -1, 1), "n and ell must be non-negative"),
    ):
        with pytest.raises(ValueError, match=message):
            quota(*args)
    # the integer test p < q rejects exactly what Fraction(gamma) < 1 did
    for gamma in (Fraction(1, 2), Fraction(99, 100), 0.9999999999999999, 0, -2, -1.5):
        assert Fraction(gamma) < 1
        with pytest.raises(ValueError, match="gamma must be at least 1"):
            quota(10, 2, 1, gamma)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, "3/2", "2", True, False, None, 1j])
def test_non_rational_gamma_rejected(gamma):
    # never OverflowError or a coerced value: a ValueError that names gamma
    inst = parse_instance(generate_family("graph", 6, 2, 1))
    out = Outcome({0, 1})
    for call in (
        lambda: quota(6, 2, 1, gamma),
        lambda: tc_min_alpha(inst, out, gamma),
        lambda: q_tc_min_alpha(inst, out, 1, gamma),
    ):
        with pytest.raises(ValueError, match="gamma must be an int, a Fraction or a finite float"):
            call()


@given(
    st.integers(0, 200),
    st.integers(1, 20),
    st.integers(0, 6),
    st.one_of(
        st.fractions(min_value=1, max_value=8),
        st.floats(min_value=1, max_value=8),
        st.integers(1, 8),
    ),
)
@example(10, 1, 1, 1.1)
@example(10, 4, 1, 1.0)
@example(4, 4, 1, 1.0000000000000002)
@example(10, 11, 1, 1.1)
@example(100, 1, 1, 1.1)
@example(200, 3, 6, 7.3)
@settings(max_examples=300, deadline=None)
def test_quota_matches_rational_oracle(n, k, ell, gamma):
    assert quota(n, k, ell, gamma) == math.ceil(Fraction(gamma) * ell * n / k)


def test_quota_rational_oracle_bulk():
    rng = random.Random(99)
    for _ in range(10_000):
        n, k, ell = rng.randint(0, 400), rng.randint(1, 40), rng.randint(0, 8)
        assert quota(n, k, ell, 1) == math.ceil(Fraction(ell * n, k))


@given(
    st.integers(1, 50),
    st.integers(1, 10),
    st.integers(1, 4),
    st.fractions(min_value=1, max_value=4),
)
@settings(max_examples=120, deadline=None)
def test_quota_monotonicity(n, k, ell, gamma):
    assert quota(n + 1, k, ell, gamma) >= quota(n, k, ell, gamma)
    assert quota(n, k, ell + 1, gamma) >= quota(n, k, ell, gamma)
    assert quota(n, k, ell, gamma + 1) >= quota(n, k, ell, gamma)
    assert quota(n, k + 1, ell, gamma) <= quota(n, k, ell, gamma)


def test_validate_ok():
    inst, labels = fixtures.fig2a(5)
    assert validate(inst, outcome_of(labels, ("1", "2", "3", "6", "9"))) == []


def test_validate_size():
    inst, labels = fixtures.fig2a(5)
    bad = Outcome(frozenset(range(6)))
    kinds = [v["kind"] for v in validate(inst, bad)]
    assert "size" in kinds


def test_validate_membership():
    inst, labels = fixtures.fig2a(5)
    bad = Outcome(frozenset({0, 17}))
    kinds = [v["kind"] for v in validate(inst, bad)]
    assert "membership" in kinds


@pytest.mark.parametrize("center", [-1, 8])
@pytest.mark.parametrize("notion", NUMERIC_NOTIONS + RANK_NOTIONS)
def test_auditors_reject_out_of_range_centers(notion, center):
    # a negative center must not alias the last candidate
    inst = parse_instance(generate_family("graph", 8, 3, 1))
    with pytest.raises(ValueError, match=f"center {center} is not a candidate index"):
        run_audit(inst, Outcome({center}), notion)


def test_instance_construction_errors():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        Instance(space, (), "all", 1)
    with pytest.raises(ValueError):
        Instance(space, (0,), "all", 0)
    with pytest.raises(ValueError):
        Instance(space, (0, 5), "all", 1)
    with pytest.raises(ValueError):
        Instance(space, (0,), (0, 3), 1)


def test_non_integral_ids_rejected():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    for agents, cands, k in (
        ((0.7,), "all", 1),
        ((True,), "all", 1),
        ((0,), (1.5,), 1),
        ((0,), "all", 2.9),
        ((0,), "all", True),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            Instance(space, agents, cands, k)
    for centers in ([0.7], [True], ["1"]):
        with pytest.raises(ValueError, match="must be an integer"):
            Outcome(centers)
    assert Instance(space, [1, 0], [1], 2).agents == (1, 0)
    assert Outcome([1, 0]).centers == frozenset({0, 1})
    with pytest.raises(ValueError, match="repeated center"):
        Outcome([1, 0, 1])


def test_duplicate_agents_allowed():
    space = MetricSpace.from_matrix([[0, 1], [1, 0]])
    inst = Instance(space, (0, 0, 1), "all", 2)
    assert inst.n == 3


def test_candidates_all_expansion():
    space = MetricSpace.from_matrix([[0, 2], [2, 0]])
    inst = Instance(space, (0,), "all", 1)
    assert inst.candidates == (0, 1)


def test_agent_candidate_relations():
    space = MetricSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    inside = Instance(space, (0, 1), "all", 1)
    assert inside.agents_within_candidates()
    assert not inside.agents_equal_candidates()
    equal = Instance(space, (0, 1, 2), "all", 1)
    assert equal.agents_equal_candidates()
    outside = Instance(space, (0, 1), (2,), 1)
    assert not outside.agents_within_candidates()


def test_sweep_builds_from_a_non_square_table():
    # entry table[bit][row] puts bit into mask row; pair t is flat index
    # bit * width + row, so the 2 x 3 table fills three masks of two bits
    table = [[2, 0.0, 5], [0, 2, 1]]
    sweep = _sweep(table)
    assert sweep.width == 3
    assert list(sweep.rows) == [1, 0, 2, 0, 1, 2]
    assert list(sweep.bits) == [0, 1, 1, 0, 1, 0]
    assert sweep.ys == (0.0, 1, 2, 5) and list(sweep.ends) == [2, 3, 5, 6]
    # the 0.0 seen first in row-major order is the threshold
    assert type(sweep.ys[0]) is float
    expected = [
        ([0b10, 0b01, 0b00], 0b11, 0b011),
        ([0b10, 0b01, 0b10], 0b10, 0b100),
        ([0b11, 0b11, 0b10], 0b11, 0b011),
        ([0b11, 0b11, 0b11], 0b01, 0b100),
    ]
    assert [(list(m), e, g) for m, e, g in _growing_masks(sweep)] == expected
    # the (row, bit) pairs that enter at each threshold, in the sorted order
    assert [list(pairs) for pairs in _entering_pairs(sweep)] == [
        [(1, 0), (0, 1)],
        [(2, 1)],
        [(0, 0), (1, 1)],
        [(2, 0)],
    ]
    for y, (masks, _, _) in zip(sweep.ys, expected):
        assert masks == [
            sum(1 << bit for bit, row in enumerate(table) if row[r] <= y) for r in range(3)
        ]


def test_sweep_first_values_win_and_any_ys_reads():
    table = [[2, 0.0, 5], [0, 2, 1]]
    sweep = _sweep(table)
    # the first zero in row-major order is kept
    assert [type(y) for y in _sweep([[0, 0.0]]).ys] == [int]
    assert [type(y) for y in _sweep([[1.5], [0.0], [0]]).ys] == [float, float]
    # a sweep reads at any ascending ys: every distance is one of its ys
    read = [(list(m), e, g) for m, e, g in _growing_masks(sweep, [-1, 0.5, 3, 9])]
    assert read == [
        ([0, 0, 0], 0, 0),
        ([0b10, 0b01, 0b00], 0b11, 0b011),
        ([0b11, 0b11, 0b10], 0b11, 0b111),
        ([0b11, 0b11, 0b11], 0b01, 0b100),
    ]
    assert list(_growing_masks(sweep, [])) == []
    read = [list(pairs) for pairs in _entering_pairs(sweep, [-1, 0.5, 3, 9])]
    assert read == [[], [(1, 0), (0, 1)], [(2, 1), (0, 0), (1, 1)], [(2, 0)]]


@pytest.mark.parametrize(
    "space",
    [
        MetricSpace.from_matrix([[0, 3, 5], [3, 0, 4], [5, 4, 0]]),
        MetricSpace.from_matrix(
            [
                [0, Fraction(1, 2), Fraction(3, 5)],
                [Fraction(1, 2), 0, Fraction(1, 5)],
                [Fraction(3, 5), Fraction(1, 5), 0],
            ]
        ),
        MetricSpace.from_points([(0.0, 0.0), (0.1, 0.0), (0.3, 0.7)]),
        MetricSpace.from_matrix([[0, 1, 1.5], [1, 0, 0.75], [1.5, 0.75, 0]]),
    ],
    ids=["int", "fraction", "float", "mixed"],
)
def test_int_cols_scale_dist_cols_by_one_integer(space):
    # int_cols is dist_cols times one common integer scale, exactly; the
    # columns' own denominators differ on all but the int space
    inst = Instance(space, (0, 1, 2, 1), (2, 0, 1), 2)
    dist, ints = inst.dist_cols, inst.int_cols
    assert dist == tuple(
        tuple(inst.d_ac(i, j) for i in range(inst.n)) for j in range(inst.num_candidates)
    )
    scale = math.lcm(*(Fraction(d).denominator for col in dist for d in col))
    assert [len(col) for col in ints] == [inst.n] * inst.num_candidates
    for dcol, icol in zip(dist, ints, strict=True):
        for d, v in zip(dcol, icol, strict=True):
            assert type(v) is int and v == Fraction(d) * scale


def test_zero_candidates_audit_as_recorded():
    # an instance with no candidate and the empty outcome: every notion's
    # report or error; the approval sweep still has width 0
    space = MetricSpace.from_points([(0.0,), (1.0,), (3.0,)])
    inst = Instance(space, (0, 1, 2), (), 2)
    assert inst.dist_cols == inst.int_cols == ()
    assert inst.approval_sweep.width == 0 and inst.approval_sweep.ys == ()
    exact_one = '"status": "exact", "value": 1, "witness": null}'
    passed = '"params": {}, "status": "exact", "value": "pass", "witness": null}'
    expected = {
        "pf": '{"notion": "pf", "params": {}, ' + exact_one,
        "tc": '{"notion": "tc", "params": {"gamma": 1}, ' + exact_one,
        "qcore": '{"notion": "qcore", "params": {"q": 1, "size_cap": 1}, ' + exact_one,
        "qtc": '{"notion": "qtc", "params": {"gamma": 1, "q": 1, "size_cap": 1}, ' + exact_one,
        "if": "ValueError: IF undefined: agents are not a subset of candidates",
        "qif": "ValueError: q-IF undefined: agents are not a subset of candidates",
        **{notion: f'{{"notion": "{notion}", {passed}' for notion in (
            "rank-jr", "rank-pjr", "rank-pjr+", "dprf"
        )},
        "uprf": '{"notion": "uprf", "params": {}, "status": "exact", "value": "violation", '
        '"witness": {"axiom": "uprf", "covered_winners": [], "ell": 1, "group": [0, 1], '
        '"threshold_y": 1.0, "witness_candidates": []}}',
    }
    got = {}
    for notion in NUMERIC_NOTIONS + RANK_NOTIONS:
        try:
            got[notion] = run_audit(inst, Outcome(()), notion).to_json_str()
        except ValueError as exc:
            got[notion] = f"{type(exc).__name__}: {exc}"
    assert got == expected


def _fresh_masks(size, pairs, ys):
    """The threshold sweep sorted afresh on every call: the reference for
    the instance's cached sweeps.  Yields copies of the masks."""
    pairs = sorted(pairs, key=lambda pair: pair[0])
    masks = [0] * size
    pos = 0
    for y in ys:
        entered = grew = 0
        while pos < len(pairs) and pairs[pos][0] <= y:
            _, row, bit = pairs[pos]
            masks[row] |= 1 << bit
            entered |= 1 << bit
            grew |= 1 << row
            pos += 1
        yield list(masks), entered, grew


def _table(inst):
    """Per agent index, the distances to every candidate index."""
    return [[inst.d_ac(i, j) for j in range(inst.num_candidates)] for i in range(inst.n)]


def _fresh_balls(inst, centers, ys):
    """Per threshold, each center's ball and the agents that entered one."""
    table = _table(inst)
    before = [0] * len(centers)
    for y in ys:
        balls = [sum(1 << i for i, row in enumerate(table) if row[c] <= y) for c in centers]
        covered = 0
        for old, new in zip(before, balls):
            covered |= new & ~old
        before = balls
        yield balls, covered


def _check_cached_sweeps(inst):
    rows, arows = _table(inst), inst.agent_rows
    approvals = [(d, j, i) for i, row in enumerate(rows) for j, d in enumerate(row)]
    proximity = [(d, i, j) for i, row in enumerate(arows) for j, d in enumerate(row)]
    levels = sorted({d for d, _, _ in approvals})
    radii = sorted({0} | {d for d, _, _ in proximity})
    # the first proximity threshold is the int 0, even with float co-location
    assert type(inst.proximity_sweep.ys[0]) is int and inst.proximity_sweep.ys[0] == 0
    assert list(inst.approval_sweep.ys) == levels and list(inst.proximity_sweep.ys) == radii
    for sweep, size, pairs, ys in (
        (inst.approval_sweep, inst.num_candidates, approvals, levels),
        (inst.proximity_sweep, inst.n, proximity, radii),
    ):
        cached = [(list(masks), entered, grew) for masks, entered, grew in _growing_masks(sweep)]
        assert cached == list(_fresh_masks(size, pairs, ys))
    # the rank audits read each center's ball as the approval walk's mask of
    # that center, and recompute a cover set only where an agent is in the
    # walk's entered: at both the approval and the proximity thresholds
    outcomes = [algorithms.greedy_capture(inst)[0], algorithms.expanding_approvals(inst)[0]]
    for W in outcomes:
        centers = W.sorted_centers()
        for ys, walk in (
            (levels, _growing_masks(inst.approval_sweep)),
            (radii, _growing_masks(inst.approval_sweep, radii)),
        ):
            for (masks, entered, _), (balls, covered) in zip(
                walk, _fresh_balls(inst, centers, ys), strict=True
            ):
                assert [masks[c] for c in centers] == balls
                assert covered & ~entered == 0


def _sweep_coverage(corpus):
    """How many instances have tied distances, co-located agents and float
    co-location (a 0.0 between two agent entries)."""
    ties = sum(
        len({d for row in _table(inst) for d in row}) < inst.n * inst.num_candidates
        for inst in corpus
    )
    colocated = sum(
        any(d == 0 for i, row in enumerate(inst.agent_rows) for j, d in enumerate(row) if i != j)
        for inst in corpus
    )
    float_zero = sum(
        any(type(d) is float and d == 0 for row in inst.agent_rows for d in row) for inst in corpus
    )
    return ties, colocated, float_zero


def test_cached_sweeps_match_a_fresh_sort_small_corpus(small_corpus):
    assert all(count > 0 for count in _sweep_coverage(small_corpus))
    for inst in small_corpus:
        _check_cached_sweeps(inst)


def test_cached_sweeps_match_a_fresh_sort_corpus500(corpus500):
    assert all(count > 0 for count in _sweep_coverage(corpus500))
    for inst in corpus500:
        _check_cached_sweeps(inst)


def _rule_and_rank_outputs(inst, W, fresh):
    """Every rule and the five rank audits of ``W``, each on ``inst`` or,
    when ``fresh``, on a new copy of it with empty caches."""

    def on():
        return Instance(inst.space, inst.agents, inst.candidates, inst.k) if fresh else inst

    def run(fn, *args):
        try:
            result = fn(on(), *args)
        except ValueError as exc:
            return str(exc)
        if isinstance(result, tuple):
            outcome, trace = result
            return sorted(outcome.centers), outcome.origin, trace.to_json()
        return result.to_json()

    records = [
        run(algorithms.greedy_capture),
        run(algorithms.expanding_approvals),
        run(algorithms.fair_greedy_capture, 1, 3),
        run(algorithms.restricted_solve, "gc"),
        run(algorithms.restricted_solve, "ea"),
    ]
    for fn in (audit_rank.rank_jr_check, audit_rank.rank_pjr_plus_check):
        records.append(run(fn, W))
    for fn in (audit_rank.rank_pjr_check, audit_rank.dprf_check, audit_rank.uprf_check):
        records.append(run(fn, W))
        records.append(run(fn, W, audit_rank.Caps(7)))
    return records


def test_cached_tables_keep_no_per_call_state(small_corpus):
    # outcomes A, B, then A again on one instance read the same as on
    # fresh instances: no umask, memo or mask survives a call in a cache
    for idx, src in enumerate(small_corpus):
        inst = Instance(src.space, src.agents, src.candidates, src.k)
        rng = random.Random(idx)
        size = min(inst.k, inst.num_candidates)
        A = Outcome(rng.sample(range(inst.num_candidates), size))
        B = Outcome(rng.sample(range(inst.num_candidates), rng.randint(0, size)))
        for W in (A, B, A):
            assert _rule_and_rank_outputs(inst, W, False) == _rule_and_rank_outputs(inst, W, True)


def _audit_all(inst, outcome):
    """Every notion's report, or its error, as text."""
    out = []
    for notion in NUMERIC_NOTIONS + RANK_NOTIONS:
        try:
            out.append(run_audit(inst, outcome, notion, q=2, cap=2).to_json_str())
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_outcome_layer_matches_fresh_instances(small_corpus):
    # one instance audits outcomes in turn, each read through its outcome
    # slot: a new center set, a repeated one, an equal one built by hand and
    # a non-candidate center read as on a fresh instance of the same data
    for src in small_corpus:
        inst = Instance(src.space, src.agents, src.candidates, src.k)
        gc = algorithms.greedy_capture(inst)[0]
        ea = algorithms.expanding_approvals(inst)[0]
        bad = Outcome({*sorted(gc.centers)[1:], inst.num_candidates})
        for W in (gc, ea, gc, Outcome(sorted(gc.centers)), bad):
            fresh = Instance(src.space, src.agents, src.candidates, src.k)
            assert _audit_all(inst, W) == _audit_all(fresh, W)
        # every call on the non-candidate raises and leaves the slot as it was
        kept = inst.outcome_slot(gc)
        assert all(e.startswith("ValueError: ") for e in _audit_all(inst, bad))
        with pytest.raises(ValueError, match=f"center {inst.num_candidates} is not a candidate"):
            inst.outcome_slot(bad)
        assert inst.outcome_slot(gc) is kept
