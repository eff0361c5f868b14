import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from propclust import Instance, MetricSpace, Outcome
from propclust import fixtures
from propclust.audit_single import dists_to_centers
from propclust.instance import _growing_masks, _sweep


@pytest.fixture(scope="module")
def fig2a():
    inst, labels = fixtures.fig2a(5)
    return inst.space, labels


def test_dist_long_edge(fig2a):
    space, L = fig2a
    assert space.dist(L["1"], L["5"]) == 10


def test_dist_identity(fig2a):
    space, L = fig2a
    for x in range(space.num_points):
        assert space.dist(x, x) == 0


def test_dist_shortest_path(fig2a):
    space, L = fig2a
    assert space.dist(L["8"], L["6"]) == 2


def _d_q(space, a, targets, q):
    """d_q(a, T), the q-th closest of the targets to point a, as the
    auditors read it."""
    inst = Instance(space, [a], "all", len(targets))
    return dists_to_centers(inst, Outcome(targets), q)[0]


def _ball(space, a, r):
    """The points within r of a, read from the shared threshold sweep."""
    sweep = _sweep([[space.dist(a, x)] for x in range(space.num_points)])
    (masks, _, _), = _growing_masks(sweep, [r])
    return {x for x in range(space.num_points) if masks[0] >> x & 1}


def test_dist_q_examples(fig2a):
    space, L = fig2a
    targets = [L["6"], L["9"], L["10"]]
    assert _d_q(space, L["5"], targets, 3) == 3
    assert _d_q(space, L["5"], targets, 1) == min(space.dist(L["5"], t) for t in targets)


def test_dist_q_third_center_distance(fig2a):
    # direct enumeration: distances from 10 to {1,2,3,6,9} are 13,13,13,2,1
    space, L = fig2a
    W = [L[x] for x in ("1", "2", "3", "6", "9")]
    enumerated = sorted(space.dist(L["10"], w) for w in W)
    assert enumerated == [1, 2, 13, 13, 13]
    assert _d_q(space, L["10"], W, 3) == enumerated[2] == 13


def test_dist_q_insufficient_targets(fig2a):
    # an outcome with fewer than q centers leaves d_q unbounded
    space, L = fig2a
    assert _d_q(space, L["5"], [L["6"]], 2) == math.inf


def test_ball_intersection_fig2b():
    inst, L = fixtures.fig2b(5)
    space = inst.space
    balls = [_ball(space, L[str(i)], 4) for i in range(5, 11)]
    common = set.intersection(*balls)
    assert common == {L["6"], L["7"], L["9"]}
    assert _ball(space, L["5"], 4) == {L[x] for x in ("5", "6", "7", "9")}


def test_ball_zero_radius(fig2a):
    # the radius-0 ball holds the point and the points co-located with it
    space, L = fig2a
    assert _ball(space, L["7"], 0) == {L["7"]}
    assert _ball(space, L["1"], 0) == {L[x] for x in ("1", "2", "3", "4")}


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="metric undefined"):
        MetricSpace.from_graph(3, [(0, 1, 1)])


def test_graph_rational_weights():
    space = MetricSpace.from_graph(3, [(0, 1, [1, 2]), (1, 2, [1, 3])])
    assert space.dist(0, 2) == Fraction(5, 6)


def test_graph_rejects_negative_weight():
    with pytest.raises(ValueError):
        MetricSpace.from_graph(2, [(0, 1, -1)])


def test_matrix_validation():
    MetricSpace.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        MetricSpace.from_matrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        MetricSpace.from_matrix([[1]])
    far = 2 + Fraction(1, 10**10)  # breaks the triangle by 10^-10, exactly
    float_far = 2.0 + 1e-10  # the same break in floats, at scale 1
    for rows in (
        [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
        [[0, 1, far], [1, 0, 1], [far, 1, 0]],
        [[0, 1.0, float_far], [1.0, 0, 1.0], [float_far, 1.0, 0]],
    ):
        with pytest.raises(ValueError, match="triangle"):
            MetricSpace.from_matrix(rows)
    # decimal-to-float rounding breaks this matrix's triangle inequality by
    # about 1e-16 at (3, 0, 2): a few ulps of its scale, so it is accepted
    MetricSpace.from_matrix(
        [
            [0, 0.0, 1.0, 1e-12],
            [0.0, 0, 1.0, 1e-12],
            [1.0, 1.0, 0, 1.000000000001],
            [1e-12, 1e-12, 1.000000000001, 0],
        ]
    )


def _ordered_triangle_failure(rows):
    """The triangle check as a literal ordered scan: the first (i, j, k),
    j-major, with d_ik - d_jk past d_ij and the float allowance."""
    n = len(rows)
    exact = not any(isinstance(x, float) for row in rows for x in row)
    room = 0 if exact else 4 * sys.float_info.epsilon
    for j in range(n):
        for i in range(n):
            slack = room * max(max(rows[i]), max(rows[j]))
            for k in range(n):
                excess = rows[i][k] - rows[j][k]
                if excess > rows[i][j] and excess > rows[i][j] + slack:
                    k = max(range(n), key=lambda x: rows[i][x] - rows[j][x])
                    return f"triangle inequality fails at ({i},{j},{k})"
    return None


def test_matrix_triangle_failure_names_the_ordered_scans_triple():
    # the check reads each unordered pair once, and must still name the
    # triple that the ordered scan finds first
    rng = random.Random(11)
    failures = 0
    for _ in range(800):
        n = rng.randint(1, 8)
        kind = rng.choice(["int", "fraction", "float"])
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                d = rng.randint(1, 6)
                if kind == "fraction":
                    d = Fraction(d, rng.randint(1, 3))
                elif kind == "float":
                    d = d / 3
                rows[a][b] = rows[b][a] = d
        want = _ordered_triangle_failure(rows)
        try:
            MetricSpace.from_matrix(rows)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want
        failures += want is not None
    assert 200 < failures < 700


def test_points_norms():
    pts = [[0, 0], [3, 4]]
    assert MetricSpace.from_points(pts, "l2").dist(0, 1) == 5.0
    assert MetricSpace.from_points(pts, "l1").dist(0, 1) == 7.0
    assert MetricSpace.from_points(pts, "linf").dist(0, 1) == 4.0
    with pytest.raises(ValueError):
        MetricSpace.from_points(pts, "l3")


def test_co_located_points_allowed(fig2a):
    space, L = fig2a
    assert space.dist(L["1"], L["4"]) == 0
    assert L["1"] != L["4"]


def _random_graph_space(rng, n):
    edges = [(rng.randrange(v), v, rng.randint(0, 6)) for v in range(1, n)]
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(0, 6)))
    return MetricSpace.from_graph(n, edges)


@given(st.integers(0, 10_000), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_symmetry_and_diagonal(seed, n):
    space = _random_graph_space(random.Random(seed), n)
    for i in range(n):
        assert space.dist(i, i) == 0
        for j in range(n):
            assert space.dist(i, j) == space.dist(j, i)
            assert space.dist(i, j) >= 0


@given(st.integers(0, 10_000), st.integers(3, 8))
@settings(max_examples=60, deadline=None)
def test_triangle_inequality_exact(seed, n):
    space = _random_graph_space(random.Random(seed), n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert space.dist(i, k) <= space.dist(i, j) + space.dist(j, k)


@given(st.integers(0, 10_000), st.integers(3, 8), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_q_triangle_inequality(seed, n, q):
    # d_q(i, T) <= d(i, i') + d_q(i', T)
    rng = random.Random(seed)
    space = _random_graph_space(rng, n)
    targets = rng.sample(range(n), rng.randint(q, n))
    inst = Instance(space, range(n), "all", len(targets))
    dq = dists_to_centers(inst, Outcome(targets), q)
    for i in range(n):
        for i2 in range(n):
            assert dq[i] <= space.dist(i, i2) + dq[i2]


@given(st.integers(0, 10_000), st.integers(3, 8))
@settings(max_examples=40, deadline=None)
def test_dist_q_monotone_in_q(seed, n):
    rng = random.Random(seed)
    space = _random_graph_space(rng, n)
    inst = Instance(space, range(n), "all", n)
    everyone = Outcome(range(n))
    for a in range(n):
        vals = [dists_to_centers(inst, everyone, q)[a] for q in range(1, n + 1)]
        assert vals == sorted(vals)


@given(st.integers(0, 10_000), st.integers(3, 10))
@settings(max_examples=30, deadline=None)
def test_points_triangle_sampled(seed, n):
    rng = random.Random(seed)
    coords = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(n)]
    space = MetricSpace.from_points(coords)
    for _ in range(50):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert space.dist(i, k) <= space.dist(i, j) + space.dist(j, k) + 1e-9


# finite coordinates this far apart overflow to inf distances
FAR = [[1e308, 0], [-1e308, 0], [1e308, 1], [-1e308, 1]]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MetricSpace.from_graph(2, [(0, 1, True)]), "invalid weight: bool"),
        (lambda: MetricSpace.from_graph(2, [(0, 1, [-1, 2])]), "negative weight"),
        (lambda: MetricSpace.from_graph(2, [(0, 1, "1")]), "invalid weight"),
        (lambda: MetricSpace.from_matrix([[0, 1], [1]]), "not square"),
        (lambda: MetricSpace.from_matrix([[0, -1], [-1, 0]]), "negative distance"),
        (lambda: MetricSpace.from_graph(0, []), "at least one node"),
        (lambda: MetricSpace.from_graph(2, [(0, 2, 1)]), "endpoint out of range"),
        (lambda: MetricSpace.from_points([]), "at least one point"),
        (lambda: MetricSpace.from_points([[0.0, 0.0], [1.0]]), "inconsistent dimension"),
        (lambda: MetricSpace.from_matrix([[0, math.inf], [math.inf, 0]]), "must be finite"),
    ]
    + [
        (lambda norm=norm: MetricSpace.from_points(FAR, norm), "must be finite")
        for norm in ("l1", "l2", "linf")
    ],
)
def test_metric_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_from_points_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            MetricSpace.from_points([[0.0, 0.0], [bad, 1.0]])
    for bad in ("1", True):
        with pytest.raises(ValueError, match="must be a number"):
            MetricSpace.from_points([[0.0, 0.0], [bad, 1.0]])
