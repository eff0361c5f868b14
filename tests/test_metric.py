import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from propclust import MetricSpace
from propclust import fixtures


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


def test_dist_q_examples(fig2a):
    space, L = fig2a
    targets = [L["6"], L["9"], L["10"]]
    assert space.dist_q(L["5"], targets, 3) == 3
    assert space.dist_q(L["5"], targets, 1) == min(space.dist(L["5"], t) for t in targets)


def test_dist_q_third_center_distance(fig2a):
    # direct enumeration: distances from 10 to {1,2,3,6,9} are 13,13,13,2,1
    space, L = fig2a
    W = [L[x] for x in ("1", "2", "3", "6", "9")]
    enumerated = sorted(space.dist(L["10"], w) for w in W)
    assert enumerated == [1, 2, 13, 13, 13]
    assert space.dist_q(L["10"], W, 3) == enumerated[2] == 13


def test_dist_q_insufficient_targets(fig2a):
    space, L = fig2a
    with pytest.raises(ValueError, match="insufficient"):
        space.dist_q(L["5"], [L["6"]], 2)


def test_ball_intersection_fig2b():
    inst, L = fixtures.fig2b(5)
    space = inst.space
    everyone = set(range(space.num_points))
    balls = [space.ball(L[str(i)], 4, everyone) for i in range(5, 11)]
    common = set.intersection(*balls)
    assert common == {L["6"], L["7"], L["9"]}
    assert space.ball(L["5"], 4, everyone) == {L[x] for x in ("5", "6", "7", "9")}


def test_ball_zero_radius(fig2a):
    space, L = fig2a
    assert space.ball(L["7"], 0, {L["7"]}) == {L["7"]}


def test_neighborhood_radius_examples(fig2a):
    space, L = fig2a
    agents = list(range(space.num_points))
    assert space.neighborhood_radius(L["8"], agents, 3) == 1
    assert space.neighborhood_radius(L["8"], agents, 1) == 0


def test_neighborhood_radius_fig4a():
    inst, L = fixtures.fig4a(2)
    agents = list(inst.agents)
    assert inst.space.neighborhood_radius(L["5"], agents, 3) == 1


def test_neighborhood_radius_errors(fig2a):
    space, L = fig2a
    with pytest.raises(ValueError):
        space.neighborhood_radius(L["8"], list(range(10)), 11)
    with pytest.raises(ValueError):
        space.neighborhood_radius(L["8"], [L["5"]], 1)


def test_neighborhood_radius_multiset():
    space = MetricSpace.from_graph(3, [(0, 1, 2), (1, 2, 2)])
    # duplicated agent at point 1 counts twice
    assert space.neighborhood_radius(1, [0, 1, 1, 2], 2) == 0
    assert space.neighborhood_radius(1, [0, 1, 1, 2], 3) == 2


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
    for rows in ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], [[0, 1, far], [1, 0, 1], [far, 1, 0]]):
        with pytest.raises(ValueError, match="triangle"):
            MetricSpace.from_matrix(rows)


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
    rng = random.Random(seed)
    space = _random_graph_space(rng, n)
    targets = rng.sample(range(n), rng.randint(q, n))
    for i in range(n):
        for i2 in range(n):
            lhs = space.dist_q(i, targets, q)
            rhs = space.dist(i, i2) + space.dist_q(i2, targets, q)
            assert lhs <= rhs


@given(st.integers(0, 10_000), st.integers(3, 8))
@settings(max_examples=40, deadline=None)
def test_dist_q_monotone_in_q(seed, n):
    rng = random.Random(seed)
    space = _random_graph_space(rng, n)
    targets = list(range(n))
    for a in range(n):
        vals = [space.dist_q(a, targets, q) for q in range(1, n + 1)]
        assert vals == sorted(vals)


@given(st.integers(0, 10_000), st.integers(3, 8))
@settings(max_examples=40, deadline=None)
def test_neighborhood_radius_ball_duality(seed, n):
    rng = random.Random(seed)
    space = _random_graph_space(rng, n)
    agents = list(range(n))
    for a in range(n):
        for count in range(1, n + 1):
            r = space.neighborhood_radius(a, agents, count)
            assert len(space.ball(a, r, agents)) >= count
            smaller = [d for d in (space.dist(a, x) for x in agents) if d < r]
            assert len(smaller) < count


@given(st.integers(0, 10_000), st.integers(3, 10))
@settings(max_examples=30, deadline=None)
def test_points_triangle_sampled(seed, n):
    rng = random.Random(seed)
    coords = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(n)]
    space = MetricSpace.from_points(coords)
    for _ in range(50):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert space.dist(i, k) <= space.dist(i, j) + space.dist(j, k) + 1e-9


def test_from_points_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            MetricSpace.from_points([[0.0, 0.0], [bad, 1.0]])
    for bad in ("1", True):
        with pytest.raises(ValueError, match="must be a number"):
            MetricSpace.from_points([[0.0, 0.0], [bad, 1.0]])
