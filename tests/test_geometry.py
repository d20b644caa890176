"""Tests for the planar geometry primitives."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucircle.geometry import (
    GeometryError,
    MotionSegment,
    Point,
    circumcircle,
    dist,
    is_free_path,
    is_vacant_target,
    min_pairwise_distance,
    min_separation_during_motion,
    smallest_enclosing_circle,
    smallest_enclosing_circle_bruteforce,
)

P = Point


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def points_close(p, q, tol=1e-9):
    return dist(p, q) <= tol


# ---------------------------------------------------------------------------
# Smallest enclosing circle
# ---------------------------------------------------------------------------


class TestSmallestEnclosingCircle:
    def test_right_triangle(self):
        # [DERIVED] diameter is the hypotenuse of the (0,0),(2,0),(0,2) triangle.
        c = smallest_enclosing_circle([P(0, 0), P(2, 0), P(0, 2)])
        assert points_close(c.center, P(1, 1))
        assert close(c.radius, math.sqrt(2))

    def test_collinear(self):
        # [DERIVED] collinear points: diameter spans the extremes.
        c = smallest_enclosing_circle([P(0, 0), P(4, 0), P(1, 0)])
        assert points_close(c.center, P(2, 0))
        assert close(c.radius, 2.0)

    def test_single_point(self):
        c = smallest_enclosing_circle([P(3, -7)])
        assert points_close(c.center, P(3, -7))
        assert c.radius == 0.0

    def test_two_points(self):
        c = smallest_enclosing_circle([P(-1, 0), P(3, 0)])
        assert points_close(c.center, P(1, 0))
        assert close(c.radius, 2.0)

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            smallest_enclosing_circle([])

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(1234)
        for trial in range(200):
            n = rng.randint(1, 12)
            pts = [P(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)]
            fast = smallest_enclosing_circle(pts)
            slow = smallest_enclosing_circle_bruteforce(pts)
            assert close(fast.radius, slow.radius, 1e-7), (trial, pts)
            assert points_close(fast.center, slow.center, 1e-6), (trial, pts)

    def test_encloses_all_points(self):
        rng = random.Random(99)
        for _ in range(50):
            pts = [P(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(8)]
            c = smallest_enclosing_circle(pts)
            for p in pts:
                assert dist(c.center, p) <= c.radius + 1e-9

    def test_minimality_shrink_fails(self):
        # Shrinking the reported radius by a hair must exclude some point.
        rng = random.Random(7)
        for _ in range(30):
            pts = [P(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(6)]
            c = smallest_enclosing_circle(pts)
            if c.radius < 1e-6:
                continue
            shrunk = c.radius - 1e-6
            assert any(dist(c.center, p) > shrunk + 1e-9 for p in pts)

    def test_duplicate_points(self):
        c = smallest_enclosing_circle([P(1, 1), P(1, 1), P(5, 1)])
        assert points_close(c.center, P(3, 1))
        assert close(c.radius, 2.0)


def test_circumcircle_equilateral():
    h = math.sqrt(3)
    c = circumcircle(P(-1, 0), P(1, 0), P(0, h))
    assert c is not None
    assert points_close(c.center, P(0, h / 3), 1e-9)
    assert close(c.radius, 2 / math.sqrt(3), 1e-9)


def test_circumcircle_collinear_is_none():
    assert circumcircle(P(0, 0), P(1, 0), P(2, 0)) is None


# ---------------------------------------------------------------------------
# Path / vacancy predicates
# ---------------------------------------------------------------------------


class TestFreePath:
    def test_obstacle_abeam_at_1_5_blocks(self):
        # Closed rectangle of half-width 1 plus unit body: 1.5 < 2 -> blocked.
        assert not is_free_path(P(0, 0), P(10, 0), [P(5, 1.5)])

    def test_obstacle_abeam_at_2_5_is_free(self):
        assert is_free_path(P(0, 0), P(10, 0), [P(5, 2.5)])

    def test_obstacle_exactly_grazing_blocks(self):
        # Perpendicular offset exactly 2: disc touches the closed rectangle.
        assert not is_free_path(P(0, 0), P(10, 0), [P(5, 2.0)])

    def test_obstacle_behind_and_ahead(self):
        assert is_free_path(P(0, 0), P(10, 0), [P(-5, 0), P(15, 0)])
        assert not is_free_path(P(0, 0), P(10, 0), [P(10.5, 0)])

    def test_no_obstacles(self):
        assert is_free_path(P(0, 0), P(10, 0), [])

    def test_monotone_in_offset(self):
        # Moving an obstacle further from the corridor never turns a free
        # path into a blocked one.
        was_free = False
        for off in [0.5, 1.0, 1.9, 2.0001, 2.5, 4.0]:
            free = is_free_path(P(0, 0), P(8, 0), [P(4, off)])
            assert free or not was_free
            was_free = free
        assert was_free


class TestVacantTarget:
    def test_far_robot_vacant(self):
        assert is_vacant_target(P(0, 0), [P(3.5, 0)])

    def test_near_robot_not_vacant(self):
        assert not is_vacant_target(P(0, 0), [P(2.5, 0)])

    def test_robot_on_point_not_vacant(self):
        assert not is_vacant_target(P(0, 0), [P(0, 0)])

    def test_boundary_is_closed(self):
        # Center distance exactly 3: disc touches the closed region.
        assert not is_vacant_target(P(0, 0), [P(3.0, 0)])

    def test_empty_is_vacant(self):
        assert is_vacant_target(P(2, 2), [])



# ---------------------------------------------------------------------------
# Motion separation
# ---------------------------------------------------------------------------


class TestMinSeparation:
    def test_min_pairwise_distance(self):
        assert min_pairwise_distance([]) == math.inf
        assert min_pairwise_distance([P(1, 1)]) == math.inf
        assert min_pairwise_distance([P(0, 0), P(9, 0), P(0, 3), P(4, 3)]) == 3.0

    def test_parallel_constant_gap(self):
        m1 = MotionSegment(P(0, 0), P(10, 0), 0.0, 10.0)
        m2 = MotionSegment(P(0, 3), P(10, 3), 0.0, 10.0)
        assert close(min_separation_during_motion(m1, m2), 3.0)

    def test_crossing_paths(self):
        # Two robots crossing at right angles; checked against dense sampling.
        m1 = MotionSegment(P(0, 0), P(10, 0), 0.0, 10.0)
        m2 = MotionSegment(P(5, -5), P(5, 5), 0.0, 10.0)
        got = min_separation_during_motion(m1, m2)
        sampled = min(
            dist(m1.position_at(t / 1000 * 10), m2.position_at(t / 1000 * 10))
            for t in range(1001)
        )
        assert got <= sampled + 1e-9
        assert close(got, sampled, 1e-2)

    def test_disjoint_intervals(self):
        m1 = MotionSegment(P(0, 0), P(1, 0), 0.0, 1.0)
        m2 = MotionSegment(P(0, 5), P(1, 5), 2.0, 3.0)
        assert min_separation_during_motion(m1, m2) == math.inf

    def test_sampling_oracle(self):
        # Independent oracle: dense time sampling over random segment pairs.
        rng = random.Random(42)
        for _ in range(40):
            def seg():
                t0 = rng.uniform(0, 5)
                return MotionSegment(
                    P(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                    P(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                    t0,
                    t0 + rng.uniform(0.1, 5),
                )

            m1, m2 = seg(), seg()
            got = min_separation_during_motion(m1, m2)
            a = max(m1.t0, m2.t0)
            b = min(m1.t1, m2.t1)
            if a > b:
                assert got == math.inf
                continue
            samples = 2000
            sampled = min(
                dist(
                    m1.position_at(a + (b - a) * i / samples),
                    m2.position_at(a + (b - a) * i / samples),
                )
                for i in range(samples + 1)
            )
            assert got <= sampled + 1e-9
            assert close(got, sampled, 1e-3)

    def test_symmetry(self):
        m1 = MotionSegment(P(0, 0), P(4, 4), 0.0, 2.0)
        m2 = MotionSegment(P(4, 0), P(0, 4), 0.5, 1.5)
        assert close(
            min_separation_during_motion(m1, m2),
            min_separation_during_motion(m2, m1),
        )

    def test_piecewise(self):
        # The engine checks piecewise trajectories as the minimum over every
        # pair of pieces; a parked robot is one stationary piece.
        a = [
            MotionSegment(P(0, 0), P(5, 0), 0.0, 5.0),
            MotionSegment(P(5, 0), P(5, 5), 5.0, 10.0),
        ]
        b = [MotionSegment(P(5, 7), P(5, 7), 0.0, 10.0)]
        assert close(min(min_separation_during_motion(s1, s2) for s1 in a for s2 in b), 2.0)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=10))
def test_sec_encloses_and_matches_oracle(raw):
    pts = [P(x, y) for x, y in raw]
    c = smallest_enclosing_circle(pts)
    tol = 1e-7 * (1.0 + c.radius)
    for p in pts:
        assert dist(c.center, p) <= c.radius + tol
    slow = smallest_enclosing_circle_bruteforce(pts)
    assert abs(c.radius - slow.radius) <= 1e-6 * (1.0 + c.radius)

