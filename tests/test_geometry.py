"""Tests for the planar geometry primitives."""

import collections
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucircle.geometry import (
    EPS,
    UNIT_BODY_RADIUS,
    VACANCY_CLEARANCE,
    GeometryError,
    MotionSegment,
    Point,
    _sec_order,
    _sec_two_boundary,
    circumcircle,
    dist,
    is_free_path,
    is_vacant_target,
    min_pairwise_distance,
    min_separation_during_motion,
    smallest_enclosing_circle,
    smallest_enclosing_circle_bruteforce,
)
from ucircle.global_form import ENDPOINT_CLEARANCE, _path_ok

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


def reference_is_free_path(src, dst, obstacles):
    """`is_free_path` as written with `max`, `all` and the vector helpers."""
    length = dist(src, dst)
    if length <= 1e-15:
        return all(dist(src, ob) > 2.0 * UNIT_BODY_RADIUS + EPS for ob in obstacles)
    ux, uy = (dst.x - src.x) / length, (dst.y - src.y) / length
    for ob in obstacles:
        wx, wy = ob.x - src.x, ob.y - src.y
        s = wx * ux + wy * uy
        t = abs(ux * wy - uy * wx)
        dx = max(0.0, -s, s - length)
        dy = max(0.0, t - UNIT_BODY_RADIUS)
        if math.hypot(dx, dy) <= UNIT_BODY_RADIUS + EPS:
            return False
    return True


def reference_is_vacant_target(p, robot_centers):
    return all(dist(p, r) > VACANCY_CLEARANCE + EPS for r in robot_centers)


def reference_path_ok(src, dst, obstacles):
    if any(dist(o, dst) < ENDPOINT_CLEARANCE for o in obstacles):
        return False
    return reference_is_free_path(src, dst, obstacles)


def _around(x):
    """x and its two floating-point neighbours."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def _clearance_cases():
    """(src, dst, obstacles) on both sides of every threshold the clearance
    tests compare against, plus random scenes."""
    cases = []
    src, dst = P(0.0, 0.0), P(10.0, 0.0)
    reach = UNIT_BODY_RADIUS + EPS
    # Abeam of the corridor (t <= 1 inside it, grazing at 2 + EPS), behind
    # the start (s < 0) and past the end (s > length).
    for off in (*_around(2.0 * UNIT_BODY_RADIUS + EPS), 0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        for x in (5.0, -1.0, 11.0):
            cases.append((src, dst, [P(x, off)]))
            cases.append((src, dst, [P(x, -off)]))
    # Behind the start and past the end of a path 2**-10 long, at which
    # `s - length` is exact.
    short = P(2.0**-10, 0.0)
    for gap in _around(reach):
        cases.append((src, dst, [P(-gap, 0.0)]))
        cases.append((src, short, [P(short.x + gap, 0.0)]))
    # The endpoint clearance, and the vacancy clearance around the target.
    for d in (*_around(ENDPOINT_CLEARANCE), *_around(VACANCY_CLEARANCE + EPS)):
        cases.append((src, dst, [P(10.0 + d, 0.0)]))
        cases.append((src, dst, [P(10.0, d)]))
    # Zero-length paths, with obstacles on both sides of 2 + EPS.
    for d in (*_around(2.0 * UNIT_BODY_RADIUS + EPS), 0.0, 1.0, 3.0):
        cases.append((src, src, [P(d, 0.0)]))
        cases.append((dst, P(10.0, 1e-16), [P(10.0, d)]))
    # No obstacles, and ones that are not finite.
    cases.append((src, dst, []))
    cases.append((src, dst, [P(math.nan, 0.0), P(5.0, math.inf)]))
    rng = random.Random(19)
    for _ in range(400):
        a = P(rng.uniform(-8, 8), rng.uniform(-8, 8))
        b = a if rng.random() < 0.05 else P(rng.uniform(-8, 8), rng.uniform(-8, 8))
        obstacles = [P(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(rng.randrange(6))]
        cases.append((a, b, obstacles))
    return cases


class TestClearanceRewrites:
    """The clearance tests on plain floats answer as the reference copies
    with `max`, `all` and `any` do, on every edge and random input."""

    def test_is_free_path(self):
        for src, dst, obstacles in _clearance_cases():
            assert is_free_path(src, dst, obstacles) == reference_is_free_path(src, dst, obstacles)

    def test_is_vacant_target(self):
        for src, dst, obstacles in _clearance_cases():
            for p in (src, dst):
                assert is_vacant_target(p, obstacles) == reference_is_vacant_target(p, obstacles)

    def test_path_ok(self):
        for src, dst, obstacles in _clearance_cases():
            assert _path_ok(src, dst, obstacles) == reference_path_ok(src, dst, obstacles)

    def test_cases_reach_both_answers(self):
        # Every kind of answer comes up, so no comparison above is vacuous.
        cases = _clearance_cases()
        for test in (reference_is_free_path, reference_path_ok):
            assert {test(*case) for case in cases} == {True, False}
        assert {reference_is_vacant_target(dst, obs) for _, dst, obs in cases} == {True, False}



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



# ---------------------------------------------------------------------------
# Bit-for-bit pin of the incremental SEC
# ---------------------------------------------------------------------------


def _sec_corpus():
    """About 2 000 seeded point sets of 1..25 points, eight kinds per size:
    random, with duplicates, collinear, regular polygons (near and far
    from the origin), random near 1e6, small integer grids, and robot-like
    discs."""
    rng = random.Random(20_512)
    sets = []
    for n in range(1, 26):
        for k in range(80):
            kind = k % 8
            if kind == 0:
                pts = [P(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)]
            elif kind == 1:
                pool = [P(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(max(1, n // 2))]
                pts = [rng.choice(pool) for _ in range(n)]
            elif kind == 2:
                a = P(rng.uniform(-50, 50), rng.uniform(-50, 50))
                ang = rng.uniform(0.0, 2.0 * math.pi)
                u = P(math.cos(ang), math.sin(ang))
                pts = [a + u.scaled(rng.uniform(-30, 30)) for _ in range(n)]
            elif kind in (3, 4):
                off = 1e6 if kind == 4 else 0.0
                c = P(off + rng.uniform(-10, 10), off + rng.uniform(-10, 10))
                r, phase = rng.uniform(1, 40), rng.uniform(0.0, 2.0 * math.pi)
                pts = [
                    P(c.x + r * math.cos(phase + 2 * math.pi * i / n), c.y + r * math.sin(phase + 2 * math.pi * i / n))
                    for i in range(n)
                ]
            elif kind == 5:
                pts = [P(1e6 + rng.uniform(-50, 50), -1e6 + rng.uniform(-50, 50)) for _ in range(n)]
            elif kind == 6:
                pts = [P(float(rng.randint(-5, 5)), float(rng.randint(-5, 5))) for _ in range(n)]
            else:
                pts = []
                for _ in range(n):
                    r, ang = 3.0 * n * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
                    pts.append(P(r * math.cos(ang), r * math.sin(ang)))
            sets.append(pts)
    return sets


# Recorded before the SEC was rewritten on plain floats: any change in a
# centre or radius bit, on any of these sets, changes the digest.
SEC_CORPUS_SHA256 = "d04e2c8db66dc2fecfae75a38d8410484fc0266de345e4585906aa88c223516f"


def test_sec_bits_are_pinned():
    import hashlib

    h = hashlib.sha256()
    corpus = _sec_corpus()
    assert len(corpus) == 2000
    for pts in corpus:
        c = smallest_enclosing_circle(pts)
        h.update(f"{c.center.x.hex()} {c.center.y.hex()} {c.radius.hex()}\n".encode())
    assert h.hexdigest() == SEC_CORPUS_SHA256


# ---------------------------------------------------------------------------
# The SEC against a reference copy of its construction
# ---------------------------------------------------------------------------


def reference_smallest_enclosing_circle(points, hits):
    """`smallest_enclosing_circle` as written with a `_sec_two_boundary`
    helper that squares each point where it needs it and computes the radius
    of every candidate circumcircle. `hits` counts the nearly collinear
    triples skipped and the radius ties between a left and a right winner."""
    pts = [(p.x, p.y) for p in points]
    pts = [pts[k] for k in _sec_order(len(pts))]
    hypot = math.hypot
    cx, cy, r = pts[0][0], pts[0][1], 0.0
    for i, (px, py) in enumerate(pts):
        if hypot(cx - px, cy - py) <= r + EPS:
            continue
        cx, cy, r = px, py, 0.0
        for j in range(i + 1):
            qx, qy = pts[j]
            if hypot(cx - qx, cy - qy) <= r + EPS:
                continue
            if r == 0.0:
                cx, cy, r = (px + qx) / 2.0, (py + qy) / 2.0, hypot(px - qx, py - qy) / 2.0
            else:
                cx, cy, r = _reference_sec_two_boundary(pts, j + 1, px, py, qx, qy, hits)
    return cx, cy, r


def _reference_sec_two_boundary(pts, m, px, py, qx, qy, hits):
    hypot = math.hypot
    mx, my, mr = (px + qx) / 2.0, (py + qy) / 2.0, hypot(px - qx, py - qy) / 2.0
    pqx, pqy = qx - px, qy - py
    an, bn = px * px + py * py, qx * qx + qy * qy
    left = right = None
    for k in range(m):
        rx, ry = pts[k]
        if hypot(mx - rx, my - ry) <= mr + EPS:
            continue
        d = 2.0 * (px * (qy - ry) + qx * (ry - py) + rx * (py - qy))
        if abs(d) < 1e-14:
            hits["collinear"] += 1
            continue
        cn = rx * rx + ry * ry
        ux = (an * (qy - ry) + bn * (ry - py) + cn * (py - qy)) / d
        uy = (an * (rx - qx) + bn * (px - rx) + cn * (qx - px)) / d
        ur = max(hypot(ux - px, uy - py), hypot(ux - qx, uy - qy), hypot(ux - rx, uy - ry))
        side = pqx * (ry - py) - pqy * (rx - px)
        off = pqx * (uy - py) - pqy * (ux - px)
        if side > 0.0 and (left is None or off > left[3]):
            left = (ux, uy, ur, off)
        elif side < 0.0 and (right is None or off < right[3]):
            right = (ux, uy, ur, off)
    if left is None:
        return (mx, my, mr) if right is None else right[:3]
    if right is not None and left[2] == right[2]:
        hits["tie"] += 1
    if right is None or left[2] <= right[2]:
        return left[:3]
    return right[:3]


def _formation_looks(rng):
    """Looks at n robots on or near the n targets of a circle, within 1e-9
    of them, as robots that share only the y axis see them: each from its
    own position, and mirrored in x."""
    looks = []
    for n in range(3, 21):
        radius = 3.5 / (2.0 * math.sin(math.pi / n)) * rng.choice((1.0, 1.0, 1.7))
        c = P(rng.uniform(-100, 100), rng.uniform(-100, 100))
        jitter = rng.choice((0.0, 1e-12, 1e-9))
        world = [
            P(
                c.x + radius * math.cos(math.pi / 2.0 - 2.0 * math.pi * i / n) + rng.uniform(-jitter, jitter),
                c.y + radius * math.sin(math.pi / 2.0 - 2.0 * math.pi * i / n) + rng.uniform(-jitter, jitter),
            )
            for i in range(n)
        ]
        for me in world:
            for flip in (1.0, -1.0):
                looks.append([P(flip * (p.x - me.x), p.y - me.y) for p in world])
    return looks


def _sec_reference_cases():
    rng = random.Random(2021)
    cases = []
    for n in range(1, 26):
        for scale in (1.0, 50.0, 1e3):
            cases.append([P(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)])
        pool = [P(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(max(1, n // 3))]
        cases.append([rng.choice(pool) for _ in range(n)])  # duplicates
    cases += _formation_looks(rng)
    # Collinear triples: along a line over a few units, and thin triangles
    # over a few times EPS, whose doubled area falls below the 1e-14 at
    # which a circumcircle is skipped.
    for _ in range(300):
        a, ang = P(rng.uniform(-20, 20), rng.uniform(-20, 20)), rng.uniform(0.0, 2.0 * math.pi)
        u = P(math.cos(ang), math.sin(ang))
        for spread, thickness in ((3.0, 0.0), (1e-8, 1e-8), (3e-8, 1e-8)):
            cases.append(
                [
                    a + u.scaled(rng.uniform(-spread, spread)) + P(-u.y, u.x).scaled(rng.uniform(-thickness, thickness))
                    for _ in range(3)
                ]
            )
    return cases


def _two_boundary_cases():
    """(pts, p, q) for the step that keeps p and q on the boundary: random
    points, and points mirrored across the line pq, whose left and right
    circumcircles tie in radius. The incremental construction never meets
    the second kind, as no circle through p and q holds points outside
    their diameter circle on both sides of pq."""
    rng = random.Random(2121)
    cases = []
    for _ in range(300):
        pts = [P(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(rng.randint(2, 8))]
        cases.append((pts, pts[-1], rng.choice(pts[:-1])))
    for _ in range(300):
        half = [(rng.uniform(-12, 12), rng.uniform(0.5, 12)) for _ in range(rng.randint(1, 3))]
        pts = [P(x, y) for x, y in half] + [P(x, -y) for x, y in half]
        p, q = P(rng.uniform(-10, -0.5), 0.0), P(rng.uniform(0.5, 10), 0.0)
        if rng.random() < 0.5:  # mirrored across the y axis instead
            pts, p, q = [P(t.y, t.x) for t in pts], P(p.y, p.x), P(q.y, q.x)
        rng.shuffle(pts)
        cases.append((pts, p, q))
    return cases


class TestSecAgainstReference:
    """`smallest_enclosing_circle` squares each point once and computes the
    radius of the winning circumcircles only: it gives the reference's
    centre and radius to the last bit."""

    def test_two_boundary_step_matches_the_reference(self):
        def square(t):
            return (t.x, t.y, t.x * t.x + t.y * t.y)

        hits = collections.Counter()
        for pts, p, q in _two_boundary_cases():
            got = _sec_two_boundary([square(t) for t in pts], len(pts), square(p), square(q))
            want = _reference_sec_two_boundary([(t.x, t.y) for t in pts], len(pts), p.x, p.y, q.x, q.y, hits)
            assert tuple(v.hex() for v in got) == tuple(v.hex() for v in want), (pts, p, q)
        # Radius ties come up, so the rule that `left` wins one is compared.
        assert hits["tie"] > 0

    def test_bits_match_the_reference(self):
        hits = collections.Counter()
        for pts in _sec_reference_cases():
            c = smallest_enclosing_circle(pts)
            want = reference_smallest_enclosing_circle(pts, hits)
            assert (c.center.x.hex(), c.center.y.hex(), c.radius.hex()) == tuple(v.hex() for v in want), pts
        # The nearly collinear skip is reached, so that branch is compared too.
        assert hits["collinear"] > 0


# ---------------------------------------------------------------------------
# The SEC resumed from a memo
# ---------------------------------------------------------------------------


def _memo_world(kind, n, rng):
    """n Points of one kind, and the move that gives one of them a new place:
    a random disc; a formation of n targets moved by 1e-9; or a set mirrored
    across the x axis at a scale of 2e-9..1e-6 with EPS-sized offsets, whose
    left and right circumcircles tie."""
    if kind == "disc":
        spread = rng.choice((3.0, 3.0 * n, 1e3))

        def move(p):
            r, ang = spread * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
            return P(r * math.cos(ang), r * math.sin(ang))

        return [move(None) for _ in range(n)], move
    if kind == "formation":
        radius = 3.5 / (2.0 * math.sin(math.pi / max(n, 2)))
        c = P(rng.uniform(-50, 50), rng.uniform(-50, 50))
        angles = [math.pi / 2.0 - 2.0 * math.pi * i / n for i in range(n)]
        world = [P(c.x + radius * math.cos(a), c.y + radius * math.sin(a)) for a in angles]
        return world, lambda p: P(p.x + rng.choice((-1e-9, 1e-9)), p.y + rng.choice((-1e-9, 0.0, 1e-9)))
    scale = rng.choice((2e-9, 1e-8, 1e-7, 1e-6))

    def nudge():
        return rng.choice((0.0, 0.0, -EPS, EPS, rng.uniform(-EPS, EPS)))

    half = [(rng.uniform(-scale, scale), rng.uniform(0.1 * scale, scale)) for _ in range((n - 1) // 2)]
    world = [P(-scale, 0.0), P(scale, 0.0)][: n - 2 * len(half)]
    world += [P(x, y + nudge()) for x, y in half] + [P(x, -y + nudge()) for x, y in half]
    rng.shuffle(world)
    return world, lambda p: P(p.x + nudge(), p.y + nudge())


def _sec_bits(c):
    return (c.center.x.hex(), c.center.y.hex(), c.radius.hex())


@pytest.mark.parametrize("kind", ["disc", "formation", "eps-tie"])
def test_sec_resumed_from_a_memo_is_the_fresh_one(kind):
    """Chains of calls share one memo. Each call is a robot's look, its own
    Point first and the others in index order; between calls a random subset
    of Points is swapped for new objects: moved, of equal value, or the
    `-0.0` twin of a zero. Each circle is the fresh one to the last bit, and
    the memo never holds more than 2n entries."""
    rng = random.Random(f"sec-memo:{kind}")
    sizes = (4, 5) if kind == "eps-tie" else (1, 2, 3, 8, 20, 50)
    resumed = 0
    for n in sizes:
        for _ in range(36 // len(sizes)):
            world, move = _memo_world(kind, n, rng)
            memo = {}
            for _ in range(40):
                for j in rng.sample(range(n), rng.randint(0, min(n, 3))):
                    p = world[j]
                    world[j] = rng.choice(
                        [
                            move(p),
                            P(p.x, p.y),
                            P(-p.x if p.x == 0.0 else p.x, -p.y if p.y == 0.0 else p.y),
                            P(rng.choice((0.0, -0.0)), p.y),
                        ]
                    )
                i = rng.randrange(min(n, 3))
                points = [world[i], *world[:i], *world[i + 1 :]]
                entry = memo.get(id(points[0]))
                if entry is not None:
                    visited = [points[k] for k in _sec_order(n)]
                    same = next((k for k, p in enumerate(visited) if p is not entry[0][k]), n)
                    resumed += 0 < same < n
                got = smallest_enclosing_circle(points, memo)
                assert _sec_bits(got) == _sec_bits(smallest_enclosing_circle(points)), points
                assert len(memo) <= 2 * n
    # Calls that resume part way through the visiting order.
    assert resumed > 200
