"""Planar geometry primitives shared by the formation algorithms.

Robots are closed unit discs identified by their centers, so clearance
thresholds below combine a region radius with the unit body radius.
All predicates share the single tolerance EPS.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

EPS = 1e-9

UNIT_BODY_RADIUS = 1.0
# Center distance that keeps the closed radius-2 region around a target
# free of every unit robot disc.
VACANCY_CLEARANCE = 2.0 + UNIT_BODY_RADIUS


class GeometryError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


ORIGIN = Point(0.0, 0.0)


def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def dot(p: Point, q: Point) -> float:
    return p.x * q.x + p.y * q.y


def cross(p: Point, q: Point) -> float:
    return p.x * q.y - p.y * q.x


def unit_toward(src: Point, dst: Point) -> Point:
    d = dist(src, dst)
    if d <= 1e-15:
        raise GeometryError("unit_toward: coincident points")
    return Point((dst.x - src.x) / d, (dst.y - src.y) / d)


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def angle_of(p: Point, center: Point = ORIGIN) -> float:
    return math.atan2(p.y - center.y, p.x - center.x)


@dataclass(frozen=True, slots=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise GeometryError(f"negative circle radius {self.radius}")

    def point_at_angle(self, theta: float) -> Point:
        return Point(
            self.center.x + self.radius * math.cos(theta),
            self.center.y + self.radius * math.sin(theta),
        )


@dataclass(frozen=True, slots=True)
class MotionSegment:
    """Constant-velocity motion from start (at t0) to end (reached at t1)."""

    start: Point
    end: Point
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise GeometryError("motion segment with t1 < t0")

    def velocity(self) -> Point:
        dur = self.t1 - self.t0
        if dur <= 0.0:
            return Point(0.0, 0.0)
        return Point((self.end.x - self.start.x) / dur, (self.end.y - self.start.y) / dur)

    def position_at(self, t: float) -> Point:
        if t <= self.t0:
            return self.start
        if t >= self.t1:
            return self.end
        f = (t - self.t0) / (self.t1 - self.t0)
        return Point(
            self.start.x + f * (self.end.x - self.start.x),
            self.start.y + f * (self.end.y - self.start.y),
        )


# ---------------------------------------------------------------------------
# Smallest enclosing circle
# ---------------------------------------------------------------------------


def _encloses(c: Circle, p: Point) -> bool:
    return dist(c.center, p) <= c.radius + EPS


def _circle_from_two(p: Point, q: Point) -> Circle:
    return Circle(midpoint(p, q), dist(p, q) / 2.0)


def circumcircle(a: Point, b: Point, c: Point) -> Circle | None:
    """Circle through three points, or None when (nearly) collinear."""
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if abs(d) < 1e-14:
        return None
    an, bn, cn = a.x * a.x + a.y * a.y, b.x * b.x + b.y * b.y, c.x * c.x + c.y * c.y
    ux = (an * (b.y - c.y) + bn * (c.y - a.y) + cn * (a.y - b.y)) / d
    uy = (an * (c.x - b.x) + bn * (a.x - c.x) + cn * (b.x - a.x)) / d
    center = Point(ux, uy)
    return Circle(center, max(dist(center, a), dist(center, b), dist(center, c)))


def smallest_enclosing_circle(points: Iterable[Point]) -> Circle:
    """Minimum-radius circle enclosing all points (incremental construction)."""
    pts = list(points)
    if not pts:
        raise GeometryError("smallest_enclosing_circle: empty point set")
    # Fixed-seed shuffle: the result is unique, shuffling only helps runtime.
    random.Random(0x5EC0).shuffle(pts)
    c: Circle | None = None
    for i, p in enumerate(pts):
        if c is None or not _encloses(c, p):
            c = _sec_one_boundary(pts[: i + 1], p)
    assert c is not None
    return c


def _sec_one_boundary(pts: Sequence[Point], p: Point) -> Circle:
    c = Circle(p, 0.0)
    for i, q in enumerate(pts):
        if not _encloses(c, q):
            c = _circle_from_two(p, q) if c.radius == 0.0 else _sec_two_boundary(pts[: i + 1], p, q)
    return c


def _sec_two_boundary(pts: Sequence[Point], p: Point, q: Point) -> Circle:
    circ = _circle_from_two(p, q)
    left: Circle | None = None
    right: Circle | None = None
    pq = q - p
    for r in pts:
        if _encloses(circ, r):
            continue
        c3 = circumcircle(p, q, r)
        if c3 is None:
            continue
        side = cross(pq, r - p)
        off = cross(pq, c3.center - p)
        if side > 0.0 and (left is None or off > cross(pq, left.center - p)):
            left = c3
        elif side < 0.0 and (right is None or off < cross(pq, right.center - p)):
            right = c3
    if left is None:
        return circ if right is None else right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def smallest_enclosing_circle_bruteforce(points: Iterable[Point]) -> Circle:
    """O(n^4) enumerator over pair-diameter and triple-circumscribed circles.

    Independent cross-check for the incremental construction; also exposed
    through the CLI oracle subcommand.
    """
    pts = list(points)
    if not pts:
        raise GeometryError("smallest_enclosing_circle_bruteforce: empty point set")
    if len(pts) == 1:
        return Circle(pts[0], 0.0)

    def contains_all(c: Circle) -> bool:
        tol = EPS * (1.0 + c.radius)
        return all(dist(c.center, p) <= c.radius + tol for p in pts)

    best: Circle | None = None
    for a, b in combinations(pts, 2):
        c = _circle_from_two(a, b)
        if contains_all(c) and (best is None or c.radius < best.radius):
            best = c
    for a, b, c3 in combinations(pts, 3):
        cc = circumcircle(a, b, c3)
        if cc is not None and contains_all(cc) and (best is None or cc.radius < best.radius):
            best = cc
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Path / vacancy predicates
# ---------------------------------------------------------------------------


def distance_point_to_segment(p: Point, a: Point, b: Point) -> float:
    ab = b - a
    denom = dot(ab, ab)
    if denom <= 1e-30:
        return dist(p, a)
    t = max(0.0, min(1.0, dot(p - a, ab) / denom))
    proj = Point(a.x + t * ab.x, a.y + t * ab.y)
    return dist(p, proj)


def is_free_path(src: Point, dst: Point, obstacles: Iterable[Point]) -> bool:
    """True iff no obstacle disc meets the closed corridor rectangle src->dst.

    The corridor is the strip a unit disc sweeps, so its half-width is the
    body radius. The rectangle is closed, so a disc exactly grazing the
    corridor edge blocks it (conservative).
    """
    length = dist(src, dst)
    if length <= 1e-15:
        return all(dist(src, ob) > 2.0 * UNIT_BODY_RADIUS + EPS for ob in obstacles)
    u = unit_toward(src, dst)
    for ob in obstacles:
        w = ob - src
        s = dot(w, u)
        t = abs(cross(u, w))
        dx = max(0.0, -s, s - length)
        dy = max(0.0, t - UNIT_BODY_RADIUS)
        if math.hypot(dx, dy) <= UNIT_BODY_RADIUS + EPS:
            return False
    return True


def is_vacant_target(p: Point, robot_centers: Iterable[Point]) -> bool:
    """True iff no part of any robot disc lies in the closed radius-2 disc around p."""
    return all(dist(p, r) > VACANCY_CLEARANCE + EPS for r in robot_centers)


def on_distinct_points(
    positions: Iterable[Point], targets: Sequence[Point], tol: float
) -> bool:
    """True when each position sits within tol of its own target and every
    target is taken. Each position takes the first free target in reach."""
    taken = [False] * len(targets)
    for p in positions:
        hit = -1
        for i, t in enumerate(targets):
            if not taken[i] and dist(p, t) <= tol:
                hit = i
                break
        if hit < 0:
            return False
        taken[hit] = True
    return all(taken)


# ---------------------------------------------------------------------------
# Motion
# ---------------------------------------------------------------------------


def min_pairwise_distance(points: Sequence[Point]) -> float:
    """Smallest center-center distance over all pairs; +inf below two points."""
    return min((dist(p, q) for p, q in combinations(points, 2)), default=math.inf)


def min_separation_during_motion(m1: MotionSegment, m2: MotionSegment) -> float:
    """Exact minimum center-center distance over the overlap of the intervals.

    Returns +inf when the intervals do not overlap.
    """
    a = max(m1.t0, m2.t0)
    b = min(m1.t1, m2.t1)
    if a > b:
        return math.inf
    p = m1.position_at(a) - m2.position_at(a)
    v = m1.velocity() - m2.velocity()
    span = b - a
    best = p.norm()
    if span > 0.0:
        end = Point(p.x + v.x * span, p.y + v.y * span)
        best = min(best, end.norm())
        vv = dot(v, v)
        if vv > 0.0:
            s = -dot(p, v) / vv
            if 0.0 < s < span:
                mid = Point(p.x + v.x * s, p.y + v.y * s)
                best = min(best, mid.norm())
    return best

