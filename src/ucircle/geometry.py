"""Planar geometry primitives shared by the formation algorithms.

Robots are closed unit discs identified by their centers, so clearance
thresholds below combine a region radius with the unit body radius.
All predicates share the single tolerance EPS. The target layout of the
uniform circle, shared by both algorithms, lives here too.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from itertools import combinations, compress, count
from typing import Iterable, Sequence

EPS = 1e-9

UNIT_BODY_RADIUS = 1.0
# Center distance that keeps the closed radius-2 region around a target
# free of every unit robot disc.
VACANCY_CLEARANCE = 2.0 + UNIT_BODY_RADIUS


class GeometryError(ValueError):
    pass


@dataclass(frozen=True, slots=True, init=False)
class Point:
    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        # Stored through the slots: the `__init__` a frozen dataclass writes
        # stores each field through `object.__setattr__`, which is slower.
        _point_x(self, x)
        _point_y(self, y)

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


_point_x, _point_y = Point.x.__set__, Point.y.__set__
ORIGIN = Point(0.0, 0.0)


def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def dot(p: Point, q: Point) -> float:
    return p.x * q.x + p.y * q.y


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


@dataclass(frozen=True, slots=True, init=False)
class MotionSegment:
    """Constant-velocity motion from start (at t0) to end (reached at t1)."""

    start: Point
    end: Point
    t0: float
    t1: float

    def __init__(self, start: Point, end: Point, t0: float, t1: float) -> None:
        if t1 < t0:
            raise GeometryError("motion segment with t1 < t0")
        _segment_start(self, start)
        _segment_end(self, end)
        _segment_t0(self, t0)
        _segment_t1(self, t1)

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


_segment_start, _segment_end = MotionSegment.start.__set__, MotionSegment.end.__set__
_segment_t0, _segment_t1 = MotionSegment.t0.__set__, MotionSegment.t1.__set__


# ---------------------------------------------------------------------------
# Target layout of the uniform circle
# ---------------------------------------------------------------------------


@functools.cache
def _target_directions(n: int) -> tuple[tuple[float, float], ...]:
    """(cos, sin) of each target's angle on a circle of n targets."""
    angles = (math.pi / 2.0 - 2.0 * math.pi * i / n for i in range(n))
    return tuple((math.cos(a), math.sin(a)) for a in angles)


def compute_target_points(n: int, circle: Circle) -> tuple[Point, ...]:
    """n equally spaced points on circle, the first at the top (max Y).

    Each is `circle.point_at_angle(pi/2 - 2*pi*i/n)`, bit for bit."""
    cx, cy, r = circle.center.x, circle.center.y, circle.radius
    return tuple(Point(cx + r * c, cy + r * s) for c, s in _target_directions(n))


def target_index(theta: float, n: int) -> int:
    """The target nearest in angle to direction theta: the only one that
    can pass a "sits on a target" test, as targets lie 2*pi/n apart."""
    return round((math.pi / 2.0 - theta) / (2.0 * math.pi / n)) % n


def fills_targets(
    positions: Iterable[Point], targets: Sequence[Point], center: Point, tol: float
) -> bool:
    """True when each position sits within tol of its own target of the
    layout around center, and every target is taken."""
    n = len(targets)
    taken: set[int] = set()
    for p in positions:
        i = target_index(angle_of(p, center), n)
        if i in taken or dist(p, targets[i]) > tol:
            return False
        taken.add(i)
    return len(taken) == n


# ---------------------------------------------------------------------------
# Smallest enclosing circle
# ---------------------------------------------------------------------------


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


@functools.cache
def _sec_order(n: int) -> tuple[int, ...]:
    """The order in which the incremental SEC visits n points.

    Fixed-seed shuffle: the result is unique, shuffling only helps runtime.
    A shuffle's swaps depend only on the list's length, so this one index
    order serves every call with n points.
    """
    order = list(range(n))
    random.Random(0x5EC0).shuffle(order)
    return tuple(order)


def smallest_enclosing_circle(points: Sequence[Point], memo: dict | None = None) -> Circle:
    """Minimum-radius circle enclosing all points (incremental construction).

    The result is bit for bit that of the construction from `dist`,
    `_circle_from_two` and `circumcircle`. It runs on plain floats, with the
    enclose test `dist(center, p) <= r + EPS`, the diameter circle of two
    points and the circumcircle of three written out in the same
    expressions. Each point's `x*x + y*y` is computed once, and a
    circumcircle's radius only for the two circles that can win.

    The circle after visiting step i depends only on the first i + 1 points
    visited. `memo` (a dict owned by the caller, or None) keeps, per first
    point `points[0]`, the Points visited last time, their `(x, y, x*x +
    y*y)` and the circle after each step; a call resumes after the longest
    prefix whose Points are the same objects (identity, never equality: 0.0
    == -0.0). It holds at most 2n entries, the least recently used going
    first. Without a memo the same loop runs from step 0.
    """
    n = len(points)
    if not n:
        raise GeometryError("smallest_enclosing_circle: empty point set")
    visited = [points[k] for k in _sec_order(n)]
    key = id(points[0])
    was, pts, circles = (memo is not None and memo.pop(key, None)) or ((), [], [])
    # The first step at which a new Point object is visited.
    start = next(compress(count(), map(operator.is_not, visited, was)), min(n, len(was)))
    del pts[start:], circles[start:]
    pts += [(p.x, p.y, p.x * p.x + p.y * p.y) for p in visited[start:]]
    hypot = math.hypot
    cx, cy, r = circles[-1] if circles else (pts[0][0], pts[0][1], 0.0)
    reach = r + EPS
    for i in range(start, n):
        p = pts[i]
        px, py, _ = p
        if not hypot(cx - px, cy - py) <= reach:
            # The smallest circle of pts[: i + 1] with p on its boundary.
            cx, cy, r = px, py, 0.0
            reach = r + EPS
            for j in range(i + 1):
                q = pts[j]
                qx, qy, _ = q
                if hypot(cx - qx, cy - qy) <= reach:
                    continue
                if r == 0.0:
                    cx, cy, r = (px + qx) / 2.0, (py + qy) / 2.0, hypot(px - qx, py - qy) / 2.0
                else:
                    cx, cy, r = _sec_two_boundary(pts, j + 1, p, q)
                reach = r + EPS
        circles.append((cx, cy, r))
    if memo is not None:
        memo[key] = (visited, pts, circles)
        if len(memo) > 2 * n:
            del memo[next(iter(memo))]
    return Circle(Point(cx, cy), r)


def _sec_two_boundary(
    pts: Sequence[tuple[float, float, float]],
    m: int,
    p: tuple[float, float, float],
    q: tuple[float, float, float],
) -> tuple[float, float, float]:
    """(cx, cy, r) of the smallest circle of pts[:m] with p and q on its
    boundary. Each point is (x, y, x*x + y*y)."""
    hypot = math.hypot
    px, py, an = p
    qx, qy, bn = q
    mx, my, mr = (px + qx) / 2.0, (py + qy) / 2.0, hypot(px - qx, py - qy) / 2.0
    pqx, pqy, m_reach = qx - px, qy - py, mr + EPS
    # The circumcircles through p, q and a point left (right) of pq whose
    # centre lies furthest left (right) of pq: (offset, cx, cy, x, y) with
    # (x, y) that third point.
    left: tuple[float, float, float, float, float] | None = None
    right: tuple[float, float, float, float, float] | None = None
    for k in range(m):
        rx, ry, cn = pts[k]
        if hypot(mx - rx, my - ry) <= m_reach:
            continue
        d = 2.0 * (px * (qy - ry) + qx * (ry - py) + rx * (py - qy))
        if abs(d) < 1e-14:
            continue
        ux = (an * (qy - ry) + bn * (ry - py) + cn * (py - qy)) / d
        uy = (an * (rx - qx) + bn * (px - rx) + cn * (qx - px)) / d
        side = pqx * (ry - py) - pqy * (rx - px)
        off = pqx * (uy - py) - pqy * (ux - px)
        if side > 0.0 and (left is None or off > left[0]):
            left = (off, ux, uy, rx, ry)
        elif side < 0.0 and (right is None or off < right[0]):
            right = (off, ux, uy, rx, ry)
    if left is None:  # at most one winner: call it `left`
        left, right = right, None
    if left is None:
        return mx, my, mr
    # A winner's radius is `circumcircle`'s: the largest distance from its
    # centre to its three points. `left` wins a tie.
    _, cx, cy, rx, ry = left
    r = max(hypot(cx - px, cy - py), hypot(cx - qx, cy - qy), hypot(cx - rx, cy - ry))
    if right is not None:
        _, ux, uy, rx, ry = right
        ur = max(hypot(ux - px, uy - py), hypot(ux - qx, uy - qy), hypot(ux - rx, uy - ry))
        if not r <= ur:
            return ux, uy, ur
    return cx, cy, r


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
    # On plain floats: `unit_toward`, `dot` and `cross` written out.
    sx, sy = src.x, src.y
    ux, uy = (dst.x - sx) / length, (dst.y - sy) / length
    # The obstacle's distance past either end of the corridor (dx) and
    # beyond its half-width (dy): `max(0.0, -s, s - length)` and
    # `max(0.0, t - UNIT_BODY_RADIUS)`, written as comparisons.
    hypot, reach = math.hypot, UNIT_BODY_RADIUS + EPS
    for ob in obstacles:
        wx, wy = ob.x - sx, ob.y - sy
        s = wx * ux + wy * uy
        t = abs(ux * wy - uy * wx)
        dx = -s if s < 0.0 else s - length if s > length else 0.0
        dy = t - UNIT_BODY_RADIUS if t > UNIT_BODY_RADIUS else 0.0
        if hypot(dx, dy) <= reach:
            return False
    return True


def is_vacant_target(p: Point, robot_centers: Iterable[Point]) -> bool:
    """True iff no part of any robot disc lies in the closed radius-2 disc around p."""
    # `all(dist(p, r) > VACANCY_CLEARANCE + EPS ...)`, written out.
    hypot, px, py, reach = math.hypot, p.x, p.y, VACANCY_CLEARANCE + EPS
    for r in robot_centers:
        if not hypot(px - r.x, py - r.y) > reach:
            return False
    return True


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

