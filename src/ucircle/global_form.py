"""Uniform circle formation with unlimited visibility.

Robots share only the Y-axis direction (snapshots may be mirrored in X),
see every other robot, and run under a semi-synchronous scheduler. The
algorithm has two phases, dispatched by `global_step`:

  1. expansion: while the smallest enclosing circle (SEC) of the robots is
     tighter than the required radius, an elected leader moves outward to
     grow it,
  2. formation: once the SEC is large enough, robots walk one at a time
     onto n equally spaced target points on the SEC.

Everything here is a pure function of one robot's snapshot, so the robots
stay oblivious and anonymous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import (
    EPS,
    Circle,
    Point,
    angle_of,
    dist,
    distance_point_to_segment,
    is_free_path,
    is_vacant_target,
    on_distinct_points,
    smallest_enclosing_circle,
    unit_toward,
)
from .simcore import Action, Snapshot, move_to

ON_SEC_EPS = 1e-9
# Targets recomputed in different local frames agree only to ~1e-9 (SEC
# arithmetic), so "on a target" must be judged with slack above that.
SETTLE_TOL = 1e-7
ANTIPODE_TOL = 1e-7
# The SEC radius of points reconstructed from an expansion move carries a few
# ulps of error, so the phase switch needs a tolerance well above 1e-9.
PHASE_TOL = 1e-7
ENDPOINT_CLEARANCE = 2.05
MAX_ARC_STEP = math.pi / 6  # largest central angle walked along the SEC per cycle
DETOUR_CLEARANCE = 2.05  # center-to-center clearance when stepping around a blocker

TAG_EXPAND = "expand"
TAG_FORM = "form"
TAG_NO_LEADER = "no-leader"


@dataclass(frozen=True, slots=True)
class GlobalParams:
    n: int
    a: float
    rad_req: float

    @staticmethod
    def make(n: int, a: float) -> "GlobalParams":
        return GlobalParams(n=n, a=a, rad_req=compute_radius(a, n))


@dataclass(frozen=True, slots=True)
class SymmetryCase:
    kind: str  # "case1" | "case2" | "no-leader"
    leaders: tuple[Point, ...]


def compute_radius(a: float, n: int) -> float:
    """Smallest circle radius placing n points at adjacent chord distance a.

    Requires n > 1 and a > 3 (unit-disc robots need chord clearance).
    """
    if n <= 1:
        raise ValueError(f"need at least two robots, got n={n}")
    if a <= 3:
        raise ValueError(f"adjacent distance must exceed 3, got a={a}")
    return a / (2.0 * math.sin(math.pi / n))


def compute_target_points(n: int, sec: Circle) -> tuple[Point, ...]:
    """n equally spaced points on sec, the first at the top (max Y)."""
    return tuple(
        sec.point_at_angle(math.pi / 2.0 - 2.0 * math.pi * i / n) for i in range(n)
    )


def _mirror_x(p: Point, axis_x: float) -> Point:
    return Point(2.0 * axis_x - p.x, p.y)


def _is_mirror_symmetric(points: Sequence[Point], axis_x: float, tol: float) -> bool:
    remaining = list(points)
    for p in points:
        m = _mirror_x(p, axis_x)
        best_i, best_d = -1, tol
        for i, q in enumerate(remaining):
            d = dist(m, q)
            if d <= best_d:
                best_i, best_d = i, d
        if best_i < 0:
            return False
        remaining.pop(best_i)
    return True


def detect_symmetry(on_sec: Sequence[Point], sec: Circle) -> SymmetryCase:
    """Elect the leader(s) among the on-SEC robots.

    The vertical line L through the SEC center splits the candidates; robots
    lying on L are never leaders. A mirror-symmetric configuration yields two
    leaders (the top mirror pair), an asymmetric one a single leader, and a
    configuration with no off-L candidate yields no leader at all.
    """
    if not on_sec:
        raise ValueError("detect_symmetry needs at least one on-SEC point")
    ax = sec.center.x
    tol = max(1e-9, 1e-9 * sec.radius)
    candidates = [p for p in on_sec if abs(p.x - ax) > tol]
    if not candidates:
        return SymmetryCase("no-leader", ())
    if _is_mirror_symmetric(on_sec, ax, tol):
        # Top mirror pair among the candidates.
        best = min(candidates, key=lambda p: (-p.y, abs(p.x - ax)))
        mate = _mirror_x(best, ax)
        pair = min(candidates, key=lambda p: dist(p, mate))
        if dist(pair, mate) <= tol:
            left, right = sorted((best, pair), key=lambda p: p.x)
            return SymmetryCase("case2", (left, right))
        return SymmetryCase("no-leader", ())
    best_key = min((-p.y, abs(p.x - ax)) for p in candidates)
    tied = [
        p
        for p in candidates
        if abs(-p.y - best_key[0]) <= tol and abs(abs(p.x - ax) - best_key[1]) <= tol
    ]
    if len(tied) == 1:
        return SymmetryCase("case1", (tied[0],))
    # Exact (y, |x|) tie between mirror twins in an asymmetric configuration:
    # an x-sign tie-break would flip with each robot's handedness, so use the
    # handedness-free profile of distances to the other boundary robots.
    def profile(p: Point) -> tuple[float, ...]:
        return tuple(sorted(dist(p, q) for q in on_sec if q is not p))

    tied.sort(key=profile)
    if profile(tied[0]) != profile(tied[1]):
        return SymmetryCase("case1", (tied[0],))
    return SymmetryCase("no-leader", ())


def _all_points(snapshot: Snapshot) -> list[Point]:
    return [snapshot.self_pos, *snapshot.others]


def _on_sec(p: Point, sec: Circle) -> bool:
    return abs(dist(p, sec.center) - sec.radius) <= ON_SEC_EPS * max(1.0, sec.radius)


def _path_ok(src: Point, dst: Point, obstacles: Sequence[Point]) -> bool:
    """Free corridor plus clearance at the destination itself.

    The corridor test alone lets an obstacle sit diagonally past the end of
    the rectangle, closer than two units to the arrival point.
    """
    if any(dist(o, dst) < ENDPOINT_CLEARANCE for o in obstacles):
        return False
    return is_free_path(src, dst, obstacles)


def _expansion_move(points: Sequence[Point], leader: Point, sec: Circle, params: GlobalParams) -> tuple[Point, Point]:
    """Resolve one leader's expansion: returns (mover, destination)."""
    c = sec.center
    antipode = Point(2.0 * c.x - leader.x, 2.0 * c.y - leader.y)
    occupied = any(dist(p, antipode) <= ANTIPODE_TOL for p in points if p is not leader)
    if occupied:
        d_r = 2.0 * (params.rad_req - sec.radius)
        dest = leader + unit_toward(c, leader).scaled(d_r)
        return leader, dest
    r_f = max(
        (p for p in points if p is not leader),
        key=lambda p: (dist(p, leader), p.y, p.x),
    )
    q = r_f + unit_toward(r_f, c).scaled(2.0 * params.rad_req)
    obstacles = [p for p in points if p is not leader]
    if _path_ok(leader, q, obstacles):
        return leader, q
    # Leader blocked: the robot nearest to q with a free path moves instead.
    best: Optional[Point] = None
    for p in points:
        if _path_ok(p, q, [o for o in points if o is not p]):
            if best is None or (dist(p, q), -p.y, p.x) < (dist(best, q), -best.y, best.x):
                best = p
    if best is None:
        return leader, leader  # fully boxed in; wait
    return best, q


def sec_expansion(snapshot: Snapshot, params: GlobalParams, sec: Circle) -> Action:
    """Grow the snapshot's SEC `sec` toward the required radius, one robot per cycle."""
    points = _all_points(snapshot)
    me = snapshot.self_pos
    sym = detect_symmetry([p for p in points if _on_sec(p, sec)], sec)
    if sym.kind == "no-leader":
        return Action("stay", tag=TAG_NO_LEADER)
    tol = max(1e-9, 1e-9 * sec.radius)
    for leader in sym.leaders:
        mover, dest = _expansion_move(points, leader, sec, params)
        if dist(mover, me) <= tol and dist(dest, me) > EPS:
            return move_to(dest, tag=TAG_EXPAND)
    return Action("stay", tag=TAG_EXPAND)


def _settled(p: Point, targets: Sequence[Point]) -> bool:
    return any(dist(p, t) <= SETTLE_TOL for t in targets)


def _approach_metric(r: Point, t: Point, sec: Circle) -> float:
    """Arc distance for robots on the SEC boundary, chord distance otherwise."""
    if _on_sec(r, sec):
        da = abs(angle_of(r - sec.center) - angle_of(t - sec.center))
        da = min(da, 2.0 * math.pi - da)
        return da * sec.radius
    return dist(r, t)


def _select_mover(
    target: Point,
    movers: Sequence[Point],
    sec: Circle,
    is_top_target: bool,
) -> Optional[Point]:
    if not movers:
        return None
    dists = [(_approach_metric(r, target, sec), r) for r in movers]
    best = min(d for d, _ in dists)
    tied = [r for d, r in dists if d <= best + 1e-9]
    if len(tied) == 1:
        return tied[0]
    if is_top_target:
        return None  # contested top target: nobody moves this cycle
    return max(tied, key=lambda r: (r.y, r.x))


def _arc_step(me: Point, target: Point, sec: Circle, others: Sequence[Point]) -> Point:
    """Walk along the SEC toward target in bounded chordal steps."""
    a_me = angle_of(me - sec.center)
    a_t = angle_of(target - sec.center)
    diff = math.remainder(a_t - a_me, 2.0 * math.pi)
    if abs(diff) <= 1e-12:
        return target
    step = math.copysign(min(MAX_ARC_STEP, abs(diff)), diff)
    for frac in (1.0, 0.5, 0.25):
        ang = step * frac
        dest = target if abs(ang - diff) <= 1e-12 else sec.point_at_angle(a_me + ang)
        if _path_ok(me, dest, others):
            return dest
    return me


def _straight_step(me: Point, target: Point, others: Sequence[Point]) -> Point:
    if _path_ok(me, target, others):
        return target
    blockers = [o for o in others if distance_point_to_segment(o, me, target) <= 2.0 + EPS]
    if len(blockers) != 1:
        return me
    b = blockers[0]
    u = unit_toward(me, target)
    perp = Point(-u.y, u.x)
    for side in (1.0, -1.0):
        w = b + perp.scaled(side * DETOUR_CLEARANCE)
        if _path_ok(me, w, others):
            return w
    return me


def form_ucircle(snapshot: Snapshot, params: GlobalParams, sec: Circle) -> Action:
    """Move robots onto the n targets of the snapshot's SEC `sec`, top vacant first."""
    points = _all_points(snapshot)
    me = snapshot.self_pos
    targets = compute_target_points(params.n, sec)
    if _settled(me, targets):
        return Action("stay", tag=TAG_FORM)
    movers = [p for p in points if not _settled(p, targets)]
    vacant = [t for t in targets if is_vacant_target(t, points)]
    crowded = [
        t
        for t in targets
        if t not in vacant and all(dist(p, t) > SETTLE_TOL for p in points)
    ]
    top = targets[0]
    # Highest vacant target first, crowded ones after, cascading downward so
    # that a contested or blocked candidate never stalls the whole formation.
    # Mirror-tied targets within a tier are considered together.
    ordered = sorted(vacant, key=lambda t: (-t.y, abs(t.x - sec.center.x)))
    ordered += sorted(crowded, key=lambda t: (-t.y, abs(t.x - sec.center.x)))
    n_vacant = len(vacant)
    idx = 0
    while idx < len(ordered):
        group = [ordered[idx]]
        j = idx + 1
        while (
            j < len(ordered)
            and (j < n_vacant) == (idx < n_vacant)
            and abs(ordered[j].y - ordered[idx].y) <= 1e-9
        ):
            group.append(ordered[j])
            j += 1
        chosen: list[tuple[Point, Point]] = []
        for t in group:
            mover = _select_mover(t, movers, sec, dist(t, top) <= 1e-9)
            if mover is None:
                continue
            if dist(_move_step(mover, t, points, sec), mover) > EPS:
                chosen.append((t, mover))
        if chosen:
            mine = [t for t, m in chosen if dist(m, me) <= 1e-9]
            if not mine:
                return Action("stay", tag=TAG_FORM)
            # Nearest to several tied targets: prefer the rightward one in the
            # robot's own frame (both mirror choices are safe).
            t = max(mine, key=lambda p: (p.y, p.x))
            dest = _move_step(me, t, points, sec)
            if dist(dest, me) <= EPS:
                return Action("stay", tag=TAG_FORM)
            return move_to(dest, tag=TAG_FORM)
        idx = j
    return Action("stay", tag=TAG_FORM)


def _move_step(mover: Point, target: Point, points: Sequence[Point], sec: Circle) -> Point:
    """World step a given robot would take toward target (or itself).

    Full move in one cycle when the chord is clear: stopping short of the
    target would make it look occupied next cycle and re-route the mover
    back and forth. A blocked chord falls back to short boundary arc hops.
    """
    others = [p for p in points if p is not mover]
    dest = _straight_step(mover, target, others)
    if dist(dest, mover) <= EPS and _on_sec(mover, sec):
        dest = _arc_step(mover, target, sec, others)
    return dest


def global_step(snapshot: Snapshot, params: GlobalParams) -> Action:
    """Dispatch between the expansion and formation phases."""
    points = _all_points(snapshot)
    sec = smallest_enclosing_circle(points)
    if sec.radius < params.rad_req - PHASE_TOL:
        return sec_expansion(snapshot, params, sec)
    return form_ucircle(snapshot, params, sec)


def make_global_algorithm(params: GlobalParams):
    def algo(snapshot: Snapshot) -> Action:
        return global_step(snapshot, params)

    return algo


def is_formed(positions: Sequence[Point], params: GlobalParams, tol: float = 1e-6) -> bool:
    """True when every robot sits on a distinct target point of the SEC."""
    sec = smallest_enclosing_circle(list(positions))
    if sec.radius < params.rad_req - tol:
        return False
    return on_distinct_points(positions, compute_target_points(params.n, sec), tol)
