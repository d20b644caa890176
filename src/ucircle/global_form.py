"""Uniform circle formation with unlimited visibility.

Robots share only the Y-axis direction (snapshots may be mirrored in X),
see every other robot, and run under a semi-synchronous scheduler. The
algorithm has two phases, dispatched by `global_step`:

  1. expansion: while the smallest enclosing circle (SEC) of the robots is
     tighter than the required radius, an elected leader moves outward to
     grow it,
  2. formation: once the SEC is large enough, robots walk one at a time
     onto n equally spaced target points on the SEC.

The target layout (`compute_target_points`, `target_index`) lives in
`geometry`, shared with the limited-visibility algorithm.

Everything here is a pure function of one robot's snapshot, so the robots
stay oblivious and anonymous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .geometry import (
    EPS,
    Circle,
    Point,
    _target_directions,
    angle_of,
    compute_target_points,
    dist,
    distance_point_to_segment,
    fills_targets,
    is_free_path,
    is_vacant_target,
    smallest_enclosing_circle,
    unit_toward,
)
from .simcore import Action, Snapshot

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

# A robot still to be seated: its position, its angle from the SEC center
# and whether it lies on the SEC.
Mover = tuple[Point, float, bool]


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


def _on_sec(p: Point, sec: Circle) -> bool:
    return abs(dist(p, sec.center) - sec.radius) <= ON_SEC_EPS * max(1.0, sec.radius)


def _path_ok(src: Point, dst: Point, obstacles: Sequence[Point]) -> bool:
    """Free corridor plus clearance at the destination itself.

    The corridor test alone lets an obstacle sit diagonally past the end of
    the rectangle, closer than two units to the arrival point.
    """
    # `any(dist(o, dst) < ENDPOINT_CLEARANCE ...)`, written out.
    hypot, qx, qy = math.hypot, dst.x, dst.y
    for o in obstacles:
        if hypot(o.x - qx, o.y - qy) < ENDPOINT_CLEARANCE:
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


def sec_expansion(points: Sequence[Point], params: GlobalParams, sec: Circle) -> Action:
    """Grow the SEC `sec` of `points` toward the required radius, one robot
    per cycle. The robot asking is `points[0]`."""
    me = points[0]
    sym = detect_symmetry([p for p in points if _on_sec(p, sec)], sec)
    if sym.kind == "no-leader":
        return Action("stay", tag=TAG_NO_LEADER)
    tol = max(1e-9, 1e-9 * sec.radius)
    for leader in sym.leaders:
        mover, dest = _expansion_move(points, leader, sec, params)
        if dist(mover, me) <= tol and dist(dest, me) > EPS:
            return Action("move", dest, TAG_EXPAND)
    return Action("stay", tag=TAG_EXPAND)


def _select_mover(
    tx: float,
    ty: float,
    movers: Sequence[Mover],
    sec: Circle,
    is_top_target: bool,
) -> Optional[Mover]:
    """The mover nearest to the target at (tx, ty): by arc for a robot on
    the SEC boundary, by chord otherwise."""
    cx, cy, r = sec.center.x, sec.center.y, sec.radius
    a_t = math.atan2(ty - cy, tx - cx)  # `angle_of(target, sec.center)`
    hypot, full_turn = math.hypot, 2.0 * math.pi
    # The movers within 1e-9 of the nearest so far, in mover order. A mover
    # dropped for a nearer one stays out: the nearest only comes closer.
    best, tied = math.inf, []
    for m in movers:
        p, a_p, on_sec = m
        if on_sec:
            da = abs(a_p - a_t)
            d = min(da, full_turn - da) * r
        else:
            d = hypot(p.x - tx, p.y - ty)
        if d <= best + 1e-9:
            if d < best:
                best = d
                tied = [c for c in tied if c[0] <= d + 1e-9]
            tied.append((d, m))
    if len(tied) == 1:
        return tied[0][1]
    if is_top_target:
        return None  # contested top target: nobody moves this cycle
    return max((m for _, m in tied), key=lambda m: (m[0].y, m[0].x))


def _arc_step(me: Point, a_me: float, target: Point, sec: Circle, others: Sequence[Point]) -> Point:
    """Walk along the SEC from me, at angle a_me, toward target in bounded chordal steps."""
    a_t = angle_of(target, sec.center)
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


def _target_groups(
    order: Sequence[tuple[float, float, int, float]], points: Sequence[Point]
) -> Iterator[list[tuple[int, Point]]]:
    """The untaken targets `order` (highest first, as `_walk_order` gives
    them) in walk order: groups of vacant targets, then groups of crowded
    ones, each group the (index, target) of its tier within 1e-9 in y of
    its first.

    A target's Point is built, and its vacancy tested, only when the walk
    reaches it. y never rises along `order`, so a vacant group is complete,
    and yielded, as soon as the next target lies lower than that.
    """
    reached = ((i, Point(x, -neg_y)) for neg_y, _, i, x in order)
    crowded: list[tuple[int, Point]] = []
    for tier in (reached, crowded):
        group: list[tuple[int, Point]] = []
        for i, t in tier:
            if group and abs(t.y - group[0][1].y) > 1e-9:
                yield group
                group = []
            if tier is crowded or is_vacant_target(t, points):
                group.append((i, t))
            else:
                crowded.append((i, t))
        if group:
            yield group


def _walk_order(sec: Circle, n: int, taken: set[int]) -> list[tuple[float, float, int, float]]:
    """The untaken targets of the SEC `sec`, highest first, each as
    (-y, |x - cx|, index, x).

    This is bit for bit the order of `sorted(compute_target_points(n, sec)
    minus the taken targets, key=(-y, |x - cx|))`: x and y are built from
    `_target_directions` in the same expressions as those Points, and the
    index breaks ties as the stable sort does (so x is never compared).
    """
    cx, cy, r = sec.center.x, sec.center.y, sec.radius
    keys = []
    for i, (c, s) in enumerate(_target_directions(n)):
        if i not in taken:
            x = cx + r * c
            keys.append((-(cy + r * s), abs(x - cx), i, x))
    keys.sort()
    return keys


def _plan(
    points: Sequence[Point], sec: Circle, n: int, movers: Sequence[Mover], taken: set[int]
) -> list[tuple[Point, Point, Point]]:
    """The moves of the first target group in walk order that chooses any:
    (target, mover, step) for each of its targets whose chosen mover would
    move, or [] when no group chooses one.

    `movers` are the robots still to be seated, and `taken` holds the
    indices of the seated targets. Highest vacant target first, crowded ones
    after, cascading downward so that a contested or blocked candidate
    never stalls the whole formation; mirror-tied targets within a tier are
    considered together. The plan is bit for bit that of the walk over
    `compute_target_points(n, sec)`: `_walk_order` gives the same order, and
    each target Point is built in the same expressions, when the walk
    reaches it.
    """
    for group in _target_groups(_walk_order(sec, n, taken), points):
        chosen: list[tuple[Point, Point, Point]] = []
        for i, t in group:
            # Targets lie more than 3 apart, so only target 0 is the top one.
            mover = _select_mover(t.x, t.y, movers, sec, i == 0)
            if mover is None:
                continue
            step = _move_step(mover, t, points, sec)
            if dist(step, mover[0]) > EPS:
                chosen.append((t, mover[0], step))
        if chosen:
            return chosen
    return []


def form_ucircle(points: Sequence[Point], params: GlobalParams, sec: Circle) -> Action:
    """Move robots onto the n targets of the SEC `sec` of `points`, top
    vacant first. The robot asking is `points[0]`."""
    me = points[0]
    n, cx, cy, r = params.n, sec.center.x, sec.center.y, sec.radius
    # A robot's seat is the target within SETTLE_TOL of it: targets lie more
    # than 3 apart, so only the one `target_index` names can be. A seated
    # robot lies well inside its target's vacancy clearance, so a taken
    # target is never vacant and never tested.
    #
    # On plain floats: `angle_of`, `target_index`, `dist` to the target,
    # and `_on_sec` written out with the same expressions, the target's
    # coordinates as `compute_target_points` builds them. The asking robot
    # comes first, so a seated one stays before any target Point is built.
    hypot, atan2, half_pi, arc = math.hypot, math.atan2, math.pi / 2.0, 2.0 * math.pi / n
    on_sec_tol = ON_SEC_EPS * max(1.0, r)
    directions = _target_directions(n)
    taken: set[int] = set()
    movers: list[Mover] = []
    for p in points:
        px, py = p.x, p.y
        dx, dy = px - cx, py - cy
        theta = atan2(dy, dx)
        i = round((half_pi - theta) / arc) % n
        c, s = directions[i]
        if hypot(px - (cx + r * c), py - (cy + r * s)) > SETTLE_TOL:
            movers.append((p, theta, abs(hypot(dx, dy) - r) <= on_sec_tol))
        elif p is me:
            return Action("stay", tag=TAG_FORM)
        else:
            taken.add(i)
    mine = [(t, step) for t, m, step in _plan(points, sec, n, movers, taken) if m is me]
    if not mine:
        return Action("stay", tag=TAG_FORM)
    # Nearest to several targets of the group: take the one with the
    # largest y, then the largest x in the robot's own frame. Mirror
    # twins' y mostly differ in the last bits, so rounding, not
    # handedness, picks between them (both choices are safe).
    _, dest = max(mine, key=lambda c: (c[0].y, c[0].x))
    return Action("move", dest, TAG_FORM)


def _move_step(mover: Mover, target: Point, points: Sequence[Point], sec: Circle) -> Point:
    """World step a given robot would take toward target (or itself).

    Full move in one cycle when the chord is clear: stopping short of the
    target would make it look occupied next cycle and re-route the mover
    back and forth. A blocked chord falls back to short boundary arc hops.
    """
    p, a_p, on_sec = mover
    others = [q for q in points if q is not p]
    dest = _straight_step(p, target, others)
    if dist(dest, p) <= EPS and on_sec:
        dest = _arc_step(p, a_p, target, sec, others)
    return dest


def global_step(snapshot: Snapshot, params: GlobalParams) -> Action:
    """Dispatch between the expansion and formation phases, both given the
    snapshot's points, the robot asking first, and their SEC."""
    points = [snapshot.self_pos, *snapshot.others]
    sec = smallest_enclosing_circle(points)
    if sec.radius < params.rad_req - PHASE_TOL:
        return sec_expansion(points, params, sec)
    return form_ucircle(points, params, sec)


def make_global_algorithm(params: GlobalParams):
    def algo(snapshot: Snapshot) -> Action:
        return global_step(snapshot, params)

    return algo


def is_formed(positions: Sequence[Point], params: GlobalParams, tol: float = 1e-6) -> bool:
    """True when every robot sits on a distinct target point of the SEC."""
    sec = smallest_enclosing_circle(list(positions))
    if sec.radius < params.rad_req - tol:
        return False
    return fills_targets(positions, compute_target_points(params.n, sec), sec.center, tol)
