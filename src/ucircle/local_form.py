"""Uniform circle formation with limited visibility.

Robots share the coordinate frame (origin C, axes) and know the target
circle CIR, but each senses only within its own visibility radius and runs
fully asynchronously. Per-robot visibility radii may differ; the code path
is identical either way.

Movement obeys two structural rules:

  * eligibility: among mutually visible robots on the same side of CIR,
    only the one closest to CIR may move (outermost inside, innermost
    outside); a robot at C always may,
  * direction: every move is radial (along the ray from C) or rightward
    (clockwise) along the circle through the robot centered at C.

Each activation classifies the robot into one of ten positional cases
(tags psi0..psi9 in the trace) that pick the destination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .geometry import (
    EPS,
    ORIGIN,
    Circle,
    Point,
    angle_of,
    compute_target_points,
    dist,
    fills_targets,
    is_free_path,
    is_vacant_target,
    midpoint,
    target_index,
    unit_toward,
)
from .simcore import Action, Snapshot

POS_EPS = 1e-9
ALIGN_TOL = 1e-7  # radians; "on the same ray" test
CLAIM_CAP = 2.5
SLOT_CHORD = 2.5
LANDING_CLEARANCE = 2.5


@dataclass(frozen=True, slots=True)
class LocalParams:
    cir: Circle
    n: int
    targets: tuple[Point, ...]
    angles: tuple[float, ...]  # angle of each target from C

    @staticmethod
    def make(n: int, rad: float) -> "LocalParams":
        """CIR of radius rad around the origin with its n target points.

        Raises ValueError when rad cannot space n unit discs two units apart.
        """
        if n <= 1:
            raise ValueError(f"need at least two robots, got n={n}")
        if 2.0 * math.pi * rad / n < 2.0:
            raise ValueError(
                f"radius {rad} cannot space {n} unit-disc robots two units apart"
            )
        cir = Circle(ORIGIN, rad)
        targets = compute_target_points(n, cir)
        angles = tuple(angle_of(t, cir.center) for t in targets)
        return LocalParams(cir=cir, n=n, targets=targets, angles=angles)


@dataclass(frozen=True, slots=True)
class PsiConfig:
    value: str  # "psi0".."psi9"
    anchor: Optional[Point] = None  # psi1's target; off CIR, the target on the robot's ray
    rival: Optional[Point] = None  # psi9 counterpart


class Sight(NamedTuple):
    """The view of one activation: the robot's position `me`, the visible
    `others` and its visibility radius `vis`, as the snapshot gives them,
    then measured from C once: its distance `d` and angle `theta` from C,
    and `radii`, each visible robot's distance from C in the order of
    `others`."""

    me: Point
    others: Sequence[Point]
    vis: float
    d: float
    theta: float
    radii: list[float]


def measure(snapshot: Snapshot, c: Point) -> Sight:
    """The Sight of `snapshot`; each radius is `dist(o, c)`."""
    me, others = snapshot.self_pos, snapshot.others
    hypot, cx, cy = math.hypot, c.x, c.y
    radii = [hypot(o.x - cx, o.y - cy) for o in others]
    return Sight(me, others, snapshot.vis_radius, dist(me, c), angle_of(me, c), radii)


def eligible_to_move(sight: Sight, rad: float) -> bool:
    """Eligibility rule: only the robot nearest CIR, of radius rad, on its side moves.

    A robot strictly inside may move only if no visible robot is strictly
    inside and farther out; strictly outside is symmetric. Robots across
    CIR never constrain each other, and a robot at C is always eligible.
    """
    d, radii = sight.d, sight.radii
    if d <= POS_EPS:
        return True
    if d < rad - POS_EPS:
        for do in radii:
            if POS_EPS < do < rad - POS_EPS and do > d + POS_EPS:
                return False
        return True
    # Outside, or exactly on CIR, which it may leave outward only ahead of
    # any closer outside robot.
    for do in radii:
        if do > rad + POS_EPS and do < d - POS_EPS:
            return False
    return True


def _ang_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def _cw_offset(frm: float, to: float) -> float:
    """Clockwise sweep from angle frm to angle to, in [0, 2*pi)."""
    return (frm - to) % (2.0 * math.pi)


def _aligned_target(theta: float, params: LocalParams) -> Optional[Point]:
    """The target on the ray from C at angle theta, if any."""
    i = target_index(theta, params.n)
    return params.targets[i] if _ang_diff(theta, params.angles[i]) <= ALIGN_TOL else None


def classify_psi(sight: Sight, params: LocalParams) -> PsiConfig:
    """One of the ten positional cases, by fixed precedence.

    Off CIR, the anchor is the target on the robot's ray from C, if any.
    """
    c = params.cir.center
    rad = params.cir.radius
    d, theta = sight.d, sight.theta
    if d <= POS_EPS:
        return PsiConfig("psi4")
    if abs(d - rad) <= POS_EPS:
        t = params.targets[target_index(theta, params.n)]
        if dist(sight.me, t) <= 1e-7:
            return PsiConfig("psi1", anchor=t)
        return PsiConfig("psi0")
    inside = d < rad
    target = _aligned_target(theta, params)
    if target is not None:
        # Contention: a visible robot across CIR on the same target ray.
        for o, do in zip(sight.others, sight.radii):
            across = do > rad + POS_EPS if inside else POS_EPS < do < rad - POS_EPS
            if across and _ang_diff(theta, angle_of(o, c)) <= ALIGN_TOL:
                return PsiConfig("psi9", anchor=target, rival=o)
    # How far the visibility disc reaches across CIR: it touches CIR,
    # crosses it, or falls short. Inside and outside cases mirror each other.
    if inside:
        over, cases = d + sight.vis - rad, ("psi2", "psi5", "psi3")
    else:
        over, cases = -(d - sight.vis - rad), ("psi6", "psi8", "psi7")
    touch, crosses, short = cases
    if abs(over) <= POS_EPS:
        return PsiConfig(touch, anchor=target)
    return PsiConfig(crosses if over > 0.0 else short, anchor=target)


def _claim_step(sight: Sight, goal: Point, params: LocalParams) -> Point:
    """Radial advance toward a point on CIR, pausing at the claim distance.

    Stopping short keeps enough separation that an unseen robot homing on
    the same point from the far side becomes visible before either commits.
    """
    c = params.cir.center
    rad = params.cir.radius
    claim = min(CLAIM_CAP, sight.vis / 4.0)
    if dist(sight.me, goal) <= claim + EPS:
        return goal
    hold = rad - claim if sight.d < rad else rad + claim
    return c + unit_toward(c, goal).scaled(hold)


def _rotate_cw(sight: Sight, params: LocalParams, stop_offset: Optional[float] = None) -> Point:
    """One rightward slot step along the circle through self, or stay.

    The slot angle subtends a chord of SLOT_CHORD; the landing point must
    keep LANDING_CLEARANCE from every visible robot and the chord must be a
    free path. A few alternative fractions dodge a blocked slot.
    """
    c = params.cir.center
    me, others, d, theta = sight.me, sight.others, sight.d, sight.theta
    slot = 2.0 * math.asin(min(1.0, SLOT_CHORD / (2.0 * d)))
    for frac in (1.0, 0.5, 1.5, 0.25, 2.0):
        ang = slot * frac
        if stop_offset is not None and ang > stop_offset + EPS:
            ang = stop_offset
        if ang <= EPS:
            continue
        dest = Point(c.x + d * math.cos(theta - ang), c.y + d * math.sin(theta - ang))
        if not all(dist(o, dest) >= LANDING_CLEARANCE - EPS for o in others):
            continue
        if is_free_path(me, dest, others):
            return dest
        if stop_offset is not None and ang >= stop_offset - EPS:
            break
    return me


def _visible_arc_halfwidth(d: float, vis_radius: float, rad: float) -> float:
    """Half the central angle of CIR covered by the visibility circle. Every
    caller's circle crosses CIR: psi5's and psi8's by definition, psi9's
    outside robot's because it sees its rival inside CIR on its own ray."""
    if vis_radius >= d + rad:
        return math.pi  # whole circle visible
    cos_b = (d * d + rad * rad - vis_radius * vis_radius) / (2.0 * d * rad)
    return math.acos(max(-1.0, min(1.0, cos_b)))


def _scan_or_rotate(sight: Sight, params: LocalParams, aligned: Optional[Point]) -> Point:
    """Cases (a)/(b)/(c) shared by the inside and outside crossing classes.

    (a) `aligned`, the target on the robot's ray from C that it may claim,
        is vacant: advance radially,
    (b) a vacant target lies rightward on the visible arc: rotate toward it,
    (c) otherwise: one rightward slot step, waiting when blocked.

    The arc never offers the target on the robot's own ray: its clockwise
    offset is within ALIGN_TOL of 0 or of 2*pi, and the arc reaches at most
    pi clockwise.
    """
    others = sight.others
    if aligned is not None and is_vacant_target(aligned, others):
        return _claim_step(sight, aligned, params)
    half = _visible_arc_halfwidth(sight.d, sight.vis, params.cir.radius)
    # The clockwise offset of the nearest vacant target on the arc, if any.
    # Target angles fall as the index rises, so the walk goes clockwise from
    # the target nearest theta, each offset about 2*pi/n past the last. That
    # first target may lie just counter-clockwise of theta, so only a later
    # one past `half` ends the walk.
    stop: Optional[float] = None
    n, theta, first = params.n, sight.theta, target_index(sight.theta, params.n)
    for k in range(first, first + n):
        i = k % n
        off = _cw_offset(theta, params.angles[i])
        if off > half and k > first:
            break
        if ALIGN_TOL < off <= half and is_vacant_target(params.targets[i], others):
            stop = off
            break
    return _rotate_cw(sight, params, stop_offset=stop)


def compute_destination(sight: Sight, params: LocalParams, psi: PsiConfig) -> Point:
    """Destination for an eligible robot in case `psi`; returns its own position to wait."""
    c = params.cir.center
    rad = params.cir.radius
    kind = psi.value
    me, others, vis = sight.me, sight.others, sight.vis

    if kind == "psi1":
        return me
    if kind == "psi0":
        out = c + unit_toward(c, me).scaled(rad + 2.0)
        return out if is_vacant_target(out, others) else me
    if kind == "psi4":
        m = Point(c.x + vis, c.y)
        return m if is_vacant_target(m, others) else midpoint(me, m)
    if kind == "psi9":
        if sight.d < rad:
            if is_vacant_target(psi.anchor, [o for o in others if o is not psi.rival]):
                return _claim_step(sight, psi.anchor, params)
            return _rotate_cw(sight, params)
        # Outside, the contested target is left to the inside robot.
        return _scan_or_rotate(sight, params, None)
    if kind in ("psi2", "psi6"):
        # Visibility just reaches CIR at h; from outside, h may be claimed too.
        if psi.anchor is not None and is_vacant_target(psi.anchor, others):
            return _claim_step(sight, psi.anchor, params)
        h = c + unit_toward(c, me).scaled(rad)
        if kind == "psi6" and is_vacant_target(h, others):
            return _claim_step(sight, h, params)
        return midpoint(me, h)
    if kind in ("psi3", "psi7"):
        # A radial hop of the visibility radius toward CIR.
        hop = vis if kind == "psi3" else -vis
        t = me + unit_toward(c, me).scaled(hop)
        return t if is_vacant_target(t, others) else midpoint(me, t)
    if kind in ("psi5", "psi8"):
        return _scan_or_rotate(sight, params, psi.anchor)
    raise AssertionError(f"unhandled positional case {kind}")


def local_step(snapshot: Snapshot, params: LocalParams) -> Action:
    """One activation: measure from C, classify, gate on eligibility, move or wait."""
    sight = measure(snapshot, params.cir.center)
    psi = classify_psi(sight, params)
    if not eligible_to_move(sight, params.cir.radius):
        return Action(tag=psi.value)
    dest = compute_destination(sight, params, psi)
    if dist(dest, sight.me) <= EPS:
        return Action(tag=psi.value)
    return Action(dest, psi.value)


def make_local_algorithm(params: LocalParams):
    def algo(snapshot: Snapshot) -> Action:
        return local_step(snapshot, params)

    return algo


def is_formed_local(positions: Sequence[Point], params: LocalParams, tol: float = 1e-6) -> bool:
    """True when every robot sits on a distinct target point of CIR."""
    return fills_targets(positions, params.targets, params.cir.center, tol)
