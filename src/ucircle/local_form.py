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
    cross,
    dist,
    fills_targets,
    is_free_path,
    is_vacant_target,
    midpoint,
    target_index,
    unit_toward,
)
from .simcore import Action, Snapshot, move_to

POS_EPS = 1e-9
ALIGN_TOL = 1e-7  # radians; "on the same ray" test
CLAIM_CAP = 2.5
SLOT_CHORD = 2.5
LANDING_CLEARANCE = 2.5

INSIDE = "inside"
ON_CIRCLE = "on-circle"
OUTSIDE = "outside"
AT_CENTER = "at-center"


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
    """One look measured from C once: the robot's distance `d` and angle
    `theta` from C, and `radii`, each visible robot's distance from C in
    the order of the others."""

    d: float
    theta: float
    radii: list[float]


def measure(self_pos: Point, others: Sequence[Point], c: Point) -> Sight:
    """The Sight of a robot at self_pos; each radius is `dist(o, c)`."""
    hypot, cx, cy = math.hypot, c.x, c.y
    radii = [hypot(o.x - cx, o.y - cy) for o in others]
    return Sight(dist(self_pos, c), angle_of(self_pos, c), radii)


def compute_robot_position(d: float, rad: float) -> str:
    """Where a robot at distance d from C stands against CIR of radius rad."""
    if d <= POS_EPS:
        return AT_CENTER
    if abs(d - rad) <= POS_EPS:
        return ON_CIRCLE
    return INSIDE if d < rad else OUTSIDE


def eligible_to_move(
    self_pos: Point, others: Sequence[Point], cir: Circle, sight: Optional[Sight] = None
) -> bool:
    """Eligibility rule: only the robot nearest CIR on its side moves.

    A robot strictly inside may move only if no visible robot is strictly
    inside and farther out; strictly outside is symmetric. Robots across
    CIR never constrain each other, and a robot at C is always eligible.
    `sight` is the look's measure from C, when the caller has it.
    """
    d, _, radii = sight or measure(self_pos, others, cir.center)
    if d <= POS_EPS:
        return True
    rad = cir.radius
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


def classify_psi(
    self_pos: Point,
    vis_radius: float,
    params: LocalParams,
    others: Sequence[Point],
    sight: Optional[Sight] = None,
) -> PsiConfig:
    """One of the ten positional cases, by fixed precedence.

    Off CIR, the anchor is the target on the robot's ray from C, if any.
    `sight` is the look's measure from C, when the caller has it.
    """
    c = params.cir.center
    rad = params.cir.radius
    d, theta, radii = sight or measure(self_pos, others, c)
    pos = compute_robot_position(d, rad)
    if pos == AT_CENTER:
        return PsiConfig("psi4")
    if pos == ON_CIRCLE:
        t = params.targets[target_index(theta, params.n)]
        if dist(self_pos, t) <= 1e-7:
            return PsiConfig("psi1", anchor=t)
        return PsiConfig("psi0")
    inside = pos == INSIDE
    target = _aligned_target(theta, params)
    if target is not None:
        # Contention: a visible robot across CIR on the same target ray.
        for o, do in zip(others, radii):
            across = do > rad + POS_EPS if inside else POS_EPS < do < rad - POS_EPS
            if across and _ang_diff(theta, angle_of(o, c)) <= ALIGN_TOL:
                return PsiConfig("psi9", anchor=target, rival=o)
    # How far the visibility disc reaches across CIR: it touches CIR,
    # crosses it, or falls short. Inside and outside cases mirror each other.
    if inside:
        over, cases = d + vis_radius - rad, ("psi2", "psi5", "psi3")
    else:
        over, cases = -(d - vis_radius - rad), ("psi6", "psi8", "psi7")
    touch, crosses, short = cases
    if abs(over) <= POS_EPS:
        return PsiConfig(touch, anchor=target)
    return PsiConfig(crosses if over > 0.0 else short, anchor=target)


def _claim_step(
    self_pos: Point, d: float, goal: Point, vis_radius: float, params: LocalParams
) -> Point:
    """Radial advance toward a point on CIR, pausing at the claim distance.

    Stopping short keeps enough separation that an unseen robot homing on
    the same point from the far side becomes visible before either commits.
    """
    c = params.cir.center
    rad = params.cir.radius
    claim = min(CLAIM_CAP, vis_radius / 4.0)
    if dist(self_pos, goal) <= claim + EPS:
        return goal
    hold = rad - claim if d < rad else rad + claim
    return c + unit_toward(c, goal).scaled(hold)


def _rotate_cw(
    self_pos: Point,
    d: float,
    theta: float,
    params: LocalParams,
    others: Sequence[Point],
    stop_offset: Optional[float] = None,
) -> Point:
    """One rightward slot step along the circle through self, or stay.

    The slot angle subtends a chord of SLOT_CHORD; the landing point must
    keep LANDING_CLEARANCE from every visible robot and the chord must be a
    free path. A few alternative fractions dodge a blocked slot.
    """
    c = params.cir.center
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
        if is_free_path(self_pos, dest, others):
            return dest
        if stop_offset is not None and ang >= stop_offset - EPS:
            break
    return self_pos


def _visible_arc_halfwidth(d: float, vis_radius: float, rad: float) -> Optional[float]:
    """Half the central angle of CIR covered by the visibility circle."""
    if vis_radius >= d + rad:
        return math.pi  # whole circle visible
    if abs(d - rad) >= vis_radius:
        return None
    cos_b = (d * d + rad * rad - vis_radius * vis_radius) / (2.0 * d * rad)
    return math.acos(max(-1.0, min(1.0, cos_b)))


def _scan_or_rotate(
    self_pos: Point,
    d: float,
    theta: float,
    vis_radius: float,
    params: LocalParams,
    others: Sequence[Point],
    aligned: Optional[Point],
) -> Point:
    """Cases (a)/(b)/(c) shared by the inside and outside crossing classes.

    (a) `aligned`, the target on the robot's ray from C that it may claim,
        is vacant: advance radially,
    (b) a vacant target lies rightward on the visible arc: rotate toward it,
    (c) otherwise: one rightward slot step, waiting when blocked.

    The arc never offers the target on the robot's own ray: its clockwise
    offset is within ALIGN_TOL of 0 or of 2*pi, and the arc reaches at most
    pi clockwise.
    """
    if aligned is not None and is_vacant_target(aligned, others):
        return _claim_step(self_pos, d, aligned, vis_radius, params)
    half = _visible_arc_halfwidth(d, vis_radius, params.cir.radius)
    if half is not None:
        best: Optional[tuple[float, Point]] = None
        for t, angle in zip(params.targets, params.angles):
            off = _cw_offset(theta, angle)
            if off <= ALIGN_TOL or off > half:
                continue
            if not is_vacant_target(t, others):
                continue
            if best is None or off < best[0]:
                best = (off, t)
        if best is not None:
            return _rotate_cw(self_pos, d, theta, params, others, stop_offset=best[0])
    return _rotate_cw(self_pos, d, theta, params, others)


def compute_destination(
    self_pos: Point,
    vis_radius: float,
    params: LocalParams,
    others: Sequence[Point],
    psi: PsiConfig,
    sight: Optional[Sight] = None,
) -> Point:
    """Destination for an eligible robot in case `psi`; returns self_pos to wait.

    `sight` is the look's measure from C, when the caller has it.
    """
    c = params.cir.center
    rad = params.cir.radius
    kind = psi.value
    d, theta, _ = sight or measure(self_pos, others, c)

    if kind == "psi1":
        return self_pos
    if kind == "psi0":
        out = c + unit_toward(c, self_pos).scaled(rad + 2.0)
        return out if is_vacant_target(out, others) else self_pos
    if kind == "psi4":
        m = Point(c.x + vis_radius, c.y)
        return m if is_vacant_target(m, others) else midpoint(self_pos, m)
    if kind == "psi9":
        if d < rad:
            if is_vacant_target(psi.anchor, [o for o in others if o is not psi.rival]):
                return _claim_step(self_pos, d, psi.anchor, vis_radius, params)
            return _rotate_cw(self_pos, d, theta, params, others)
        # Outside, the contested target is left to the inside robot.
        return _scan_or_rotate(self_pos, d, theta, vis_radius, params, others, None)
    if kind in ("psi2", "psi6"):
        # Visibility just reaches CIR at h; from outside, h may be claimed too.
        if psi.anchor is not None and is_vacant_target(psi.anchor, others):
            return _claim_step(self_pos, d, psi.anchor, vis_radius, params)
        h = c + unit_toward(c, self_pos).scaled(rad)
        if kind == "psi6" and is_vacant_target(h, others):
            return _claim_step(self_pos, d, h, vis_radius, params)
        return midpoint(self_pos, h)
    if kind in ("psi3", "psi7"):
        # A radial hop of the visibility radius toward CIR.
        hop = vis_radius if kind == "psi3" else -vis_radius
        t = self_pos + unit_toward(c, self_pos).scaled(hop)
        return t if is_vacant_target(t, others) else midpoint(self_pos, t)
    if kind in ("psi5", "psi8"):
        return _scan_or_rotate(self_pos, d, theta, vis_radius, params, others, psi.anchor)
    raise AssertionError(f"unhandled positional case {kind}")


def local_step(snapshot: Snapshot, params: LocalParams) -> Action:
    """One activation: measure from C, classify, gate on eligibility, move or wait."""
    me = snapshot.self_pos
    others = list(snapshot.others)
    sight = measure(me, others, params.cir.center)
    psi = classify_psi(me, snapshot.vis_radius, params, others, sight)
    if not eligible_to_move(me, others, params.cir, sight):
        return Action("stay", tag=psi.value)
    dest = compute_destination(me, snapshot.vis_radius, params, others, psi, sight)
    if dist(dest, me) <= EPS:
        return Action("stay", tag=psi.value)
    return move_to(dest, tag=psi.value)


def make_local_algorithm(params: LocalParams):
    def algo(snapshot: Snapshot) -> Action:
        return local_step(snapshot, params)

    return algo


def satisfies_direction_constraint(
    src: Point, dst: Point, center: Point, tol: float = 1e-9
) -> bool:
    """True when the displacement is radial or a rightward rotation.

    Radial means colinear with the ray from the center through the source
    (within tol of angular deviation); rightward means the radius from the
    center is preserved and the turn is clockwise.
    """
    v = dst - src
    if v.norm() <= EPS:
        return True
    r1 = dist(src, center)
    r2 = dist(dst, center)
    if r1 <= POS_EPS:
        return True  # any departure from the center is radial
    u = src - center
    if abs(cross(u, v)) <= tol * r1 * v.norm():
        return True
    if abs(r1 - r2) <= tol * max(1.0, r1) and cross(u, dst - center) < 0.0:
        return True
    return False


def is_formed_local(positions: Sequence[Point], params: LocalParams, tol: float = 1e-6) -> bool:
    """True when every robot sits on a distinct target point of CIR."""
    return fills_targets(positions, params.targets, params.cir.center, tol)
