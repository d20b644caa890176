"""The target lookups by index, pinned against the linear scans they replace.

Each lookup takes its one candidate from `target_index` and makes one exact
test on it. The reference scans every target and takes the first that
passes. Both must name the same Point object, since callers compare targets
by identity, and the formed check must give the verdict of the old
first-free-target matching. The formation walk, which seats robots the same
way, must act as the reference walk that scans every target.
"""

import math
import random

import pytest

from ucircle.geometry import (
    Circle,
    Point,
    angle_of,
    compute_target_points,
    dist,
    fills_targets,
    target_index,
)
from ucircle.global_form import SETTLE_TOL, GlobalParams, compute_radius
from ucircle.harness import TERMINATION_TOL
from ucircle.local_form import (
    ALIGN_TOL,
    ON_CIRCLE,
    LocalParams,
    _aligned_target,
    _ang_diff,
    classify_psi,
    compute_robot_position,
    is_formed_local,
    measure,
)
from ucircle.simcore import Snapshot

P = Point
PSI1_TOL = 1e-7

NS = (2, 3, 4, 5, 7, 8, 12, 16, 24, 50)
CENTERS = (P(0.0, 0.0), P(-3.7, 2.0), P(1e6 + 0.25, -1e6 + 0.5))
LAYOUTS = [(n, c) for n in NS for c in CENTERS]
LAYOUT_IDS = [f"n{n}-c{k}" for n in NS for k in range(len(CENTERS))]


def _layout(n, center):
    circle = Circle(center, compute_radius(3.5, n))
    targets = compute_target_points(n, circle)
    angles = tuple(angle_of(t, center) for t in targets)
    return circle, targets, LocalParams(cir=circle, n=n, targets=targets, angles=angles)


def _off(t, rho, k):
    """t moved by rho in the k-th of 8 directions."""
    return P(t.x + rho * math.cos(k * math.pi / 4), t.y + rho * math.sin(k * math.pi / 4))


def _scan_near(p, targets, tol):
    return next((t for t in targets if dist(p, t) <= tol), None)


def _scan_aligned(theta, targets, center):
    return next((t for t in targets if _ang_diff(theta, angle_of(t, center)) <= ALIGN_TOL), None)


def _on_distinct_points(positions, targets, tol):
    """Each position takes the first free target within tol; all must be taken."""
    taken = [False] * len(targets)
    for p in positions:
        hit = next((i for i, t in enumerate(targets) if not taken[i] and dist(p, t) <= tol), -1)
        if hit < 0:
            return False
        taken[hit] = True
    return all(taken)


def _probes(circle, targets, tol, seed):
    """Points on each target, 0.9 and 1.1 tol off it in 8 directions and
    along the circle, midway between targets, at the centre, at +-pi, and
    random ones near the circle and near the targets."""
    rng = random.Random(seed)
    n, c, r = len(targets), circle.center, circle.radius
    out = list(targets)
    for t in targets:
        a_t = angle_of(t, c)
        for f in (0.9, 1.1):
            out += [_off(t, f * tol, k) for k in range(8)]
            out += [circle.point_at_angle(a_t + s * f * tol / r) for s in (1.0, -1.0)]
    out += [circle.point_at_angle(math.pi / 2 - 2 * math.pi * (i + 0.5) / n) for i in range(n)]
    out += [c, circle.point_at_angle(math.pi), circle.point_at_angle(-math.pi)]
    for _ in range(40):
        ring = Circle(c, r * rng.uniform(0.5, 1.5))
        blur = Circle(rng.choice(targets), rng.uniform(0.0, 2.0 * tol))
        for where in (circle, ring, blur):
            out.append(where.point_at_angle(rng.uniform(-math.pi, math.pi)))
    return out


@pytest.mark.parametrize("n, center", LAYOUTS, ids=LAYOUT_IDS)
def test_seats_and_vacancy_match_the_scans(n, center, walk_agrees):
    circle, targets, _ = _layout(n, center)
    params = GlobalParams(n=n, a=3.5, rad_req=circle.radius)
    probes = _probes(circle, targets, SETTLE_TOL, n)
    rng = random.Random(n)
    # The centre is never seated, so it asks among every probe; then each
    # probe asks beside the centre, and the centre among a few probes.
    hows = [walk_agrees([center, *probes], params, circle)]
    hows += [walk_agrees([p, center], params, circle) for p in probes]
    for _ in range(20):
        few = rng.sample(probes, n + 2)
        hows.append(walk_agrees([center, *few], params, circle))
    assert "seated" in hows and any(h not in ("seated", None) for h in hows)


@pytest.mark.parametrize("n, center", LAYOUTS, ids=LAYOUT_IDS)
def test_psi1_anchor_matches_the_scan(n, center):
    circle, targets, params = _layout(n, center)
    probes = [
        p
        for p in _probes(circle, targets, PSI1_TOL, n)
        if compute_robot_position(dist(p, circle.center), circle.radius) == ON_CIRCLE
    ]
    hits = 0
    for p in probes:
        psi = classify_psi(measure(Snapshot(p, (), 1.0), center), params)
        want = _scan_near(p, targets, PSI1_TOL)
        assert (psi.anchor if psi.value == "psi1" else None) is want
        hits += want is not None
    assert 0 < hits < len(probes)


@pytest.mark.parametrize("n, center", LAYOUTS, ids=LAYOUT_IDS)
def test_aligned_target_matches_the_scan(n, center):
    circle, targets, params = _layout(n, center)
    rng = random.Random(n)
    thetas = [angle_of(p, center) for p in _probes(circle, targets, PSI1_TOL, n) if p != center]
    thetas += [math.pi, -math.pi] + [rng.uniform(-math.pi, math.pi) for _ in range(40)]
    for t in targets:
        a_t = angle_of(t, center)
        thetas += [a_t + s * f * ALIGN_TOL for f in (0.9, 1.1) for s in (1.0, -1.0)]
    hits = 0
    for theta in thetas:
        want = _scan_aligned(theta, targets, center)
        assert _aligned_target(theta, params) is want
        hits += want is not None
    assert 0 < hits < len(thetas)


@pytest.mark.parametrize("n, center", LAYOUTS, ids=LAYOUT_IDS)
def test_formed_verdict_matches_on_distinct_points(n, center):
    circle, targets, params = _layout(n, center)
    rng = random.Random(n)
    tol = TERMINATION_TOL
    permuted = rng.sample(targets, n)
    cases = [permuted, permuted[:-1], permuted + [permuted[0]], [targets[0], *targets[:-1]]]
    for f in (0.9, 1.1):
        for k in range(8):
            off = list(permuted)
            off[k % n] = _off(off[k % n], f * tol, k)
            cases.append(off)
    verdicts = []
    for positions in cases:
        want = _on_distinct_points(positions, targets, tol)
        assert fills_targets(positions, targets, center, tol) is want
        assert is_formed_local(positions, params, tol) is want
        verdicts.append(want)
    assert verdicts[:4] == [True, False, False, False]
    assert verdicts[4:] == [True] * 8 + [False] * 8


@pytest.mark.parametrize("n", NS)
def test_target_index_inverts_the_layout(n):
    """Target i's own angle maps back to i, and so does every angle within
    just under half a target step of it."""
    half = math.pi / n * (1.0 - 1e-9)
    for i in range(n):
        a = math.pi / 2.0 - 2.0 * math.pi * i / n
        assert target_index(a, n) == i
        assert target_index(a + half, n) == i
        assert target_index(a - half, n) == i
        assert target_index(math.remainder(a, 2.0 * math.pi), n) == i
