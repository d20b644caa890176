"""Tests for the unlimited-visibility formation algorithm."""

import math
import random

import pytest

from ucircle.geometry import Circle, Point, dist, smallest_enclosing_circle
from ucircle.global_form import (
    GlobalParams,
    _expansion_move,
    compute_radius,
    compute_target_points,
    detect_symmetry,
    form_ucircle,
    global_step,
    is_formed,
    make_global_algorithm,
    sec_expansion,
)
from ucircle.simcore import (
    FRAME_Y_ONLY,
    OUTCOME_CONVERGED,
    Robot,
    Schedule,
    Snapshot,
    WorldState,
    run,
)

P = Point
INF = math.inf


def snap(me, others):
    return Snapshot(self_pos=me, others=tuple(others), vis_radius=INF)


def with_sec(phase, s, params):
    return phase(s, params, smallest_enclosing_circle([s.self_pos, *s.others]))


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Required radius
# ---------------------------------------------------------------------------


class TestComputeRadius:
    def test_two_robots(self):
        # [DERIVED] n=2: the two points are antipodal, radius = a/2.
        assert close(compute_radius(4.0, 2), 2.0)

    def test_hexagon(self):
        # [DERIVED] n=6: chord equals radius.
        assert close(compute_radius(3.5, 6), 3.5)

    def test_square(self):
        # [DERIVED] n=4: radius = a / sqrt(2).
        assert close(compute_radius(4.0, 4), 4.0 / math.sqrt(2))

    def test_rejects_small_spacing(self):
        with pytest.raises(ValueError):
            compute_radius(3.0, 5)
        with pytest.raises(ValueError):
            compute_radius(2.9, 5)

    def test_rejects_single_robot(self):
        with pytest.raises(ValueError):
            compute_radius(4.0, 1)

    def test_chord_identity(self):
        # Placing n points at this radius really gives adjacent chord a.
        for n in range(2, 25):
            for a in (3.1, 4.0, 7.5):
                r = compute_radius(a, n)
                chord = 2.0 * r * math.sin(math.pi / n)
                assert close(chord, a, 1e-9 * max(1.0, r))


# ---------------------------------------------------------------------------
# Target points
# ---------------------------------------------------------------------------


class TestTargetPoints:
    def test_square_on_unit_circle(self):
        ts = compute_target_points(4, Circle(P(0, 0), 1.0))
        expected = [P(0, 1), P(1, 0), P(0, -1), P(-1, 0)]
        for got, want in zip(ts, expected):
            assert dist(got, want) <= 1e-12

    def test_two_points(self):
        ts = compute_target_points(2, Circle(P(0, 0), 3.0))
        assert dist(ts[0], P(0, 3)) <= 1e-12
        assert dist(ts[1], P(0, -3)) <= 1e-12

    def test_hexagon_chord(self):
        ts = compute_target_points(6, Circle(P(1, -2), 2.0))
        for i in range(6):
            assert close(dist(ts[i], ts[(i + 1) % 6]), 2.0, 1e-12)

    def test_all_on_circle_and_anchor(self):
        c = Circle(P(5, 7), 4.0)
        ts = compute_target_points(9, c)
        # Evenly spaced, so the targets are anchored at the center: their
        # mean is the center.
        assert close(sum(p.x for p in ts) / 9, c.center.x, 1e-12)
        assert close(sum(p.y for p in ts) / 9, c.center.y, 1e-12)
        for p in ts:
            assert close(dist(p, c.center), 4.0, 1e-12)

    def test_first_point_is_topmost(self):
        ts = compute_target_points(5, Circle(P(0, 0), 2.0))
        assert ts[0].y == max(p.y for p in ts)


# ---------------------------------------------------------------------------
# Leader election
# ---------------------------------------------------------------------------


class TestDetectSymmetry:
    def test_asymmetric_single_leader(self):
        sec = Circle(P(0, 0), 5.0)
        case = detect_symmetry([P(0, 5), P(3, 4), P(-4, 3)], sec)
        assert case.kind == "case1"
        assert dist(case.leaders[0], P(3, 4)) <= 1e-12

    def test_mirror_pair(self):
        sec = Circle(P(0, 0), 5.0)
        case = detect_symmetry([P(3, 4), P(-3, 4), P(0, -5)], sec)
        assert case.kind == "case2"
        assert len(case.leaders) == 2
        xs = sorted(p.x for p in case.leaders)
        assert close(xs[0], -3) and close(xs[1], 3)

    def test_all_on_axis_is_leaderless(self):
        sec = Circle(P(0, 0), 5.0)
        case = detect_symmetry([P(0, 5), P(0, -5)], sec)
        assert case.kind == "no-leader"

    def test_leader_never_on_axis(self):
        sec = Circle(P(0, 0), 5.0)
        case = detect_symmetry([P(0, 5), P(4, -3), P(-3, -4)], sec)
        assert case.kind == "case1"
        assert abs(case.leaders[0].x) > 1e-9

    def test_translation_invariance(self):
        sec0 = Circle(P(0, 0), 5.0)
        pts = [P(0, 5), P(3, 4), P(-4, 3)]
        case0 = detect_symmetry(pts, sec0)
        off = P(11, -7)
        case1 = detect_symmetry([p + off for p in pts], Circle(off, 5.0))
        assert case0.kind == case1.kind
        assert dist(case0.leaders[0] + off, case1.leaders[0]) <= 1e-9

    def test_exact_profile_tie_is_leaderless(self):
        # Two robots mirror-placed with identical distance profiles cannot be
        # separated without agreeing on left/right.
        sec = Circle(P(0, 0), 5.0)
        case = detect_symmetry([P(4, 3), P(-4, 3)], sec)
        assert case.kind in ("case2", "no-leader")
        # Mirror-symmetric pair: this one is actually case2.
        assert case.kind == "case2"


# ---------------------------------------------------------------------------
# Expansion phase
# ---------------------------------------------------------------------------


class TestSecExpansion:
    # SEC radius 5, required radius 8/(2 sin(pi/4)) ~ 5.657: expansion phase.
    params = GlobalParams.make(4, 8.0)
    boundary = [P(3, 4), P(-4, 3), P(0, -5)]

    def test_interior_robot_stays(self):
        action = with_sec(sec_expansion, snap(P(0, 0), self.boundary), self.params)
        assert action.kind == "stay"
        assert action.tag == "expand"

    def test_leader_moves_outward(self):
        others = [P(-4, 3), P(0, -5), P(0, 0)]
        action = with_sec(sec_expansion, snap(P(3, 4), others), self.params)
        assert action.kind == "move"
        # Destination lies outside the current SEC.
        assert dist(action.dest, P(0, 0)) > 5.0 + 1e-9

    def test_non_leader_boundary_robot_stays(self):
        others = [P(3, 4), P(0, -5), P(0, 0)]
        action = with_sec(sec_expansion, snap(P(-4, 3), others), self.params)
        assert action.kind == "stay"

    def test_occupied_antipode_radial_rule(self):
        # [DERIVED] leader at (0,5) with its antipode occupied advances
        # radially by 2 * (rad_req - rad).
        pts = [P(0, 5), P(0, -5), P(4, 0)]
        sec = smallest_enclosing_circle(pts)
        mover, dest = _expansion_move(pts, pts[0], sec, self.params)
        assert mover is pts[0]
        d_r = 2.0 * (self.params.rad_req - 5.0)
        assert dist(dest, P(0, 5 + d_r)) <= 1e-9

    def test_free_antipode_jump_distance(self):
        # Unoccupied antipode: destination sits 2*rad_req from the farthest
        # robot, measured toward (and past) the SEC center.
        pts = [P(3, 4), P(-4, 3), P(0, -5), P(0, 0)]
        sec = smallest_enclosing_circle(pts)
        mover, dest = _expansion_move(pts, P(3, 4), sec, self.params)
        far = max(
            (p for p in pts if p is not pts[0]),
            key=lambda p: dist(p, P(3, 4)),
        )
        assert close(dist(dest, far), 2.0 * self.params.rad_req, 1e-9)

    def test_leaderless_configuration_stays_tagged(self):
        action = with_sec(sec_expansion, snap(P(0, 5), [P(0, -5)]), self.params)
        assert action.kind == "stay"
        assert action.tag == "no-leader"


# ---------------------------------------------------------------------------
# Formation phase
# ---------------------------------------------------------------------------


def square_params():
    return GlobalParams.make(4, 4.0)


def square_targets():
    r = square_params().rad_req
    return [P(0, r), P(r, 0), P(0, -r), P(-r, 0)]


class TestFormUcircle:
    def test_all_settled_stay(self):
        pts = square_targets()
        params = square_params()
        for i, me in enumerate(pts):
            others = [p for j, p in enumerate(pts) if j != i]
            action = with_sec(form_ucircle, snap(me, others), params)
            assert action.kind == "stay", f"robot at {me} moved"

    def test_single_vacant_target_filled_by_nearest(self):
        params = square_params()
        r = params.rad_req
        pts = [P(0, r), P(r, 0), P(0, -r), P(-1, 0)]
        action = with_sec(form_ucircle, snap(P(-1, 0), pts[:3]), params)
        assert action.kind == "move"
        assert dist(action.dest, P(-r, 0)) <= 1e-7

    def test_settled_robots_wait_for_mover(self):
        params = square_params()
        r = params.rad_req
        me = P(0, r)
        others = [P(r, 0), P(0, -r), P(-1, 0)]
        action = with_sec(form_ucircle, snap(me, others), params)
        assert action.kind == "stay"

    def test_phase_dispatch(self):
        # Small SEC -> expansion; SEC at required radius -> formation.
        params = square_params()
        r = params.rad_req
        small = [P(1, 1.5), P(-1.2, 0.3), P(0.4, -1.4)]
        action = global_step(snap(small[0], small[1:]), params)
        assert action.tag in ("expand", "no-leader")
        action = global_step(snap(P(0, r), [P(r, 0), P(0, -r), P(-1, 0)]), params)
        assert action.tag == "form"


class TestIsFormed:
    def test_perfect_square(self):
        assert is_formed(square_targets(), square_params())

    def test_rotated_square_rejected(self):
        # The checker matches the canonical target set (top-anchored), so a
        # rotated ring must not be accepted.
        r = square_params().rad_req
        pts = [
            Circle(P(0, 0), r).point_at_angle(0.3 + i * math.pi / 2) for i in range(4)
        ]
        assert not is_formed(pts, square_params())

    def test_displaced_point_rejected(self):
        pts = square_targets()
        pts[2] = P(pts[2].x, pts[2].y - 1e-3)
        assert not is_formed(pts, square_params())

    def test_doubled_target_rejected(self):
        pts = square_targets()
        pts[2] = pts[1]
        assert not is_formed(pts, square_params(), tol=1e-6)

    def test_tolerance(self):
        pts = [P(p.x + 1e-8, p.y) for p in square_targets()]
        assert is_formed(pts, square_params(), tol=1e-6)


# ---------------------------------------------------------------------------
# End-to-end behaviour
# ---------------------------------------------------------------------------


def random_world(n, seed, spread=6.0):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        p = P(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        if all(dist(p, q) >= 2.1 for q in pts):
            pts.append(p)
    return WorldState(
        tuple(Robot(vis_radius=INF, chirality=rng.choice((1, -1)), frame=FRAME_Y_ONLY) for _ in pts),
        tuple(pts),
    )


class TestEndToEnd:
    @pytest.mark.parametrize("n,seed", [(3, 1), (4, 2), (5, 3), (6, 4), (7, 5)])
    def test_converges_under_ssync(self, n, seed):
        params = GlobalParams.make(n, 4.0)
        world = random_world(n, seed)
        algo = make_global_algorithm(params)
        trace = run(
            world,
            algo,
            Schedule("SSYNC", seed=seed, fairness_bound=n),
            lambda w: is_formed(w.positions, params),
            max_cycles=200 * n,
        )
        assert trace.outcome == OUTCOME_CONVERGED, trace.diagnosis
        assert trace.min_separation >= 2.0 - 1e-9
        assert is_formed(trace.final.positions, params)

    def test_sec_radius_monotone_under_fsync(self):
        n, seed = 5, 11
        params = GlobalParams.make(n, 7.5)
        world = random_world(n, seed, spread=3.5)
        algo = make_global_algorithm(params)
        expansion_radii = []
        from ucircle.simcore import execute_cycle, next_activation

        sched = Schedule("FSYNC")
        for cycle in range(200 * n):
            r = smallest_enclosing_circle(world.positions).radius
            if r < params.rad_req - 1e-7:
                expansion_radii.append(r)
            if is_formed(world.positions, params):
                break
            active = next_activation(sched, n, cycle)
            world, _, _ = execute_cycle(world, active, algo, cycle)
        else:
            pytest.fail("did not converge")
        # The enclosing circle only grows while it is still too small; once
        # large enough, the formation phase may pull overshooters back in.
        assert expansion_radii, "expansion phase never observed"
        for prev, cur in zip(expansion_radii, expansion_radii[1:]):
            assert cur >= prev - 1e-7
