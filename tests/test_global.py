"""Tests for the unlimited-visibility formation algorithm."""

import math
import random
import struct

import pytest
from conftest import reference_plan, round_of

from ucircle import global_form
from ucircle.geometry import (
    EPS,
    VACANCY_CLEARANCE,
    Circle,
    Point,
    angle_of,
    compute_target_points,
    dist,
    smallest_enclosing_circle,
    target_index,
)
from ucircle.global_form import (
    SETTLE_TOL,
    GlobalParams,
    _expansion_move,
    _on_sec,
    _plan,
    compute_radius,
    detect_symmetry,
    form_ucircle,
    global_step,
    is_formed,
    make_global_algorithm,
    sec_expansion,
)
from ucircle.harness import parse_config, run_scenario
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


def with_sec(phase, points, params):
    return phase(points, params, smallest_enclosing_circle(points))


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

    @pytest.mark.parametrize("center", [P(0.0, 0.0), P(-3.7, -3.7), P(1e6 + 0.3, -1e6 - 0.7)])
    def test_bits_match_point_at_angle(self, center):
        for n in range(2, 65):
            sec = Circle(center, 1.5 / math.sin(math.pi / n) + 0.01 * n)
            want = [sec.point_at_angle(math.pi / 2.0 - 2.0 * math.pi * i / n) for i in range(n)]
            got = compute_target_points(n, sec)
            assert [(p.x.hex(), p.y.hex()) for p in got] == [(p.x.hex(), p.y.hex()) for p in want]

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
        action = with_sec(sec_expansion, [P(0, 0), *self.boundary], self.params)
        assert action.kind == "stay"
        assert action.tag == "expand"

    def test_leader_moves_outward(self):
        others = [P(-4, 3), P(0, -5), P(0, 0)]
        action = with_sec(sec_expansion, [P(3, 4), *others], self.params)
        assert action.kind == "move"
        # Destination lies outside the current SEC.
        assert dist(action.dest, P(0, 0)) > 5.0 + 1e-9

    def test_non_leader_boundary_robot_stays(self):
        others = [P(3, 4), P(0, -5), P(0, 0)]
        action = with_sec(sec_expansion, [P(-4, 3), *others], self.params)
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
        action = with_sec(sec_expansion, [P(0, 5), P(0, -5)], self.params)
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
            action = with_sec(form_ucircle, [me, *others], params)
            assert action.kind == "stay", f"robot at {me} moved"

    def test_single_vacant_target_filled_by_nearest(self):
        params = square_params()
        r = params.rad_req
        pts = [P(0, r), P(r, 0), P(0, -r), P(-1, 0)]
        action = with_sec(form_ucircle, [P(-1, 0), *pts[:3]], params)
        assert action.kind == "move"
        assert dist(action.dest, P(-r, 0)) <= 1e-7

    def test_settled_robots_wait_for_mover(self):
        params = square_params()
        r = params.rad_req
        me = P(0, r)
        others = [P(r, 0), P(0, -r), P(-1, 0)]
        action = with_sec(form_ucircle, [me, *others], params)
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


def window_probes(n, a, offset):
    """(sec, targets, probes) for n targets at chord a: points on both sides
    of each seat and vacancy threshold. Around each target: on it, just
    inside and just outside SETTLE_TOL, just inside and just outside the
    vacancy reach in many directions, and at the two tangent points of the
    reach seen from the centre. Between targets: midway along the SEC and 2
    units off it. Plus the centre and random points over the whole disc."""
    rng = random.Random(n * 1000 + int(a * 10))
    c = P(offset + 0.37, offset - 1.3)
    sec = Circle(c, a / (2.0 * math.sin(math.pi / n)))
    targets = compute_target_points(n, sec)
    reach = VACANCY_CLEARANCE + EPS
    probes = [c]
    for i, t in enumerate(targets):
        probes.append(t)
        for k in range(8):
            phi = 0.1 + 2.0 * math.pi * k / 8
            u = P(math.cos(phi), math.sin(phi))
            probes += [t + u.scaled(r) for r in (0.9 * SETTLE_TOL, 1.1 * SETTLE_TOL)]
            probes += [t + u.scaled(r) for r in (reach - 1e-12, reach + 1e-12)]
        if reach < sec.radius:
            theta = math.atan2(t.y - c.y, t.x - c.x)
            tangent = math.sqrt(sec.radius**2 - reach**2)
            for side in (-1.0, 1.0):
                ang = theta + side * math.asin(reach / sec.radius)
                for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
                    probes.append(P(c.x + scale * tangent * math.cos(ang), c.y + scale * tangent * math.sin(ang)))
        mid = math.pi / 2.0 - 2.0 * math.pi * (i + 0.5) / n
        probes += [Circle(c, max(0.0, sec.radius + dr)).point_at_angle(mid) for dr in (-2.0, 0.0, 2.0)]
    for _ in range(60):
        r, ang = (sec.radius + 4.0) * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
        probes.append(P(c.x + r * math.cos(ang), c.y + r * math.sin(ang)))
    return sec, targets, probes


def plan_bits(plan):
    """The bits of each (target, mover, step) of a plan."""
    return [struct.pack("<6d", t.x, t.y, m.x, m.y, q.x, q.y) for t, m, q in plan]


class TestSeatsAndVacancy:
    """The formation walk seats each robot by `target_index` and tests a
    target's vacancy only when the walk reaches it; it must act as the
    reference walk, which scans every target for both."""

    # Chords of 3.0001, 3.5 and 5 are the formation's; at chord 1 the targets
    # are packed closer than the clearance, so a robot crowds more than one
    # target on either side of its own.
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 20, 32])
    @pytest.mark.parametrize("a", [1.0, 3.0001, 3.5, 5.0])
    def test_matches_the_scan_of_every_target(self, n, a, walk_agrees):
        for offset in (0.0, 1e6) if n in (6, 20) else (0.0,):
            sec, targets, probes = window_probes(n, a, offset)
            params = GlobalParams(n=n, a=a, rad_req=sec.radius)
            # Reaches no target, so each probe alone decides the vacancies.
            far = P(sec.center.x, sec.center.y - sec.radius - 50.0)
            for p in probes:
                walk_agrees([p, far], params, sec)
                walk_agrees([far, p], params, sec)
            rng = random.Random(n)
            for _ in range(20):
                points = rng.sample(probes, min(len(probes), 2 * n))
                walk_agrees([far, *points], params, sec)
                walk_agrees(points, params, sec)

    def test_window_probes_reach_the_edges(self):
        # The probes sit on both sides of each threshold, so the comparison
        # above sees seated and unseated, reached and unreached robots.
        sec, targets, probes = window_probes(12, 3.0001, 0.0)
        near = [min(dist(p, t) for t in targets) for p in probes]
        reach = VACANCY_CLEARANCE + EPS
        assert any(d <= SETTLE_TOL for d in near) and any(SETTLE_TOL < d < 2e-7 for d in near)
        assert any(reach - 2e-12 < d <= reach for d in near) and any(reach < d < reach + 2e-12 for d in near)

    @pytest.mark.parametrize("n", [3, 5, 6, 8, 12, 20])
    @pytest.mark.parametrize("a", [1.0, 3.5])
    def test_plan_matches_the_reference_plan(self, n, a):
        """`_plan` returns the reference walk's plan bit for bit, over the
        full pool of unseated robots and over a strict subset of it."""
        sec, targets, probes = window_probes(n, a, 0.0)
        far = P(sec.center.x, sec.center.y - sec.radius - 50.0)
        rng = random.Random(n)
        looks = [[far, p] for p in probes] + [rng.sample(probes, min(len(probes), 2 * n)) for _ in range(20)]
        plans = 0
        for points in looks:
            # The seat pass of `form_ucircle`, from the functions it writes out.
            movers, taken = [], set()
            for p in points:
                theta = angle_of(p, sec.center)
                i = target_index(theta, n)
                if dist(p, targets[i]) <= SETTLE_TOL:
                    taken.add(i)
                else:
                    movers.append((p, theta, _on_sec(p, sec)))
            for pool in (movers, movers[::2]) if len(movers) > 1 else (movers,):
                got = _plan(points, sec, n, pool, taken)
                want = reference_plan(points, sec, n, [m[0] for m in pool])
                assert plan_bits(got) == plan_bits(want), (points, len(pool))
                plans += bool(got)
        assert plans > 0


SEC6 = Circle(P(0.0, 0.0), 5.0)
# Top first, then clockwise: T6[1]/T6[5] and T6[2]/T6[4] are mirror pairs.
T6 = compute_target_points(6, SEC6)
PARAMS6 = GlobalParams.make(6, 5.0)


class TestFormationWalk:
    """Hand-built looks at six targets of a radius-5 SEC, one case for each
    way a walk ends, checked against the reference walk."""

    @staticmethod
    def look(walk_agrees, me, others):
        points = [me, *others]
        how = walk_agrees(points, PARAMS6, SEC6)
        return form_ucircle(points, PARAMS6, SEC6), how

    def test_mirror_tied_vacant_pair(self, walk_agrees):
        # The upper pair is vacant and one group; the robot at (0, 0.5) is
        # nearest to both and takes one of them, the other robot waits.
        seats = [T6[0], T6[2], T6[3], T6[4]]
        a, b = P(0.0, 0.5), P(0.0, -2.5)
        action, how = self.look(walk_agrees, a, [b, *seats])
        assert how[0] == "vacant" and set(how[1]) == {T6[1], T6[5]}
        # The larger y wins, and rounding decides it: T6[5] (left) lies at
        # y = 2.5000000000000004, its mirror T6[1] (right) at y = 2.5.
        assert T6[5].y > T6[1].y and T6[5].x < T6[1].x
        assert action.kind == "move" and action.dest == T6[5]
        action, how = self.look(walk_agrees, b, [a, *seats])
        assert action.kind == "stay" and set(how[1]) == {T6[1], T6[5]}

    def test_mirror_pair_split_across_tiers(self, walk_agrees):
        # T6[1] is vacant, its mirror T6[5] crowded by a: they are walked as
        # two groups, so b's move onto T6[1] ends the walk and a waits.
        seats = [T6[0], T6[2], T6[3], T6[4]]
        a, b = P(-3.5, 2.0), P(1.0, -0.5)
        action, how = self.look(walk_agrees, a, [b, *seats])
        assert action.kind == "stay" and how == ("vacant", [T6[1]])
        action, how = self.look(walk_agrees, b, [a, *seats])
        assert action.kind == "move" and action.dest == T6[1]

    def test_contested_top_target(self, walk_agrees):
        # Two robots tie for the vacant top target, so nobody takes it; the
        # bottom target's tie goes to the higher, then rightward, robot.
        seats = [T6[1], T6[2], T6[4], T6[5]]
        a, b = P(1.5, 0.0), P(-1.5, 0.0)
        action, how = self.look(walk_agrees, a, [b, *seats])
        assert how == ("vacant", [T6[3]])
        assert action.kind == "move" and action.dest == T6[3]
        action, how = self.look(walk_agrees, b, [a, *seats])
        assert action.kind == "stay" and how == ("vacant", [T6[3]])

    def test_crowded_only(self, walk_agrees):
        # Each untaken target has a robot within its clearance: the walk
        # takes the crowded tier, top first.
        seats = [T6[1], T6[2], T6[4], T6[5]]
        a, b = P(0.0, 4.0), P(0.0, -3.0)
        action, how = self.look(walk_agrees, a, [b, *seats])
        assert how == ("crowded", [T6[0]])
        assert action.kind == "move" and action.dest == T6[0]
        action, how = self.look(walk_agrees, b, [a, *seats])
        assert action.kind == "stay" and how == ("crowded", [T6[0]])

    def test_every_group_blocked(self, walk_agrees):
        # Both robots are wedged between seated ones at the top, and no
        # straight path or detour reaches the vacant lower pair.
        seats = [T6[0], T6[1], T6[3], T6[5]]
        a, b = P(2.3, 2.6), P(-2.7, 3.8)
        for me, other in ((a, b), (b, a)):
            action, how = self.look(walk_agrees, me, [other, *seats])
            assert action.kind == "stay" and how is None


def test_formation_look_tests_only_what_it_reaches(monkeypatch, walk_agrees):
    """A look never tests the vacancy of a taken target, and it stops at the
    first group that chooses a move: it tests no target below that group."""
    looks = []  # (points, params, sec, targets tested)
    real_test, real_form = global_form.is_vacant_target, global_form.form_ucircle

    def is_vacant_target(t, points):
        looks[-1][3].append(t)
        return real_test(t, points)

    def form(points, params, sec):
        looks.append((points, params, sec, []))
        return real_form(points, params, sec)

    monkeypatch.setattr(global_form, "is_vacant_target", is_vacant_target)
    monkeypatch.setattr(global_form, "form_ucircle", form)
    for seed in (1, 2):
        raw = dict(algorithm="global", n=8, a=3.5, scheduler="SSYNC", seed=seed, placement="random-disc")
        run_scenario(parse_config(raw))
    monkeypatch.undo()
    top_moves = 0
    for points, params, sec, tested in looks:
        assert not any(dist(t, p) <= SETTLE_TOL for t in tested for p in points)
        how = walk_agrees(points, params, sec)
        if how == "seated":
            assert tested == []
        elif how is not None and how[0] == "vacant":
            head = how[1][0]
            assert all(t.y >= head.y - 1e-9 for t in tested)
            if compute_target_points(params.n, sec)[0] in how[1]:
                assert len(tested) <= len(how[1]) + 1
                top_moves += 1
    assert top_moves > 0


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
        from ucircle.simcore import next_activation

        sched = Schedule("FSYNC")
        for cycle in range(200 * n):
            r = smallest_enclosing_circle(world.positions).radius
            if r < params.rad_req - 1e-7:
                expansion_radii.append(r)
            if is_formed(world.positions, params):
                break
            active = next_activation(sched, n, cycle)
            world, _, _ = round_of(world, active, algo, cycle)
        else:
            pytest.fail("did not converge")
        # The enclosing circle only grows while it is still too small; once
        # large enough, the formation phase may pull overshooters back in.
        assert expansion_radii, "expansion phase never observed"
        for prev, cur in zip(expansion_radii, expansion_radii[1:]):
            assert cur >= prev - 1e-7
