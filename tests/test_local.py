"""Tests for the limited-visibility formation algorithm."""

import collections
import math

import pytest
from conftest import sight_of

from ucircle import local_form
from ucircle.geometry import Circle, Point, angle_of, dist
from ucircle.harness import parse_config, run_scenario
from ucircle.local_form import (
    LocalParams,
    _aligned_target,
    classify_psi,
    compute_destination,
    compute_robot_position,
    eligible_to_move,
    is_formed_local,
    local_step,
    make_local_algorithm,
    satisfies_direction_constraint,
)
from ucircle.simcore import (
    FRAME_FULL_AXES,
    OUTCOME_CONVERGED,
    Robot,
    Schedule,
    Snapshot,
    WorldState,
    run,
)

P = Point
CENTER = P(0.0, 0.0)
INF = math.inf


def destination(me, vis, params, others):
    sight = sight_of(me, others, vis)
    return compute_destination(sight, params, classify_psi(sight, params))


def params10(n=4):
    return LocalParams.make(n, 10.0)


def snap(me, others, vis):
    return Snapshot(self_pos=me, others=tuple(others), vis_radius=vis)


# ---------------------------------------------------------------------------
# Position classes
# ---------------------------------------------------------------------------


class TestRobotPosition:
    cir = Circle(CENTER, 5.0)

    def position(self, p):
        return compute_robot_position(dist(p, self.cir.center), self.cir.radius)

    def test_at_center(self):
        assert self.position(P(0, 0)) == "at-center"

    def test_on_circle(self):
        assert self.position(P(3, 4)) == "on-circle"

    def test_just_inside(self):
        assert self.position(P(3, 3.99)) == "inside"

    def test_outside(self):
        assert self.position(P(3, 5)) == "outside"


class TestEligibility:
    cir = Circle(CENTER, 10.0)

    def test_center_always_eligible(self):
        assert eligible_to_move(sight_of(P(0, 0), [P(0, 5), P(0, -5)], INF), self.cir.radius)

    def test_inside_outermost_moves(self):
        # Inside robots yield to the one nearest the circle.
        assert eligible_to_move(sight_of(P(0, 3), [P(0, 2)], INF), self.cir.radius)
        assert not eligible_to_move(sight_of(P(0, 2), [P(0, 3)], INF), self.cir.radius)

    def test_outside_innermost_moves(self):
        assert eligible_to_move(sight_of(P(0, 12), [P(0, 14)], INF), self.cir.radius)
        assert not eligible_to_move(sight_of(P(0, 14), [P(0, 12)], INF), self.cir.radius)

    def test_opposite_sides_do_not_constrain(self):
        assert eligible_to_move(sight_of(P(0, 2), [P(0, 14)], INF), self.cir.radius)
        assert eligible_to_move(sight_of(P(0, 14), [P(0, 2)], INF), self.cir.radius)

    def test_on_circle_robot_ignores_insiders(self):
        assert eligible_to_move(sight_of(P(0, 10), [P(0, 9)], INF), self.cir.radius)


# ---------------------------------------------------------------------------
# Positional cases
# ---------------------------------------------------------------------------


class TestClassifyPsi:
    p = params10()

    def test_on_target(self):
        assert classify_psi(sight_of(P(0, 10), [], 4.0), self.p).value == "psi1"

    def test_on_circle_off_target(self):
        q = Circle(CENTER, 10.0).point_at_angle(1.0)
        assert classify_psi(sight_of(q, [], 4.0), self.p).value == "psi0"

    def test_at_center(self):
        assert classify_psi(sight_of(P(0, 0), [], 4.0), self.p).value == "psi4"

    def test_inside_cannot_reach(self):
        # d + vis < rad: the circle is beyond reach.
        assert classify_psi(sight_of(P(0, 2), [], 4.0), self.p).value == "psi3"

    def test_inside_exactly_reaches(self):
        assert classify_psi(sight_of(P(0, 6), [], 4.0), self.p).value == "psi2"

    def test_inside_crosses(self):
        assert classify_psi(sight_of(P(0, 6), [], 5.0), self.p).value == "psi5"

    def test_outside_exactly_reaches(self):
        assert classify_psi(sight_of(P(0, 14), [], 4.0), self.p).value == "psi6"

    def test_outside_cannot_reach(self):
        assert classify_psi(sight_of(P(0, 16), [], 4.0), self.p).value == "psi7"

    def test_outside_crosses(self):
        assert classify_psi(sight_of(P(0, 12), [], 4.0), self.p).value == "psi8"

    def test_contention_across_circle(self):
        # Both robots sit on the ray through the top target, one on each
        # side, and see each other: contention beats the crossing classes.
        cfg = classify_psi(sight_of(P(0, 6), [P(0, 13)], 8.0), self.p)
        assert cfg.value == "psi9"
        assert dist(cfg.anchor, P(0, 10)) <= 1e-9
        assert dist(cfg.rival, P(0, 13)) <= 1e-9

    def test_no_contention_off_ray(self):
        assert classify_psi(sight_of(P(0, 6), [P(1, 13)], 8.0), self.p).value != "psi9"

    @pytest.mark.parametrize(
        "me, vis, others, value",
        [
            (P(0, 6), 4.0, [], "psi2"),
            (P(3, 4), 5.0, [], "psi2"),
            (P(0, 2), 4.0, [], "psi3"),
            (P(0, 6), 5.0, [], "psi5"),
            (P(0, 14), 4.0, [], "psi6"),
            (P(0, 16), 4.0, [], "psi7"),
            (P(0, 12), 4.0, [], "psi8"),
            (P(1, 12), 4.0, [], "psi8"),
            (P(0, 6), 8.0, [P(0, 13)], "psi9"),
            (P(0, 13), 8.0, [P(0, 6)], "psi9"),
        ],
    )
    def test_off_circle_anchor_is_the_aligned_target(self, me, vis, others, value):
        # compute_destination reads the aligned target from here only.
        psi = classify_psi(sight_of(me, others, vis), self.p)
        assert psi.value == value
        assert psi.anchor is _aligned_target(angle_of(me, CENTER), self.p)


# ---------------------------------------------------------------------------
# Destinations
# ---------------------------------------------------------------------------


class TestComputeDestination:
    p = params10()

    def test_far_inside_hops_outward_by_visibility(self):
        dest = destination(P(0, 2), 1.0, self.p, [])
        assert dist(dest, P(0, 3)) <= 1e-12

    def test_far_inside_blocked_takes_midpoint(self):
        dest = destination(P(0, 2), 1.0, self.p, [P(0, 4.5)])
        assert dist(dest, P(0, 2.5)) <= 1e-12

    def test_center_robot_steps_to_visibility_radius(self):
        dest = destination(P(0, 0), 2.0, self.p, [])
        assert dist(dest, P(2, 0)) <= 1e-12

    def test_reaching_robot_claims_aligned_target(self):
        # Claim distance = vis/4 = 1: pause one unit short of the circle.
        dest = destination(P(0, 6), 4.0, self.p, [])
        assert dist(dest, P(0, 9)) <= 1e-9

    def test_claimed_robot_finishes_from_hold_point(self):
        dest = destination(P(0, 9), 4.0, self.p, [])
        assert dist(dest, P(0, 10)) <= 1e-9

    def test_occupied_target_takes_midpoint(self):
        # The aligned target is crowded, so advance halfway to the touch point.
        dest = destination(P(0, 6), 4.0, self.p, [P(0.5, 9.7)])
        assert dist(dest, P(0, 8)) <= 1e-9

    def test_far_outside_hops_inward(self):
        dest = destination(P(0, 16), 4.0, self.p, [])
        assert dist(dest, P(0, 12)) <= 1e-12

    def test_on_target_stays(self):
        dest = destination(P(0, 10), 4.0, self.p, [])
        assert dist(dest, P(0, 10)) <= 1e-12

    def test_contention_inside_wins(self):
        dest = destination(P(0, 7), 8.0, self.p, [P(0, 13)])
        # The inside robot advances along the ray toward the target.
        assert abs(dest.x) <= 1e-9
        assert dest.y > 7.0

    @pytest.mark.parametrize("vis", [8.0, 12.0, 30.0])
    def test_contention_outside_never_claims(self, vis):
        # The contested target (0, 10) is vacant, but it is the inside
        # robot's: the outside robot keeps its radius, turning or waiting.
        me, others = P(0, 13), [P(0, 5)]
        sight = sight_of(me, others, vis)
        psi = classify_psi(sight, self.p)
        assert psi.value == "psi9" and psi.rival == P(0, 5)
        dest = compute_destination(sight, self.p, psi)
        assert abs(dist(dest, CENTER) - 13.0) <= 1e-9

    def test_moves_satisfy_direction_constraint(self):
        cases = [
            (P(0, 2), 1.0, []),
            (P(0, 6), 4.0, []),
            (P(0, 6), 4.0, [P(0.5, 9.7)]),
            (P(0, 16), 4.0, []),
            (P(3, 4), 4.0, []),
            (P(-7, 2), 6.0, [P(-6, 8)]),
        ]
        for me, vis, others in cases:
            dest = destination(me, vis, self.p, others)
            assert satisfies_direction_constraint(me, dest, CENTER), (me, dest)


class TestDirectionConstraint:
    def test_radial_outward(self):
        assert satisfies_direction_constraint(P(0, 2), P(0, 7), CENTER)

    def test_radial_inward(self):
        assert satisfies_direction_constraint(P(0, 7), P(0, 2), CENTER)

    def test_clockwise_rotation(self):
        assert satisfies_direction_constraint(P(0, 5), P(5, 0), CENTER)

    def test_counterclockwise_rejected(self):
        assert not satisfies_direction_constraint(P(0, 5), P(-5, 0), CENTER)

    def test_oblique_rejected(self):
        assert not satisfies_direction_constraint(P(0, 5), P(1, 7), CENTER)

    def test_no_move_allowed(self):
        assert satisfies_direction_constraint(P(3, 4), P(3, 4), CENTER)


# ---------------------------------------------------------------------------
# Steps and runs
# ---------------------------------------------------------------------------


class TestLocalStep:
    p = params10()

    def test_ineligible_robot_waits_with_tag(self):
        action = local_step(snap(P(0, 2), [P(0, 3)], 4.0), self.p)
        assert action.kind == "stay"
        assert action.tag.startswith("psi")

    def test_lone_inside_robot_hops(self):
        action = local_step(snap(P(0, 2), [], 1.0), self.p)
        assert action.kind == "move"
        assert action.tag == "psi3"

    def test_on_target_stays(self):
        action = local_step(snap(P(0, 10), [], 4.0), self.p)
        assert action.kind == "stay"
        assert action.tag == "psi1"


def test_one_aligned_target_lookup_per_activation(monkeypatch):
    # classify_psi looks the target up; compute_destination takes its anchor.
    lookups = []
    tags = collections.Counter()
    real_lookup, real_step = local_form._aligned_target, local_form.local_step

    def lookup(theta, params):
        lookups[-1] += 1
        return real_lookup(theta, params)

    def step(snapshot, params):
        lookups.append(0)
        action = real_step(snapshot, params)
        tags[action.tag] += 1
        return action

    monkeypatch.setattr(local_form, "_aligned_target", lookup)
    monkeypatch.setattr(local_form, "local_step", step)
    raw = dict(
        algorithm="local", n=16, rad=96.0, vis=48.0, scheduler="SSYNC", seed=1,
        placement="random-annulus",
    )
    run_scenario(parse_config(raw))
    assert all(tags[t] > 0 for t in ("psi1", "psi5", "psi8", "psi9"))
    assert max(lookups) == 1


def test_one_measure_from_center_per_activation(monkeypatch):
    # local_step measures the robot's distance and angle from C, and each
    # visible robot's distance, once; every later rule reads that Sight.
    measures, calls = [], []  # per local_step: measures, (name, is own) from C
    real_measure, real_step = local_form.measure, local_form.local_step
    state = {"me": None, "measuring": False}

    def measure(snapshot, c):
        measures[-1] += 1
        state["measuring"] = True
        try:
            return real_measure(snapshot, c)
        finally:
            state["measuring"] = False

    def from_center(real, name):
        def wrapped(p, q):
            if state["me"] is not None and not state["measuring"] and q == CENTER:
                calls[-1].append((name, p is state["me"]))
            return real(p, q)

        return wrapped

    def step(snapshot, params):
        measures.append(0)
        calls.append([])
        state["me"] = snapshot.self_pos
        try:
            return real_step(snapshot, params)
        finally:
            state["me"] = None

    monkeypatch.setattr(local_form, "measure", measure)
    monkeypatch.setattr(local_form, "local_step", step)
    monkeypatch.setattr(local_form, "dist", from_center(local_form.dist, "dist"))
    monkeypatch.setattr(local_form, "angle_of", from_center(local_form.angle_of, "angle_of"))
    raw = dict(
        algorithm="local", n=16, rad=96.0, vis=48.0, scheduler="SSYNC", seed=1,
        placement="random-annulus",
    )
    run_scenario(parse_config(raw))
    assert len(measures) > 100 and set(measures) == {1}
    # Only the contention test asks for another robot's angle from C.
    assert {call for step_calls in calls for call in step_calls} == {("angle_of", False)}


class TestIsFormedLocal:
    def test_exact_formation(self):
        p = params10()
        assert is_formed_local(list(p.targets), p)

    def test_permuted_formation(self):
        p = params10()
        pts = list(p.targets)
        assert is_formed_local(pts[::-1], p)

    def test_doubled_target_rejected(self):
        p = params10()
        pts = list(p.targets)
        pts[1] = pts[0]
        assert not is_formed_local(pts, p)

    def test_near_miss_rejected(self):
        p = params10()
        pts = list(p.targets)
        pts[0] = P(pts[0].x, pts[0].y + 1e-3)
        assert not is_formed_local(pts, p)


def test_formation_is_fixed_point():
    p = params10()
    for vis in (5.0, 10.0):
        for i, me in enumerate(p.targets):
            others = [
                q for j, q in enumerate(p.targets) if j != i and dist(q, me) <= vis
            ]
            action = local_step(snap(me, others, vis), p)
            assert action.kind == "stay"


def test_end_to_end_async_convergence():
    n, rad = 4, 24.0
    p = LocalParams.make(n, rad)
    positions = [
        Circle(CENTER, rad - 4 - 2 * i).point_at_angle(math.pi / 2 - (2 * i + 1) * math.pi / n)
        for i in range(n)
    ]
    world = WorldState(
        tuple(Robot(vis_radius=rad, frame=FRAME_FULL_AXES) for _ in positions),
        tuple(positions),
    )
    trace = run(
        world,
        make_local_algorithm(p),
        Schedule("ASYNC", seed=3, fairness_bound=3 * n),
        lambda w: is_formed_local(w.positions, p),
        max_cycles=200 * n,
    )
    assert trace.outcome == OUTCOME_CONVERGED, trace.diagnosis
    assert trace.min_separation >= 2.0 - 1e-9
