"""Tests for the look-compute-move scheduler core."""

import dataclasses
import importlib.util
import json
import math
import operator
import random
import re
import sys
from itertools import compress
from pathlib import Path

import pytest
from conftest import round_of
from test_golden import CORPUS

from ucircle.geometry import (
    EPS,
    GeometryError,
    MotionSegment,
    Point,
    dist,
    min_separation_during_motion,
)
from ucircle.harness import (
    build_algorithm,
    curated_local_configs,
    curated_placement,
    curated_rad,
    nonuniform_variant,
    parse_config,
    run_scenario,
)
from ucircle.simcore import (
    FRAME_FULL_AXES,
    FRAME_Y_ONLY,
    OUTCOME_BUDGET,
    OUTCOME_CONVERGED,
    OUTCOME_FAULT,
    OUTCOME_STALL,
    SAFE_SEPARATION,
    Action,
    CollisionFault,
    Robot,
    Schedule,
    Snapshot,
    Trace,
    TraceEvent,
    WorldState,
    _all_would_stay,
    _decider,
    _destination,
    _sight,
    next_activation,
    run,
    take_snapshot,
)

P = Point
ROOT = Path(__file__).resolve().parent.parent


def make_world(positions, **kw):
    return WorldState(tuple(Robot(**kw) for _ in positions), tuple(positions))


# ---------------------------------------------------------------------------
# Snapshots and frames
# ---------------------------------------------------------------------------


def seen_points(world, i):
    """The world Points robot i sees on a first look, in index order, as the
    engine's decision memo builds them from `_sight`."""
    return tuple(compress(world.positions, _sight(world, i)))


def snapshot_of(world, i):
    """Robot i's snapshot as the engine takes it: the world-level filter,
    then the frame step."""
    return take_snapshot(world.robots[i], world.positions[i], seen_points(world, i))


def reference_snapshot(world, i):
    """A snapshot by its definition: every robot within vis + EPS, through
    the observer's frame."""
    obs, at = world.robots[i], world.positions[i]

    def to_local(p):
        if obs.frame == FRAME_FULL_AXES:
            return p
        return Point((p.x - at.x) * obs.chirality, p.y - at.y)

    others = tuple(
        to_local(p)
        for j, p in enumerate(world.positions)
        if j != i and dist(p, at) <= obs.vis_radius + EPS
    )
    return Snapshot(to_local(at), others, obs.vis_radius)


def signed_point(rng, span):
    """A random Point within `span` of the origin in x and y, its y often a
    zero of either sign."""
    return P(rng.uniform(-span, span), rng.choice([0.0, -0.0, rng.uniform(-span, span)]))


def snapshot_bits(snap):
    return [(p.x.hex(), p.y.hex()) for p in (snap.self_pos, *snap.others)], snap.vis_radius


class TestSnapshots:
    def test_full_axes_sees_world_coordinates(self):
        w = make_world([P(1, 2), P(4, 6)], frame=FRAME_FULL_AXES)
        snap = snapshot_of(w, 0)
        assert snap.self_pos == P(1, 2)
        assert snap.others == (P(4, 6),)

    def test_y_only_translates_to_self(self):
        w = make_world([P(1, 2), P(4, 6)], frame=FRAME_Y_ONLY)
        snap = snapshot_of(w, 0)
        assert snap.self_pos == P(0, 0)
        assert snap.others == (P(3, 4),)

    def test_y_only_mirrors_x_with_chirality(self):
        w = WorldState((Robot(frame=FRAME_Y_ONLY, chirality=-1), Robot()), (P(1, 2), P(4, 6)))
        snap = snapshot_of(w, 0)
        assert snap.others == (P(-3, 4),)

    def test_visibility_filter(self):
        w = make_world([P(0, 0), P(3, 0), P(30, 0)], vis_radius=5.0)
        snap = snapshot_of(w, 0)
        assert snap.others == (P(3, 0),)

    def test_visibility_boundary_inclusive(self):
        w = make_world([P(0, 0), P(5, 0)], vis_radius=5.0)
        assert snapshot_of(w, 0).others == (P(5, 0),)

    @pytest.mark.parametrize("vis", [math.inf, 7.5])
    @pytest.mark.parametrize("frame", [FRAME_FULL_AXES, FRAME_Y_ONLY])
    @pytest.mark.parametrize("chirality", [1, -1])
    def test_bits_match_the_frame_definition(self, vis, frame, chirality):
        # Random worlds, zeros of both signs, and points at exactly vis + EPS
        # from the observer and one float beyond it.
        rng = random.Random(f"{vis}:{frame}:{chirality}")
        edge = 7.5 + EPS
        for trial in range(40):
            at = P(rng.choice([0.0, -0.0, rng.uniform(-9, 9)]), rng.choice([0.0, -0.0, 3.25]))
            points = [at, P(at.x + edge, at.y), P(at.x, at.y - math.nextafter(edge, 99.0))]
            points += [P(at.x, -0.0), P(-0.0, at.y), P(0.0, 0.0)]
            points += [P(rng.uniform(-12, 12), rng.uniform(-12, 12)) for _ in range(trial % 9)]
            rng.shuffle(points)
            robots = tuple(Robot(vis, chirality, frame) for _ in points)
            w = WorldState(robots, tuple(points))
            for i in range(len(points)):
                assert snapshot_bits(snapshot_of(w, i)) == snapshot_bits(reference_snapshot(w, i))

    @pytest.mark.parametrize("frame, chirality", [(FRAME_FULL_AXES, 1), (FRAME_Y_ONLY, -1)])
    def test_visibility_is_the_reference_rule(self, frame, chirality):
        # Robots at exactly vis + EPS are seen, one float beyond are not, and
        # near the edge in every direction the filter is `dist <= vis + EPS`.
        vis = 7.5
        edge = vis + EPS
        beyond = math.nextafter(edge, math.inf)
        rng = random.Random(f"edge:{frame}")
        at = P(0.0, 0.0)
        on_edge = [P(edge, 0.0), P(0.0, -edge), P(-edge, -0.0)]
        past_edge = [P(beyond, 0.0), P(-0.0, beyond), P(-beyond, 0.0)]
        assert all(dist(p, at) == edge for p in on_edge)
        assert all(dist(p, at) == beyond for p in past_edge)
        near = []
        for _ in range(60):
            a = rng.uniform(-math.pi, math.pi)
            r = edge * (1.0 + rng.randint(-3, 3) * 2.0**-52)
            near.append(P(r * math.cos(a), r * math.sin(a)))
        points = [at, *on_edge, *past_edge, *near]
        w = WorldState(tuple(Robot(vis, chirality, frame) for _ in points), tuple(points))
        seen = [p for p in points[1:] if dist(p, at) <= vis + EPS]
        assert 3 < len(seen) < len(points) - 4
        snap = snapshot_of(w, 0)
        assert len(snap.others) == len(seen)
        assert snapshot_bits(snap) == snapshot_bits(reference_snapshot(w, 0))
        if frame == FRAME_FULL_AXES:
            assert all(map(operator.is_, snap.others, seen))

    @pytest.mark.parametrize("vis", [math.inf, 6.0])
    def test_resight_matches_sight(self, vis):
        # Random worlds and moves that cross the boundary, stay on it, swap a
        # zero's sign or hand a robot a new Point of equal value: the sight
        # updated from the last look is None exactly when the robot stands
        # on the same Point object and sees the same Point objects as a
        # first look gives, and otherwise the flags of a first look.
        rng = random.Random(f"holds:{vis}")
        edge = 6.0 + EPS
        held = changed = 0
        for _ in range(300):
            n = rng.randint(2, 9)
            robots = tuple(Robot(vis) for _ in range(n))
            before = tuple(signed_point(rng, 8) for _ in range(n))
            after = list(before)
            for j in rng.sample(range(n), rng.randint(0, min(3, n))):
                p, anchor = before[j], before[rng.randrange(n)]
                after[j] = rng.choice(
                    [
                        P(p.x, p.y),
                        P(-p.x, p.y),
                        P(anchor.x + edge * (1 + rng.randint(-2, 2) * 2.0**-52), anchor.y),
                        P(rng.uniform(-20, 20), rng.uniform(-20, 20)),
                    ]
                )
            w0, w1 = WorldState(robots, before), WorldState(robots, tuple(after))
            for i in range(n):
                seen_by = _sight(w0, i)
                # A first look's flags are the rule itself.
                rule = [j != i and dist(p, before[i]) <= vis + EPS for j, p in enumerate(before)]
                assert seen_by == rule
                seen = tuple(compress(before, seen_by))
                now = seen_points(w1, i)
                same = after[i] is before[i] and len(now) == len(seen)
                same = same and all(map(operator.is_, now, seen))
                flags = _sight(w1, i, before, seen_by)
                if same:
                    assert flags is None
                else:
                    assert flags == _sight(w1, i)
                assert _sight(w1, i, None, seen_by) == _sight(w1, i)
                held += same
                changed += not same
        assert held > 100 and changed > 100

    @pytest.mark.parametrize("vis", [math.inf, 7.5])
    @pytest.mark.parametrize(
        "frame, chirality", [(FRAME_Y_ONLY, 1), (FRAME_Y_ONLY, -1), (FRAME_FULL_AXES, 1)]
    )
    def test_snapshot_from_the_previous_one(self, vis, frame, chirality):
        # A Snapshot built from the observer's previous one is the fresh one
        # bit for bit. A y-only observer on the same Point that sees the same
        # robots keeps the previous local Point of each robot that did not
        # move.
        rng = random.Random(f"previous:{vis}:{frame}:{chirality}")
        observer = Robot(vis, chirality, frame)
        kept = 0
        for _ in range(200):
            n = rng.randint(2, 10)
            at = P(rng.choice([0.0, -0.0, rng.uniform(-5, 5)]), rng.choice([0.0, -0.0, 2.5]))
            before = [at] + [signed_point(rng, 9) for _ in range(n - 1)]
            after = list(before)
            for j in rng.sample(range(1, n), rng.randint(0, min(2, n - 1))):
                p = before[j]
                after[j] = rng.choice([P(p.x, p.y), P(-p.x, -p.y), P(rng.uniform(-9, 9), 0.0)])
            if rng.random() < 0.2:
                after[0] = P(at.x, at.y)
            robots = (observer,) * n
            w0, w1 = WorldState(robots, tuple(before)), WorldState(robots, tuple(after))
            seen0, seen1 = seen_points(w0, 0), seen_points(w1, 0)
            previous = (at, seen0, take_snapshot(observer, at, seen0))
            snap = take_snapshot(observer, after[0], seen1, previous)
            assert snapshot_bits(snap) == snapshot_bits(take_snapshot(observer, after[0], seen1))
            same_robots = [j for j in range(1, n) if dist(after[j], at) <= vis + EPS]
            if frame == FRAME_Y_ONLY and after[0] is at:
                if same_robots == [j for j in range(1, n) if dist(before[j], at) <= vis + EPS]:
                    was = previous[2]
                    assert snap.self_pos is was.self_pos
                    for k, j in enumerate(same_robots):
                        assert (snap.others[k] is was.others[k]) == (after[j] is before[j])
                        kept += after[j] is before[j]
        if frame == FRAME_Y_ONLY:
            assert kept > 100

    def test_move_dest_interpreted_in_local_frame(self):
        # A mirrored y-only robot asking to move to local (1, 0) must move
        # to world x - 1.
        w = WorldState((Robot(frame=FRAME_Y_ONLY, chirality=-1),), (P(10, 0),))
        new, _, _ = round_of(w, [0], lambda s: Action(P(1, 0)))
        assert dist(new.positions[0], P(9, 0)) < 1e-12


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


class TestNextActivation:
    def test_fsync_activates_all(self):
        sched = Schedule("FSYNC")
        for rnd in range(5):
            assert next_activation(sched, 4, rnd) == (0, 1, 2, 3)

    def test_ssync_nonempty_and_fair(self):
        fb = 3
        sched = Schedule("SSYNC", seed=17, fairness_bound=fb)
        n = 6
        last_seen = {i: -1 for i in range(n)}
        for rnd in range(60):
            active = next_activation(sched, n, rnd)
            assert active
            assert all(0 <= i < n for i in active)
            for i in active:
                last_seen[i] = rnd
            for i, seen in last_seen.items():
                assert rnd - seen < fb, f"robot {i} starved"

    def test_ssync_round_that_draws_nobody_activates_one_robot(self):
        # With fairness_bound > n, rounds 3..9 mod 10 force nobody; rounds
        # 35, 46, 56, 57 and 64 draw nobody either, so one robot is taken
        # at random.
        sched = Schedule("SSYNC", seed=1, fairness_bound=10)
        fallback = {35: (1,), 46: (0,), 56: (0,), 57: (2,), 64: (2,)}
        assert {r: next_activation(sched, 3, r) for r in fallback} == fallback
        assert all(next_activation(sched, 3, r) for r in range(200))

    def test_async_has_no_rounds(self):
        # ASYNC has no rounds: `run` hands it to the event loop.
        with pytest.raises(ValueError):
            next_activation(Schedule("ASYNC", seed=5), 7, 0)

    def test_determinism(self):
        sched = Schedule("SSYNC", seed=3, fairness_bound=2)
        a = [next_activation(sched, 5, r) for r in range(20)]
        b = [next_activation(sched, 5, r) for r in range(20)]
        assert a == b

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Schedule("RANDOM")

    def test_bad_fairness_rejected(self):
        with pytest.raises(ValueError):
            Schedule("SSYNC", fairness_bound=0)


# ---------------------------------------------------------------------------
# Cycle execution
# ---------------------------------------------------------------------------


class TestExecuteCycle:
    def test_stationary_world_unchanged(self):
        w = make_world([P(0, 0), P(5, 0)])
        new, events, sep = round_of(w, [0, 1], lambda s: Action())
        assert new.positions == w.positions
        assert sep == math.inf  # no pair has a mover
        phases = [e.phase for e in events]
        assert phases == ["look"] * 2

    def test_simple_move(self):
        w = make_world([P(0, 0)])

        new, events, _ = round_of(w, [0], lambda s: Action(P(3, 4), "hop"))
        assert dist(new.positions[0], P(3, 4)) < 1e-12
        move_events = [e for e in events if e.phase == "move"]
        assert len(move_events) == 1
        assert move_events[0].dest == P(3, 4)
        assert move_events[0].tag == "hop"

    def test_inactive_robots_do_not_look(self):
        w = make_world([P(0, 0), P(9, 0)])
        _, events, _ = round_of(w, [1], lambda s: Action())
        assert {e.robot for e in events} == {1}

    def test_head_on_collision_faults(self):
        w = make_world([P(0, 0), P(6, 0)])

        def algo(snap: Snapshot):
            # Both robots charge at the other one.
            return Action(snap.others[0])

        with pytest.raises(CollisionFault):
            round_of(w, [0, 1], algo)

    def test_moving_past_parked_robot_faults(self):
        w = make_world([P(0, 0), P(5, 1.2)])

        def algo(snap: Snapshot):
            return Action(P(10, 0)) if snap.self_pos == P(0, 0) else Action()

        with pytest.raises(CollisionFault):
            round_of(w, [0, 1], algo)

    def test_parallel_motion_keeps_separation(self):
        w = make_world([P(0, 0), P(0, 2.5)])

        def algo(snap: Snapshot):
            return Action(P(snap.self_pos.x + 8, snap.self_pos.y))

        new, _, sep = round_of(w, [0, 1], algo)
        assert abs(sep - 2.5) < 1e-12
        assert dist(new.positions[0], P(8, 0)) < 1e-12

    def test_unknown_robot_rejected(self):
        w = make_world([P(0, 0)])
        with pytest.raises(KeyError):
            round_of(w, [7], lambda s: Action())


def _round_outcome(world, active, algo, floor):
    """execute_cycle's answer with `floor`: ("fault", message, separation)
    or ("ok", positions, events, minimum)."""
    try:
        new, events, sep = round_of(world, active, algo, 0, floor)
    except CollisionFault as exc:
        return "fault", str(exc), exc.separation
    return "ok", new.positions, [ev.to_jsonl() for ev in events], sep


# Floors above, at and below the fault threshold, and the default.
FLOORS = (math.inf, 40.0, 4.0, 2.5, SAFE_SEPARATION, 1.0, 0.0)


def _random_round(rng, n=12):
    """A world of n robots more than 2.1 apart in a 24 x 24 square, and an
    algorithm that moves one to four of them by up to 3 along each axis."""
    spots: list[Point] = []
    while len(spots) < n:
        p = P(rng.uniform(0, 24), rng.uniform(0, 24))
        if all(dist(p, q) > 2.1 for q in spots):
            spots.append(p)
    steps = {
        p: P(p.x + rng.uniform(-3, 3), p.y + rng.uniform(-3, 3))
        for p in rng.sample(spots, rng.randrange(1, 5))
    }

    def algo(snap: Snapshot):
        dest = steps.get(snap.self_pos)
        return Action() if dest is None else Action(dest)

    return make_world(spots), algo


def _brute_round(world, active, algo, cycle):
    """A round's collision test by its definition, every pair with a mover
    tested in (a, b) order: ("fault", message, separation) of the first pair
    closer than SAFE_SEPARATION, else ("ok", the smallest separation)."""
    positions, t0 = world.positions, world.clock
    moves = {}
    for i in active:
        action = algo(snapshot_of(world, i))
        if action.dest is not None and dist(action.dest, positions[i]) > EPS:
            moves[i] = action.dest
    t1 = t0 + max((dist(positions[i], d) for i, d in moves.items()), default=1.0)

    def segments(i):
        p = positions[i]
        if i not in moves:
            return [MotionSegment(p, p, t0, t1)]
        arrive = t0 + dist(p, moves[i])
        walk = [MotionSegment(p, moves[i], t0, arrive)]
        return walk + [MotionSegment(moves[i], moves[i], arrive, t1)] if arrive < t1 else walk

    low = math.inf
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if a not in moves and b not in moves:
                continue
            sep = min(min_separation_during_motion(s, q) for s in segments(a) for q in segments(b))
            if sep < SAFE_SEPARATION:
                return "fault", f"robots {a} and {b} reach separation {sep:.6g} during cycle {cycle}", sep
            low = min(low, sep)
    return "ok", low


class TestSyncPruning:
    """A finite `floor` lets a round skip the pairs that cannot come closer
    than both the floor and the fault threshold: the fault, the new world
    and the events stay the same, and the round returns the run's minimum,
    `min(floor, the round's minimum)`."""

    def test_fault_is_the_same(self):
        # Pairs (1, 4) and (2, 3) charge head on while robot 0 holds far
        # away. Under a finite floor the pairs before (1, 4) are skipped,
        # and (1, 4) still faults first.
        w = make_world([P(60, 60), P(0, 30), P(0, 0), P(6, 0), P(6, 30)])

        def algo(snap: Snapshot):
            me = snap.self_pos
            return Action() if me.x > 50 else Action(P(3, me.y))

        outcomes = {_round_outcome(w, range(5), algo, floor) for floor in FLOORS}
        assert outcomes == {("fault", "robots 1 and 4 reach separation 0 during cycle 0", 0.0)}

    def test_a_still_robot_pairs_with_the_movers_above_it_in_order(self):
        # Robots 1 and 2 move, 0 and 3 stay. Pairs (0, 2) and (1, 3) both
        # fault, and (0, 2) comes first in (a, b) order, though its first
        # robot is still: a walk that tests the movers' pairs first would
        # name robots 1 and 3.
        w = make_world([P(0, 0), P(6, 30), P(6, 0), P(0, 30)])

        def algo(snap: Snapshot):
            me = snap.self_pos
            return Action(P(1, me.y)) if me.x > 5 else Action()

        want = _brute_round(w, range(4), algo, 0)
        assert want == ("fault", "robots 0 and 2 reach separation 1 during cycle 0", 1.0)
        outcomes = {_round_outcome(w, range(4), algo, floor) for floor in FLOORS}
        assert outcomes == {want}

    def test_random_rounds(self, monkeypatch):
        import ucircle.simcore as simcore

        tested = Counted(simcore.min_separation_during_motion)
        monkeypatch.setattr(simcore, "min_separation_during_motion", tested)
        rng = random.Random(19)
        kinds, skipped = set(), 0
        for _ in range(150):
            w, algo = _random_round(rng)
            active = range(len(w.robots))
            tested.calls = 0
            free = _round_outcome(w, active, algo, math.inf)
            n_free = tested.calls
            kinds.add(free[0])
            for floor in FLOORS[1:]:
                tested.calls = 0
                got = _round_outcome(w, active, algo, floor)
                skipped += n_free - tested.calls
                if free[0] == "fault":
                    assert got == free
                    continue
                assert got[:3] == free[:3]
                # A skipped pair never lowers the run's minimum: it is the
                # floor-free round's minimum, or the floor.
                assert got[3] == min(free[3], floor)
                assert min(got[3], floor) == min(free[3], floor)
        assert kinds == {"fault", "ok"} and skipped > 0

    def test_round_returns_the_runs_minimum(self):
        # SSYNC rounds against the brute force, under finite floors below,
        # at and above each round's minimum: the round returns the run's
        # minimum, min(floor, brute force), or raises the brute force's fault.
        rng = random.Random(29)
        sched = Schedule("SSYNC", seed=29)
        kinds, floor_kept, floor_lowered = set(), 0, 0
        for cycle in range(120):
            w, algo = _random_round(rng)
            active = next_activation(sched, len(w.robots), cycle)
            want = _brute_round(w, active, algo, cycle)
            kinds.add(want[0])
            low = want[-1]
            for floor in (*FLOORS[1:], low, low + 1e-9, rng.uniform(0.0, 12.0)):
                try:
                    _, _, got = round_of(w, active, algo, cycle, floor)
                except CollisionFault as exc:
                    assert want == ("fault", str(exc), exc.separation)
                    continue
                assert want[0] == "ok" and got == min(floor, low), (cycle, floor)
                floor_kept += got == floor < low
                floor_lowered += got == low < floor
        assert kinds == {"fault", "ok"} and floor_kept > 0 and floor_lowered > 0


# ---------------------------------------------------------------------------
# Trace format
# ---------------------------------------------------------------------------


class TestTraceFormat:
    def test_event_line_is_json(self):
        ev = TraceEvent(1.5, 3, 2, "move", P(0.1, -2.25), dest=P(1, 1), tag="psi3")
        rec = json.loads(ev.to_jsonl())
        assert rec == {
            "clock": 1.5,
            "cycle": 3,
            "robot": 2,
            "phase": "move",
            "x": 0.1,
            "y": -2.25,
            "dest_x": 1.0,
            "dest_y": 1.0,
            "tag": "psi3",
        }

    def test_floats_round_trip_exactly(self):
        x = 1.0 / 3.0
        ev = TraceEvent(0.0, 0, 0, "look", P(x, -x))
        for line in ev.to_jsonl().splitlines():
            rec = json.loads(line)
            assert rec["x"] == x and rec["y"] == -x

    def test_optional_fields_omitted(self):
        for line in TraceEvent(0.0, 0, 0, "look", P(0, 0)).to_jsonl().splitlines():
            rec = json.loads(line)
            assert "dest_x" not in rec and "tag" not in rec

    def test_look_writes_wait_look_and_compute(self):
        text = TraceEvent(1.5, 2, 3, "look", P(0.25, -2.0), tag="psi5").to_jsonl()
        assert text == (
            '{"clock": 1.5, "cycle": 2, "robot": 3, "phase": "wait", "x": 0.25, "y": -2}\n'
            '{"clock": 1.5, "cycle": 2, "robot": 3, "phase": "look", "x": 0.25, "y": -2}\n'
            '{"clock": 1.5, "cycle": 2, "robot": 3, "phase": "compute", "x": 0.25, "y": -2, '
            '"tag": "psi5"}\n'
        )

    def test_signed_zeros_print_their_own_sign(self):
        # 0.0 == -0.0, but each field prints its own sign, on a look's three
        # lines and on a move's one.
        events = [
            TraceEvent(-0.0, 0, 0, "look", P(-0.0, 0.0), tag="t"),
            TraceEvent(0.0, 0, 1, "move", P(0.0, -0.0), P(-0.0, 0.0), "t"),
        ]
        text = "".join(ev.to_jsonl() for ev in events)
        fields = [
            re.findall(r'"(?:clock|robot|x|y|dest_x|dest_y)": (-?\d+)', line)
            for line in text.splitlines()
        ]
        assert fields == [
            ["-0", "0", "-0", "0"],
            ["-0", "0", "-0", "0"],
            ["-0", "0", "-0", "0"],
            ["0", "1", "0", "-0", "-0", "0"],
        ]

    def test_trace_writes_each_point_with_its_own_sign(self):
        # `Trace.to_jsonl` shares the text of a Point object between events
        # that stand on it, and never between equal Points: 0.0 == -0.0.
        plus, minus, shared = P(0.0, 1.0), P(-0.0, 1.0), P(-0.0, -0.0)
        assert plus == minus and plus is not minus
        events = [
            TraceEvent(0.0, 0, 0, "move", plus, shared),
            TraceEvent(0.5, 0, 1, "look", minus),
            TraceEvent(1.0, 0, 2, "move", shared, minus),
            TraceEvent(1.5, 1, 0, "look", shared),
            TraceEvent(2.0, 1, 1, "move", plus, plus),
        ]
        w = WorldState((Robot(),) * 3, (plus, minus, shared))
        text = Trace(events, OUTCOME_BUDGET, w, w, 2, math.inf).to_jsonl()
        fields = [re.findall(r'"(?:x|y|dest_x|dest_y)": (-?\d+)', line) for line in text.splitlines()]
        assert fields == [
            ["0", "1", "-0", "-0"],
            *[["-0", "1"]] * 3,
            ["-0", "-0", "-0", "1"],
            *[["-0", "-0"]] * 3,
            ["0", "1", "0", "1"],
        ]
        assert text == "".join(ev.to_jsonl() for ev in events)

    def test_event_is_immutable(self):
        ev = TraceEvent(0.0, 0, 0, "look", P(0, 0))
        for field, value in [("clock", 1.0), ("pos", P(1, 1)), ("dest", P(2, 2)), ("tag", "x")]:
            with pytest.raises(AttributeError):
                setattr(ev, field, value)
        assert ev == TraceEvent(0.0, 0, 0, "look", P(0, 0))

    def test_keyword_construction_and_defaults(self):
        ev = TraceEvent(clock=2.5, cycle=1, robot=3, phase="look", pos=P(1, 2))
        assert (ev.clock, ev.cycle, ev.robot, ev.phase, ev.pos) == (2.5, 1, 3, "look", P(1, 2))
        assert ev.dest is None and ev.tag == ""
        assert ev == TraceEvent(2.5, 1, 3, "look", P(1, 2), None, "")
        move = TraceEvent(2.5, 1, 3, "move", P(1, 2), tag="psi5", dest=P(4, 2))
        assert move.dest == P(4, 2) and move.tag == "psi5"


def _records_of(trace):
    """The records the trace text must parse back into, built from the events
    field by field: a look's wait, look and compute (the tag on compute
    only), and a move with its destination."""
    records = []
    for clock, cycle, robot, phase, pos, dest, tag in trace.events:
        at = {"x": pos.x, "y": pos.y}
        if dest is not None:
            at.update(dest_x=dest.x, dest_y=dest.y)
        phases = ["wait", "look", "compute"] if phase == "look" else [phase]
        for shown in phases:
            rec = {"clock": clock, "cycle": cycle, "robot": robot, "phase": shown, **at}
            if tag and shown not in ("wait", "look"):
                rec["tag"] = tag
            records.append(rec)
    return records


def _parses_back(trace):
    lines = trace.to_jsonl().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    return all(line.endswith("\n") for line in lines) and records == _records_of(trace)


class TestTraceSerialiser:
    """`Trace.to_jsonl` writes each event's lines in event order: the text
    parses back into the events' fields, three records per look."""

    def test_async_run_with_moves_between_looks(self):
        cfg = dict(algorithm="local", n=8, rad=24.0, vis=12.0, scheduler="ASYNC", seed=2)
        trace, _ = run_scenario(parse_config(dict(cfg, placement="random-disc")))
        phases = [ev.phase for ev in trace.events]
        # A move is written at its look's end, then other robots look
        # before it arrives: the events of different looks interleave.
        assert any(a == "move" and b == "look" for a, b in zip(phases, phases[1:]))
        assert set(phases) == {"look", "move"}
        assert _parses_back(trace)
        assert phases.count("look") == trace.to_jsonl().count('"phase": "compute"')

    def test_ssync_run_with_moves(self):
        cfg = dict(algorithm="global", n=6, a=4.0, scheduler="SSYNC", seed=2)
        trace, _ = run_scenario(parse_config(dict(cfg, placement="random-disc")))
        assert trace.outcome == OUTCOME_CONVERGED
        assert sum(ev.phase == "move" for ev in trace.events) > 6
        assert _parses_back(trace)

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(algorithm="global", n=9, a=4.0, scheduler="ASYNC", seed=3),
            dict(
                algorithm="global",
                n=5,
                a=6.0,
                scheduler="SSYNC",
                seed=1,
                placement=[[-1.5, 0.0], [1.5, 0.0], [-2.5, 3.0], [2.5, 3.0], [0.0, -5.0]],
            ),
        ],
        ids=["async", "ssync"],
    )
    def test_fault_run(self, cfg):
        trace, _ = run_scenario(parse_config(dict({"placement": "random-disc"}, **cfg)))
        assert trace.outcome == OUTCOME_FAULT
        assert _parses_back(trace)

    def test_empty_trace(self):
        w = make_world([P(0, 0)])
        assert Trace([], OUTCOME_BUDGET, w, w, 0, math.inf).to_jsonl() == ""


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def gather_at_x(target_x):
    """Tiny test algorithm: every robot walks to x=target_x on its own row."""

    def algo(snap: Snapshot):
        if abs(snap.self_pos.x - target_x) <= 1e-12:
            return Action()
        return Action(P(target_x, snap.self_pos.y), "walk")

    return algo


def all_at_x(target_x):
    def term(world: WorldState) -> bool:
        return all(abs(p.x - target_x) <= 1e-9 for p in world.positions)

    return term


class TestRun:
    @pytest.mark.parametrize("kind", ["FSYNC", "SSYNC", "ASYNC"])
    def test_converges_under_all_schedulers(self, kind):
        w = make_world([P(0, 0), P(5, 4), P(-3, 8)])
        sched = Schedule(kind, seed=2, fairness_bound=3)
        trace = run(w, gather_at_x(1.0), sched, all_at_x(1.0), max_cycles=200)
        assert trace.outcome == OUTCOME_CONVERGED
        assert all(abs(p.x - 1.0) <= 1e-9 for p in trace.final.positions)
        assert trace.min_separation >= 2.0

    def test_budget_exhaustion(self):
        w = make_world([P(0, 0)])

        def wander(snap: Snapshot):
            # Never settles: keeps hopping between two columns.
            x = 0.0 if snap.self_pos.x > 0.5 else 1.0
            return Action(P(x, snap.self_pos.y))

        trace = run(w, wander, Schedule("FSYNC"), lambda w_: False, max_cycles=10)
        assert trace.outcome == OUTCOME_BUDGET
        assert trace.cycles_used == 10

    def test_stall_diagnosis_carries_tags(self):
        from ucircle.simcore import Action

        w = make_world([P(0, 0), P(9, 0)])

        def tagged_stay(snap: Snapshot):
            return Action(tag="blocked")

        trace = run(w, tagged_stay, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        assert trace.diagnosis == "blocked"

    @pytest.mark.parametrize("kind", ["FSYNC", "SSYNC", "ASYNC"])
    def test_stall_before_any_move_reports_the_initial_separation(self, kind):
        w = make_world([P(0, 0), P(9, 0), P(0, 4)])
        stay = lambda snap: Action(tag="blocked")  # noqa: E731
        trace = run(w, stay, Schedule(kind, seed=1), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        assert not any(e.phase == "move" for e in trace.events)
        assert trace.min_separation == 4.0

    def test_fault_outcome(self):
        w = make_world([P(0, 0), P(6, 0)])

        def charge(snap: Snapshot):
            return Action(snap.others[0]) if snap.others else Action()

        trace = run(w, charge, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_FAULT
        assert trace.min_separation < 2.0

    def test_convergence_checked_before_moving(self):
        w = make_world([P(1, 0), P(1, 5)])
        trace = run(w, gather_at_x(1.0), Schedule("FSYNC"), all_at_x(1.0), max_cycles=5)
        assert trace.outcome == OUTCOME_CONVERGED
        assert trace.cycles_used == 0
        assert trace.events == []

    def test_async_trace_byte_identical_on_rerun(self):
        w = make_world([P(0, 0), P(5, 4), P(-3, 8)])
        sched = Schedule("ASYNC", seed=77, fairness_bound=9)
        t1 = run(w, gather_at_x(2.0), sched, all_at_x(2.0), max_cycles=300)
        t2 = run(w, gather_at_x(2.0), sched, all_at_x(2.0), max_cycles=300)
        assert t1.outcome == OUTCOME_CONVERGED
        assert t1.to_jsonl() == t2.to_jsonl()

    def test_async_interleaves_observations(self):
        # Under ASYNC a robot can be observed mid-move; the run must still
        # converge for a confluent algorithm.
        w = make_world([P(0, 0), P(10, 6)])
        sched = Schedule("ASYNC", seed=4, fairness_bound=6)
        trace = run(w, gather_at_x(3.0), sched, all_at_x(3.0), max_cycles=100)
        assert trace.outcome == OUTCOME_CONVERGED

    def test_clock_monotone(self):
        w = make_world([P(0, 0), P(7, 3)])
        trace = run(
            w, gather_at_x(1.0), Schedule("SSYNC", seed=9), all_at_x(1.0), max_cycles=50
        )
        clocks = [e.clock for e in trace.events]
        assert clocks == sorted(clocks)

    def test_bad_budget_rejected(self):
        w = make_world([P(0, 0)])
        with pytest.raises(ValueError):
            run(w, lambda s: Action(), Schedule("FSYNC"), lambda w_: True, max_cycles=0)


# ---------------------------------------------------------------------------
# Each decision once per round
# ---------------------------------------------------------------------------


class Counted:
    """Wraps a callable and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def step_to_x(target_x, step=2.0):
    """Like gather_at_x, but at most `step` units per move."""

    def algo(snap: Snapshot):
        dx = target_x - snap.self_pos.x
        if abs(dx) <= 1e-12:
            return Action()
        return Action(P(snap.self_pos.x + max(-step, min(step, dx)), snap.self_pos.y))

    return algo


class TestComputeOnce:
    @pytest.mark.parametrize("kind", ["FSYNC", "SSYNC"])
    def test_sync_round_asks_each_robot_at_most_once(self, kind):
        w = make_world([P(0, 0), P(5, 4), P(-3, 8), P(9, -6)])
        algo = Counted(step_to_x(1.0))
        sched = Schedule(kind, seed=3, fairness_bound=2)
        trace = run(w, algo, sched, all_at_x(1.0), max_cycles=50)
        assert trace.outcome == OUTCOME_CONVERGED
        assert trace.cycles_used > 1
        assert algo.calls <= len(w.robots) * trace.cycles_used

    def test_sync_round_snapshots_each_robot_once(self, monkeypatch):
        # The stall check, its diagnosis and the round share one snapshot
        # and one decision per robot, so snapshots and decisions match.
        import ucircle.simcore as simcore

        snapshots = Counted(simcore.take_snapshot)
        monkeypatch.setattr(simcore, "take_snapshot", snapshots)
        w = make_world([P(0, 0), P(5, 4), P(-3, 8), P(9, -6)])
        algo = Counted(step_to_x(1.0))
        trace = run(w, algo, Schedule("SSYNC", seed=3, fairness_bound=2), all_at_x(1.0), max_cycles=50)
        assert trace.outcome == OUTCOME_CONVERGED
        assert trace.cycles_used > 1
        assert snapshots.calls == algo.calls

    def test_stall_diagnosis_reuses_the_stall_check(self):
        w = make_world([P(0, 0), P(9, 0), P(0, 9)])
        algo = Counted(lambda snap: Action(tag=f"x{snap.self_pos.x:g}"))
        trace = run(w, algo, Schedule("SSYNC", seed=1), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        assert trace.diagnosis == "x0,x9"
        assert algo.calls == len(w.robots)

    @pytest.mark.parametrize("kind", ["FSYNC", "SSYNC", "ASYNC"])
    def test_stall_after_moves_keeps_tags(self, kind):
        # Robots walk to x=1, then stay with a tag naming their row; one
        # robot ends on a zero-length move, which also counts as staying.
        def algo(snap: Snapshot):
            if abs(snap.self_pos.x - 1.0) > 1e-12:
                return Action(P(1.0, snap.self_pos.y), "walk")
            if snap.self_pos.y == 0:
                return Action(snap.self_pos, "hold")
            return Action(tag="row")

        w = make_world([P(0, 0), P(5, 4), P(-3, 8)])
        sched = Schedule(kind, seed=5, fairness_bound=3)
        trace = run(w, algo, sched, lambda w_: False, max_cycles=100)
        assert trace.outcome == OUTCOME_STALL
        assert trace.diagnosis == "hold,row"

    def test_async_checks_only_after_an_arrival(self, monkeypatch):
        import ucircle.simcore as simcore

        stall_check = Counted(simcore._all_would_stay)
        monkeypatch.setattr(simcore, "_all_would_stay", stall_check)
        term = Counted(all_at_x(1.0))
        # Robots 0 and 1 already sit on x=1 and keep looking, with nothing
        # in flight, between the short steps of robot 2.
        w = make_world([P(1, 0), P(1, 5), P(20, 9)])
        sched = Schedule("ASYNC", seed=4, fairness_bound=6)
        trace = run(w, step_to_x(1.0), sched, term, max_cycles=200)
        assert trace.outcome == OUTCOME_CONVERGED
        arrivals = sum(1 for e in trace.events if e.phase == "move")
        looks = sum(1 for e in trace.events if e.phase == "look")
        assert looks > arrivals + 1
        # The first quiescent checkpoint, then at most one per arrival.
        assert term.calls <= arrivals + 1
        assert stall_check.calls <= arrivals + 1

    def test_async_first_checkpoint_waits_for_an_arrival(self):
        # Every robot's first look starts a move, so nothing is quiescent
        # before the first arrival: termination is first asked then.
        clocks = []

        def term(world):
            clocks.append(world.clock)
            return all_at_x(1.0)(world)

        w = make_world([P(-20, 0), P(20, 5), P(30, 9)])
        trace = run(w, step_to_x(1.0), Schedule("ASYNC", seed=2, fairness_bound=3), term, 200)
        assert trace.outcome == OUTCOME_CONVERGED
        for i in range(len(w.robots)):
            phases = [e.phase for e in trace.events if e.robot == i]
            assert phases[:2] == ["look", "move"]
        moves = [e for e in trace.events if e.phase == "move"]
        assert clocks[0] >= min(e.clock + dist(e.pos, e.dest) for e in moves)

    def test_async_stall_verdict_asks_each_robot_once(self):
        w = make_world([P(0, 0), P(9, 0), P(0, 9)])
        algo = Counted(lambda snap: Action(tag="blocked"))
        trace = run(w, algo, Schedule("ASYNC", seed=1), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        # The first look's decision is reused by the verdict, which asks
        # only the robots that have not looked yet.
        assert algo.calls == len(w.robots)

    def test_sync_rounds_without_a_move_reuse_the_decisions(self, monkeypatch):
        # Only the last robot moves, and it sits out some rounds: those
        # rounds move nobody, so they reuse the decisions of their world.
        import ucircle.simcore as simcore

        snapshots = Counted(simcore.take_snapshot)
        monkeypatch.setattr(simcore, "take_snapshot", snapshots)
        w = make_world([P(1, 0), P(1, 4), P(1, 8), P(1, 12), P(1, 16), P(-19, 20)])
        algo = Counted(step_to_x(1.0))
        sched = Schedule("SSYNC", seed=2, fairness_bound=4)
        trace = run(w, algo, sched, all_at_x(1.0), max_cycles=100)
        assert trace.outcome == OUTCOME_CONVERGED
        moving = {e.cycle for e in trace.events if e.phase == "move"}
        assert trace.cycles_used - len(moving) >= 3
        assert algo.calls <= len(w.robots) * (len(moving) + 1)
        assert snapshots.calls == algo.calls

    def test_async_look_after_an_arrival_decides_afresh(self):
        # Robot 0 walks to x=1 in steps while the others, parked there, keep
        # looking. Each decision is tagged with where robot 0 stands in its
        # snapshot, which must be where it stands at that look.
        def algo(snap: Snapshot):
            walker = next(p for p in (snap.self_pos, *snap.others) if p.y == 0)
            action = step_to_x(1.0)(snap)
            return Action(action.dest, tag=f"{walker.x:.17g}")

        counted = Counted(algo)
        w = make_world([P(-19, 0), P(1, 5), P(1, 10), P(1, 15)])
        trace = run(w, counted, Schedule("ASYNC", seed=3, fairness_bound=2), all_at_x(1.0), 400)
        assert trace.outcome == OUTCOME_CONVERGED
        walks = [
            MotionSegment(e.pos, e.dest, e.clock, e.clock + dist(e.pos, e.dest))
            for e in trace.events
            if e.phase == "move"
        ]
        assert len(walks) == 10 and {e.robot for e in trace.events if e.phase == "move"} == {0}

        def walker_at(t):
            started = [seg for seg in walks if seg.t0 <= t]
            return started[-1].position_at(t) if started else w.positions[0]

        looks = [e for e in trace.events if e.phase == "look"]
        for e in looks:
            assert e.tag == f"{walker_at(e.clock).x:.17g}", e
        # Looks with nobody in motion shared decisions.
        assert counted.calls < len(looks)

    def test_the_memo_reuses_a_decision_only_for_the_same_points(self):
        # Equal points are not enough: 0.0 == -0.0, yet robot 1 sees the
        # sign of robot 0's x. A decision is the record (Action, world
        # move), reused whole.
        algo = Counted(lambda snap: Action(tag=str(snap.others)))
        robots = (Robot(), Robot())
        w = WorldState(robots, (P(0.0, 0.0), P(5.0, 0.0)))
        decide = _decider(algo, 2)
        first = decide(w, 1)
        assert first[1] is None
        assert decide(w, 1) is first and algo.calls == 1
        # Another world on the same Points, at another clock: the same view.
        later = WorldState(robots, w.positions, clock=3.0)
        assert decide(later, 1) is first and algo.calls == 1
        flipped = WorldState(robots, (P(-0.0, 0.0), w.positions[1]))
        assert flipped.positions == w.positions
        assert decide(flipped, 1)[0].tag != first[0].tag
        assert algo.calls == 2
        # A new run starts with no views, so robot 1 is asked again.
        assert _decider(algo, 2)(w, 1)[0].tag == first[0].tag
        assert algo.calls == 3

    def test_memo_is_a_fresh_look_bit_for_bit(self):
        # A seeded run of worlds through one memo: robots of every frame and
        # chirality, finite and infinite radii, moves across the sight
        # boundary, zeros of both signs, new Points of equal value, and the
        # same positions tuple at another clock. Each decision is the fresh
        # look's, its world move the fresh `_destination`, and the algorithm
        # runs once per new view: a robot asked on another Point object, or
        # seeing other Point objects, than when it was last asked.
        def algo(snap: Snapshot):
            bits = snapshot_bits(snap)
            return Action(P(float(len(snap.others)), snap.self_pos.x), tag=repr(bits))

        rng = random.Random("memo")
        kinds = [(math.inf, 1, FRAME_Y_ONLY), (math.inf, -1, FRAME_Y_ONLY), (6.0, -1, FRAME_Y_ONLY)]
        kinds += [(6.0, 1, FRAME_FULL_AXES), (math.inf, 1, FRAME_FULL_AXES), (4.0, 1, FRAME_Y_ONLY)]
        robots = tuple(Robot(*rng.choice(kinds)) for _ in range(9))
        n, edge = len(robots), 6.0 + EPS
        positions = tuple(signed_point(rng, 9) for _ in range(n))
        counted = Counted(algo)
        decide = _decider(counted, n)
        last_view = [None] * n
        views = moves = 0
        for step in range(400):
            roll = rng.random()
            if roll < 0.15:
                positions = tuple(positions)  # the same tuple, another clock
            elif roll < 0.25:
                positions = tuple(list(positions))  # a new tuple of the same Points
            else:
                moved = list(positions)
                for j in rng.sample(range(n), rng.randint(1, 3)):
                    p, anchor = moved[j], positions[rng.randrange(n)]
                    moved[j] = rng.choice(
                        [
                            P(p.x, p.y),
                            P(-p.x, p.y),
                            P(anchor.x + edge * (1 + rng.randint(-2, 2) * 2.0**-52), anchor.y),
                            P(anchor.x, anchor.y - rng.uniform(5.5, 6.5)),
                            signed_point(rng, 12),
                        ]
                    )
                positions = tuple(moved)
            world = WorldState(robots, positions, clock=float(step))
            for i in rng.sample(range(n), rng.randint(1, n)):
                got, move = decide(world, i)
                fresh = algo(take_snapshot(robots[i], positions[i], seen_points(world, i)))
                assert (got.tag, got.dest.x.hex(), got.dest.y.hex()) == (
                    fresh.tag,
                    fresh.dest.x.hex(),
                    fresh.dest.y.hex(),
                )
                want = _destination(world, i, fresh)
                assert (move is None) == (want is None)
                if move is not None:
                    assert (move.x.hex(), move.y.hex()) == (want.x.hex(), want.y.hex())
                    moves += 1
                view = (positions[i], seen_points(world, i))
                was = last_view[i]
                same = was is not None and was[0] is view[0] and len(was[1]) == len(view[1])
                if not (same and all(map(operator.is_, was[1], view[1]))):
                    views += 1
                last_view[i] = view
        assert counted.calls == views
        assert 300 < views < 2000 and moves > 300

    def test_async_look_decides_once_per_view(self, monkeypatch):
        # Robot 0 (vis 5) sees only robot 1, parked beside it, while robot 2
        # walks out of its sight in steps; robot 0 keeps looking with robot
        # 2 in flight. Its view never changes, so it is asked once.
        import ucircle.simcore as simcore

        snapshots = Counted(simcore.take_snapshot)
        monkeypatch.setattr(simcore, "take_snapshot", snapshots)
        parked = (P(0, 0), P(3, 0))
        w = make_world([*parked, P(30, 20)], vis_radius=5.0)
        views = {p: [] for p in parked}

        def algo(snap: Snapshot):
            if snap.self_pos in views:
                views[snap.self_pos].append(snap.others)
                return Action(tag="parked")
            return step_to_x(40.0)(snap)

        counted = Counted(algo)
        trace = run(w, counted, Schedule("ASYNC", seed=3, fairness_bound=2), all_at_x(40.0), 400)
        assert trace.outcome == OUTCOME_STALL
        walks = [e for e in trace.events if e.phase == "move"]
        assert len(walks) == 5 and {e.robot for e in walks} == {2}
        t_end = max(e.clock + dist(e.pos, e.dest) for e in walks)
        looks = [e for e in trace.events if e.phase == "look" and e.robot == 0]
        assert sum(1 for e in looks if e.clock < t_end) >= 5
        assert views == {P(0, 0): [(P(3, 0),)], P(3, 0): [(P(0, 0),)]}
        assert snapshots.calls == counted.calls

    def test_a_robot_entering_sight_as_another_leaves_is_a_new_view(self):
        # In round 0 robot 1 walks out of robot 0's sight and robot 2 into
        # it, so robot 0 sees one robot at both of its looks: a different
        # one, and it decides afresh (here in the stall check of round 1).
        views = []

        def algo(snap: Snapshot):
            if snap.self_pos == P(4, 0):
                return Action(P(9, 0), "out")
            if snap.self_pos == P(0, 9):
                return Action(P(0, 4), "in")
            if snap.self_pos == P(0, 0):
                views.append(snap.others)
            return Action(tag="still")

        counted = Counted(algo)
        w = make_world([P(0, 0), P(4, 0), P(0, 9)], vis_radius=5.0)
        trace = run(w, counted, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL and trace.cycles_used == 1
        assert views == [(P(4, 0),), (P(0, 4),)]
        # Round 0 asks all three; round 1 asks robot 0 and the two movers
        # at their new positions.
        assert counted.calls == 6

    def test_mirror_twins_decide_apart(self):
        # Mirrored y-only twins see equal snapshots whose zeros differ in
        # sign; each still gets its own decision.
        w = WorldState(
            (Robot(frame=FRAME_Y_ONLY, chirality=-1), Robot(frame=FRAME_Y_ONLY, chirality=1)),
            (P(-1.0, 0.0), P(1.0, 0.0)),
        )
        assert snapshot_of(w, 0) == snapshot_of(w, 1)

        def algo(snap: Snapshot):
            return Action(tag="neg" if math.copysign(1.0, snap.self_pos.x) < 0 else "pos")

        trace = run(w, algo, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.diagnosis == "neg,pos"

    def test_stall_check_asks_first_in_the_order_given(self):
        w = make_world([P(0, 0), P(9, 0), P(0, 9), P(9, 9), P(-9, 0)])
        asked = []

        def decide(world, i):
            asked.append(i)
            # A decision record: (Action, world move).
            if i == 4:
                return Action(P(5.0, 5.0), "go"), P(5.0, 5.0)
            return Action(tag="stay"), None

        assert not _all_would_stay(w, decide, [3, 0, 4, 1])
        assert asked == [3, 0, 4]
        asked.clear()
        assert not _all_would_stay(w, decide, [3, 0])
        assert asked == [3, 0, 1, 2, 4]
        asked.clear()
        assert _all_would_stay(w, lambda world, i: asked.append(i) or (Action(), None), [2, 4, 1])
        assert asked == [2, 4, 1, 0, 3]


def _seed1_global_ssync_configs():
    """Every tenth scene of the benchmark's seed-1 `global-ssync` list."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    raws = workloads.global_configs(1, workloads.GLOBAL_NS, workloads.GLOBAL_SEEDS_PER_CELL)
    return raws[::10]


# The FSYNC and SSYNC scenes of each golden entry, by entry name.
SYNC_GOLDEN = {
    name: sync
    for name, (raws, _) in CORPUS.items()
    if (sync := [raw for raw in raws if raw["scheduler"] != "ASYNC"])
}


@pytest.mark.parametrize(
    "raws",
    [*SYNC_GOLDEN.values(), _seed1_global_ssync_configs()],
    ids=[*SYNC_GOLDEN, "global-ssync-seed-1"],
)
def test_no_wasted_decision(raws, monkeypatch):
    """Under FSYNC and SSYNC, each algorithm call for robot i is followed by a
    look of i before i's next call: the stall check asks the robots in the
    order they look, and the world stays still until the first that would
    move is activated. Only the calls in a run's last world may go unused."""
    import ucircle.simcore as simcore

    log = []
    decider, look = simcore._decider, simcore._look

    def logged_decider(algorithm, n):
        asking = [None]  # (robot, positions) of the decision being made

        def algo(snapshot):
            log.append(("call", *asking[0]))
            return algorithm(snapshot)

        decide = decider(algo, n)

        def logged(world, i):
            asking[0] = (i, world.positions)
            return decide(world, i)

        return logged

    def logged_look(world, i, *args):
        action = look(world, i, *args)
        log.append(("look", i, world.positions))
        return action

    monkeypatch.setattr(simcore, "_decider", logged_decider)
    monkeypatch.setattr(simcore, "_look", logged_look)
    calls = 0
    for raw in raws:
        log.clear()
        trace, _ = run_scenario(parse_config(raw))
        unused = {}
        for kind, i, positions in log:
            if kind == "call":
                assert i not in unused, f"robot {i}'s decision was replaced before a look used it"
                unused[i] = positions
                calls += 1
            else:
                unused.pop(i, None)
        assert all(positions is trace.final.positions for positions in unused.values())
    assert calls > 0


class TestBadDestination:
    @pytest.mark.parametrize("bad", [P(math.nan, 0.0)])
    def test_counts_as_stay_in_the_stall_verdict(self, bad):
        w = make_world([P(0, 0), P(9, 0)])
        algo = lambda snap: Action(bad, tag="bad")  # noqa: E731
        trace = run(w, algo, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        assert trace.diagnosis == "bad"

    def test_infinite_destination_counts_as_a_move(self):
        w = make_world([P(0, 0), P(9, 0)])
        algo = lambda snap: Action(P(math.inf, 1.0))  # noqa: E731
        trace = run(w, algo, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_FAULT
        assert trace.cycles_used == 0

    @pytest.mark.parametrize("bad", [P(math.nan, 0.0)])
    def test_faults_only_in_an_executed_round(self, bad):
        # Robot 1 asks for a bad move; robot 0 keeps walking up, so the
        # world never stalls. The fault comes in the first round that
        # activates robot 1.
        def algo(snap: Snapshot):
            if snap.self_pos.x == 9:
                return Action(bad)
            return Action(P(snap.self_pos.x, snap.self_pos.y + 1.0))

        w = make_world([P(0, 0), P(9, 0)])
        sched = Schedule("SSYNC", seed=1, fairness_bound=6)
        first = next(c for c in range(50) if 1 in next_activation(sched, 2, c))
        assert first > 0
        trace = run(w, algo, sched, lambda w_: False, max_cycles=50)
        assert trace.outcome == OUTCOME_FAULT
        assert trace.cycles_used == first
        assert "non-finite move destination" in trace.diagnosis
        # Robot 1 is the only robot active in the faulting round, and its
        # look raised the fault: the trace ends with the round before.
        last = trace.events[-1]
        assert (last.cycle, last.robot, last.phase) == (first - 1, 0, "move")

    def test_a_faulting_round_keeps_its_earlier_looks(self):
        # Robot 0 looks first and would walk up; robot 1's look asks for a
        # NaN move. The trace ends with robot 0's look in the faulting round.
        def algo(snap: Snapshot):
            if snap.self_pos.x == 9:
                return Action(P(math.nan, 0.0))
            return Action(P(snap.self_pos.x, snap.self_pos.y + 1.0), "up")

        w = make_world([P(0, 0), P(9, 0)])
        trace = run(w, algo, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_FAULT and trace.cycles_used == 0
        assert trace.events == [TraceEvent(0.0, 0, 0, "look", P(0, 0), tag="up")]

    @pytest.mark.parametrize("bad", [P(math.nan, 0.0), P(math.inf, 1.0)])
    def test_async_invalid_move_ends_in_fault(self, bad):
        # The first look asks for the bad move: the run ends there, with no
        # event for that look, as a sync round's faulting look has none.
        w = make_world([P(0, 0), P(9, 0)])
        algo = lambda snap: Action(bad, tag="bad")  # noqa: E731
        trace = run(w, algo, Schedule("ASYNC", seed=1), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_FAULT
        assert "non-finite move destination" in trace.diagnosis
        assert trace.cycles_used == 0
        assert trace.events == []


class TestAsyncLooks:
    def test_look_sees_a_moving_robot_where_its_move_has_got_to(self):
        # Robot 0 makes one long move; robot 1 keeps looking while it is in
        # flight and must see it on the segment, at the fraction of the
        # move's duration that has passed at the look.
        seen = []

        def algo(snap: Snapshot):
            if snap.self_pos == P(0, 0):
                return Action(P(40, 0), "long")
            if snap.self_pos == P(20, 10):
                seen.append(snap.others[0])
            return Action()

        w = make_world([P(0, 0), P(20, 10)])
        trace = run(w, algo, Schedule("ASYNC", seed=3), lambda w_: False, max_cycles=200)
        (move,) = [e for e in trace.events if e.phase == "move"]
        duration = dist(move.pos, move.dest)
        looks = [
            e.clock
            for e in trace.events
            if e.robot == 1 and e.phase == "look" and move.clock < e.clock < move.clock + duration
        ]
        in_flight = [p for p in seen if 0 < p.x < 40]
        assert len(looks) > 10
        assert len(in_flight) == len(looks)
        for t, p in zip(looks, in_flight):
            frac = (t - move.clock) / duration
            assert p.x == pytest.approx(move.pos.x + frac * (move.dest.x - move.pos.x), abs=1e-9)
            assert p.y == pytest.approx(0.0, abs=1e-12)


class TestAsyncCollisions:
    """The ASYNC monitor checks a finished move against the whole past of
    every other robot, including robots that never moved and holds after
    an arrival."""

    def test_move_through_a_robot_that_never_moved(self):
        def algo(snap: Snapshot):
            if snap.self_pos == P(0, 0):
                return Action(P(10, 0), "cross")
            return Action()

        w = make_world([P(0, 0), P(5, 0.5)])
        trace = run(w, algo, Schedule("ASYNC", seed=1), lambda w_: False, max_cycles=10)
        assert trace.outcome == OUTCOME_FAULT
        assert trace.diagnosis == "robots 0 and 1 reach separation 0.5"
        assert trace.min_separation == pytest.approx(0.5)

    def test_move_through_a_hold_after_an_arrival(self):
        # Robot 0 steps up to (0, 6) and holds there. Robot 1 waits until it
        # sees robot 0 arrived, then crosses half a unit above its hold.
        def algo(snap: Snapshot):
            if snap.self_pos == P(0, 0):
                return Action(P(0, 6), "up")
            if snap.self_pos == P(10, 6.5) and P(0, 6) in snap.others:
                return Action(P(-10, 6.5), "cross")
            return Action()

        w = make_world([P(0, 0), P(10, 6.5)])
        trace = run(w, algo, Schedule("ASYNC", seed=1), lambda w_: False, max_cycles=20)
        assert [e.robot for e in trace.events if e.phase == "move"] == [0, 1]
        assert trace.outcome == OUTCOME_FAULT
        assert trace.diagnosis == "robots 1 and 0 reach separation 0.5"

    def test_prunes_no_pair_below_the_fault_threshold(self):
        # Robots 2 and 3 start 1.5 apart and never move, so the run's minimum
        # separation is below two units from the start. Robot 0 steps 0.2
        # away from robot 1, which starts 1.8 from it: the pair stays below
        # the threshold and must be tested even though it stays above 1.5.
        def algo(snap: Snapshot):
            if snap.self_pos == P(0, 0):
                return Action(P(-0.2, 0), "away")
            return Action()

        w = make_world([P(0, 0), P(1.8, 0), P(0, 50), P(1.5, 50)])
        trace = run(w, algo, Schedule("ASYNC", seed=1), lambda w_: False, max_cycles=10)
        assert [e.robot for e in trace.events if e.phase == "move"] == [0]
        assert trace.outcome == OUTCOME_FAULT
        assert trace.diagnosis == "robots 0 and 1 reach separation 1.8"
        assert trace.min_separation == pytest.approx(1.5)


def brute_force_min_separation(trace) -> float:
    """Smallest separation of any pair at any time, from the move events alone.

    Between two consecutive start or end times of a pair's moves both robots
    move at constant velocity, so the pair's closest approach on that interval
    is the closest point of one line segment to the origin. The run ends at
    the final world's clock: a move still in flight counts as far as it got.
    """
    end = trace.final.clock
    legs = [[] for _ in trace.initial.positions]
    for e in trace.events:
        if e.phase == "move":
            legs[e.robot].append((e.clock, e.clock + dist(e.pos, e.dest), e.pos, e.dest))

    def position(i, t):
        p = trace.initial.positions[i]
        for t0, t1, a, b in legs[i]:
            if t <= t0:
                break
            if t >= t1:
                p = b
                continue
            f = (t - t0) / (t1 - t0)
            return P(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))
        return p

    best = math.inf
    for i in range(len(legs)):
        for j in range(i + 1, len(legs)):
            times = {trace.initial.clock, end}.union(*(leg[:2] for leg in legs[i] + legs[j]))
            times = sorted(t for t in times if t <= end)
            rel = [position(i, t) - position(j, t) for t in times]
            best = min(best, rel[0].norm())
            for p, q in zip(rel, rel[1:]):
                d = q - p
                # Closest point to the origin on the segment from p to q.
                dd = d.x * d.x + d.y * d.y
                s = 0.0 if dd == 0.0 else min(1.0, max(0.0, -(p.x * d.x + p.y * d.y) / dd))
                best = min(best, P(p.x + s * d.x, p.y + s * d.y).norm())
    return best


def _local_async(n, kind, seed):
    rad = curated_rad(n)
    vis = rad / 2.0
    placement = curated_placement(kind, n, vis)
    return dict(
        algorithm="local", n=n, rad=rad, vis=vis, scheduler="ASYNC", seed=seed, placement=placement
    )


def _local(n, rad, vis, scheduler, seed, placement="random-disc"):
    return dict(
        algorithm="local", n=n, rad=rad, vis=vis, scheduler=scheduler, seed=seed,
        placement=placement,
    )


# Radii drawn for seed 6 over the seed-4 scenario: golden
# `local-nonuniform-async-stall`.
_NONUNIFORM_STALL = dict(
    nonuniform_variant(dict(curated_local_configs(seeds=(4,))[13], seed=6)), seed=4
)


def _global(n, seed, scheduler="ASYNC", a=4.0):
    return dict(
        algorithm="global", n=n, a=a, scheduler=scheduler, seed=seed, placement="random-disc"
    )


class TestAsyncMinSeparation:
    """`Trace.min_separation` is the exact minimum over all pairs and times
    up to the final world's clock, so no pair the monitor skipped came
    closer than the pairs it tested: under every scheduler the pairs that
    cannot come closer than the run's minimum so far, and in an SSYNC or
    FSYNC round also the pairs with no mover."""

    @pytest.mark.parametrize(
        "raw",
        [
            _local_async(16, "center", 1),
            _local_async(16, "center", 3),
            _local_async(24, "contention", 1),
            _NONUNIFORM_STALL,
            _global(4, 1),
            _global(5, 0),
            _global(5, 3),
            _global(6, 7, "SSYNC"),
            _global(8, 2, "FSYNC", a=3.5),
            # The size of the global-ssync benchmark corpus, where a round
            # skips most pairs; in each the minimum is set during a round,
            # below the initial placement's.
            _global(16, 3, "SSYNC", a=5.0),
            _global(16, 4, "SSYNC", a=5.0),
            _global(20, 4, "SSYNC", a=5.0),
            _local(16, 96.0, 48.0, "SSYNC", 2),
        ],
        ids=[
            "local-16-center-1",
            "local-16-center-3",
            "local-24-contention-1",
            "nonuniform-stall",
            "global-4-seed-1",
            "global-5-seed-0",
            "global-5-seed-3",
            "global-6-ssync-seed-7",
            "global-8-fsync-seed-2",
            "global-16-ssync-seed-3",
            "global-16-ssync-seed-4",
            "global-20-ssync-seed-4",
            "local-16-ssync-stall",
        ],
    )
    def test_matches_a_brute_force_over_the_moves(self, raw):
        trace, _ = run_scenario(parse_config(raw))
        assert trace.outcome in (OUTCOME_CONVERGED, OUTCOME_STALL)
        assert any(e.phase == "move" for e in trace.events)
        assert trace.min_separation == pytest.approx(brute_force_min_separation(trace), abs=1e-9)

    @pytest.mark.parametrize(
        "raw, reported",
        [
            (dict(_local(6, 36.0, 18.0, "ASYNC", 28), max_cycles=3), 9.092339640423646),
            (dict(_global(6, 5), max_cycles=3), 2.924364659133099),
        ],
        ids=["local-6-seed-28", "global-6-seed-5"],
    )
    def test_a_budget_end_checks_the_moves_in_flight(self, raw, reported):
        # Each run comes closest during a move that has begun but not
        # arrived when the budget runs out.
        trace, summary = run_scenario(parse_config(raw))
        assert trace.outcome == OUTCOME_BUDGET
        end = trace.final.clock
        moves = [e for e in trace.events if e.phase == "move"]
        assert any(e.clock < end < e.motion().t1 for e in moves)
        assert trace.min_separation == pytest.approx(brute_force_min_separation(trace), abs=1e-9)
        assert summary.min_pairwise_dist == trace.min_separation == reported


class TestLookReplay:
    """Every look of a run with limited sight is the decision a fresh
    algorithm makes from the world at that look's clock, however many looks
    the engine answered from a robot's last view. The world is rebuilt from
    the trace alone: a robot stands where its last started move has got to,
    which `MotionSegment.position_at` gives to the engine's bits."""

    @pytest.mark.parametrize(
        "raw",
        [
            _local(8, 24.0, 12.0, "ASYNC", 2),
            _local_async(16, "center", 3),
            _local(16, 96.0, 48.0, "SSYNC", 2),
            _local(8, 48.0, 16.0, "SSYNC", 5, "random-annulus"),
            _NONUNIFORM_STALL,
        ],
        ids=[
            "local-async-n8",
            "local-async-16-center-3",
            "local-ssync-16-stall",
            "local-ssync-8-annulus",
            "local-nonuniform-async-stall",
        ],
    )
    def test_each_look_is_the_decision_of_its_world(self, raw):
        config = parse_config(raw)
        trace, _ = run_scenario(config)
        algo, _ = build_algorithm(config)
        start = trace.initial
        walks = [[] for _ in start.robots]
        for e in trace.events:
            if e.phase == "move":
                end = e.clock + dist(e.pos, e.dest)
                walks[e.robot].append(MotionSegment(e.pos, e.dest, e.clock, end))

        def world_at(t):
            positions = []
            for i, p in enumerate(start.positions):
                started = [seg for seg in walks[i] if seg.t0 <= t]
                positions.append(started[-1].position_at(t) if started else p)
            return WorldState(start.robots, tuple(positions), t)

        def bits(p):
            return None if p is None else (p.x.hex(), p.y.hex())

        resting = set(start.positions) | {seg.end for w in walks for seg in w}
        looks = sees_a_walk = 0
        for k, e in enumerate(trace.events):
            if e.phase != "look":
                continue
            world = world_at(e.clock)
            assert bits(world.positions[e.robot]) == bits(e.pos)
            snap = snapshot_of(world, e.robot)
            action = algo(snap)
            assert e.tag == action.tag, e
            after = next((f for f in trace.events[k + 1 :] if f.robot == e.robot), None)
            moved = after.dest if after is not None and after.phase == "move" else None
            assert bits(moved) == bits(_destination(world, e.robot, action)), e
            looks += 1
            sees_a_walk += any(q not in resting for q in snap.others)
        assert looks > 50 and sum(map(len, walks)) > 40
        # Under ASYNC some looks see a robot part way along its walk.
        assert (sees_a_walk > 0) == (config.scheduler == "ASYNC")


# ---------------------------------------------------------------------------
# Per-event value types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cls, fields",
    [
        (Point, dict(x=-0.0, y=2.5)),
        (MotionSegment, dict(start=P(0.0, -0.0), end=P(-0.0, 1.0), t0=0.5, t1=1.5)),
        (WorldState, dict(robots=(Robot(6.0),), positions=(P(-0.0, 0.0),), clock=2.0)),
    ],
)
def test_value_types_are_frozen_dataclasses(cls, fields):
    # Each stores its fields through its own `__init__`, yet stays a frozen
    # dataclass: no assignment or deletion, and equality, hash and repr of
    # a fresh build, the sign of a zero included.
    value = cls(*fields.values())
    again = cls(**fields)
    assert value == again and hash(value) == hash(again) and repr(value) == repr(again)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, fields[name])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    name, first = next(iter(fields.items()))
    changed = dataclasses.replace(value, **{name: first})
    assert changed == value and changed is not value
    assert [f.name for f in dataclasses.fields(cls)] == list(fields)


def test_value_types_keep_their_defaults_and_checks():
    assert repr(P(-0.0, 0.0)) == "Point(x=-0.0, y=0.0)"
    assert P(0.0, 0.0) == P(-0.0, 0.0) and hash(P(0.0, 0.0)) == hash(P(-0.0, 0.0))
    world = WorldState((Robot(),), (P(1.0, 2.0),))
    assert world.clock == 0.0 and world == WorldState(robots=(Robot(),), positions=(P(1.0, 2.0),))
    assert dataclasses.replace(world, clock=3.0).clock == 3.0
    with pytest.raises(GeometryError, match=r"^motion segment with t1 < t0$"):
        MotionSegment(P(0, 0), P(1, 0), 1.0, 0.5)
    seg = MotionSegment(P(0, 0), P(1, 0), 0.0, 1.0)
    with pytest.raises(GeometryError, match=r"^motion segment with t1 < t0$"):
        dataclasses.replace(seg, t1=-1.0)
