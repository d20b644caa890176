"""Tests for the look-compute-move scheduler core."""

import json
import math
import operator
import random
import re

import pytest
from conftest import round_of

from ucircle.geometry import EPS, MotionSegment, Point, dist, min_separation_during_motion
from ucircle.harness import (
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
    _decisions,
    next_activation,
    run,
    take_snapshot,
)

P = Point


def make_world(positions, **kw):
    return WorldState(tuple(Robot(**kw) for _ in positions), tuple(positions))


# ---------------------------------------------------------------------------
# Snapshots and frames
# ---------------------------------------------------------------------------


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


def snapshot_bits(snap):
    return [(p.x.hex(), p.y.hex()) for p in (snap.self_pos, *snap.others)], snap.vis_radius


class TestSnapshots:
    def test_full_axes_sees_world_coordinates(self):
        w = make_world([P(1, 2), P(4, 6)], frame=FRAME_FULL_AXES)
        snap = take_snapshot(w, 0)
        assert snap.self_pos == P(1, 2)
        assert snap.others == (P(4, 6),)

    def test_y_only_translates_to_self(self):
        w = make_world([P(1, 2), P(4, 6)], frame=FRAME_Y_ONLY)
        snap = take_snapshot(w, 0)
        assert snap.self_pos == P(0, 0)
        assert snap.others == (P(3, 4),)

    def test_y_only_mirrors_x_with_chirality(self):
        w = WorldState((Robot(frame=FRAME_Y_ONLY, chirality=-1), Robot()), (P(1, 2), P(4, 6)))
        snap = take_snapshot(w, 0)
        assert snap.others == (P(-3, 4),)

    def test_visibility_filter(self):
        w = make_world([P(0, 0), P(3, 0), P(30, 0)], vis_radius=5.0)
        snap = take_snapshot(w, 0)
        assert snap.others == (P(3, 0),)

    def test_visibility_boundary_inclusive(self):
        w = make_world([P(0, 0), P(5, 0)], vis_radius=5.0)
        assert take_snapshot(w, 0).others == (P(5, 0),)

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
                assert snapshot_bits(take_snapshot(w, i)) == snapshot_bits(reference_snapshot(w, i))

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
        snap = take_snapshot(w, 0)
        assert len(snap.others) == len(seen)
        assert snapshot_bits(snap) == snapshot_bits(reference_snapshot(w, 0))
        if frame == FRAME_FULL_AXES:
            assert all(map(operator.is_, snap.others, seen))

    def test_move_dest_interpreted_in_local_frame(self):
        # A mirrored y-only robot asking to move to local (1, 0) must move
        # to world x - 1.
        w = WorldState((Robot(frame=FRAME_Y_ONLY, chirality=-1),), (P(10, 0),))
        new, _, _ = round_of(w, [0], lambda s: Action("move", P(1, 0)))
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
        new, events, sep = round_of(w, [0, 1], lambda s: Action("stay"))
        assert new.positions == w.positions
        assert sep == math.inf  # no pair has a mover
        phases = [e.phase for e in events]
        assert phases == ["look"] * 2

    def test_simple_move(self):
        w = make_world([P(0, 0)])

        new, events, _ = round_of(w, [0], lambda s: Action("move", P(3, 4), "hop"))
        assert dist(new.positions[0], P(3, 4)) < 1e-12
        move_events = [e for e in events if e.phase == "move"]
        assert len(move_events) == 1
        assert move_events[0].dest == P(3, 4)
        assert move_events[0].tag == "hop"

    def test_inactive_robots_do_not_look(self):
        w = make_world([P(0, 0), P(9, 0)])
        _, events, _ = round_of(w, [1], lambda s: Action("stay"))
        assert {e.robot for e in events} == {1}

    def test_head_on_collision_faults(self):
        w = make_world([P(0, 0), P(6, 0)])

        def algo(snap: Snapshot):
            # Both robots charge at the other one.
            return Action("move", snap.others[0])

        with pytest.raises(CollisionFault):
            round_of(w, [0, 1], algo)

    def test_moving_past_parked_robot_faults(self):
        w = make_world([P(0, 0), P(5, 1.2)])

        def algo(snap: Snapshot):
            return Action("move", P(10, 0)) if snap.self_pos == P(0, 0) else Action("stay")

        with pytest.raises(CollisionFault):
            round_of(w, [0, 1], algo)

    def test_parallel_motion_keeps_separation(self):
        w = make_world([P(0, 0), P(0, 2.5)])

        def algo(snap: Snapshot):
            return Action("move", P(snap.self_pos.x + 8, snap.self_pos.y))

        new, _, sep = round_of(w, [0, 1], algo)
        assert abs(sep - 2.5) < 1e-12
        assert dist(new.positions[0], P(8, 0)) < 1e-12

    def test_unknown_robot_rejected(self):
        w = make_world([P(0, 0)])
        with pytest.raises(KeyError):
            round_of(w, [7], lambda s: Action("stay"))


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
        return Action("stay") if dest is None else Action("move", dest)

    return make_world(spots), algo


def _brute_round(world, active, algo, cycle):
    """A round's collision test by its definition, every pair with a mover
    tested in (a, b) order: ("fault", message, separation) of the first pair
    closer than SAFE_SEPARATION, else ("ok", the smallest separation)."""
    positions, t0 = world.positions, world.clock
    moves = {}
    for i in active:
        action = algo(take_snapshot(world, i))
        if action.kind == "move" and dist(action.dest, positions[i]) > EPS:
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
            return Action("stay") if me.x > 50 else Action("move", P(3, me.y))

        outcomes = {_round_outcome(w, range(5), algo, floor) for floor in FLOORS}
        assert outcomes == {("fault", "robots 1 and 4 reach separation 0 during cycle 0", 0.0)}

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
            return Action("stay")
        return Action("move", P(target_x, snap.self_pos.y), "walk")

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
            return Action("move", P(x, snap.self_pos.y))

        trace = run(w, wander, Schedule("FSYNC"), lambda w_: False, max_cycles=10)
        assert trace.outcome == OUTCOME_BUDGET
        assert trace.cycles_used == 10

    def test_stall_diagnosis_carries_tags(self):
        from ucircle.simcore import Action

        w = make_world([P(0, 0), P(9, 0)])

        def tagged_stay(snap: Snapshot):
            return Action("stay", tag="blocked")

        trace = run(w, tagged_stay, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        assert trace.diagnosis == "blocked"

    @pytest.mark.parametrize("kind", ["FSYNC", "SSYNC", "ASYNC"])
    def test_stall_before_any_move_reports_the_initial_separation(self, kind):
        w = make_world([P(0, 0), P(9, 0), P(0, 4)])
        stay = lambda snap: Action("stay", tag="blocked")  # noqa: E731
        trace = run(w, stay, Schedule(kind, seed=1), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        assert not any(e.phase == "move" for e in trace.events)
        assert trace.min_separation == 4.0

    def test_fault_outcome(self):
        w = make_world([P(0, 0), P(6, 0)])

        def charge(snap: Snapshot):
            return Action("move", snap.others[0]) if snap.others else Action("stay")

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
            run(w, lambda s: Action("stay"), Schedule("FSYNC"), lambda w_: True, max_cycles=0)


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
            return Action("stay")
        return Action("move", P(snap.self_pos.x + max(-step, min(step, dx)), snap.self_pos.y))

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
        algo = Counted(lambda snap: Action("stay", tag=f"x{snap.self_pos.x:g}"))
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
                return Action("move", P(1.0, snap.self_pos.y), "walk")
            if snap.self_pos.y == 0:
                return Action("move", snap.self_pos, "hold")
            return Action("stay", tag="row")

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
        algo = Counted(lambda snap: Action("stay", tag="blocked"))
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
            return Action(action.kind, action.dest, tag=f"{walker.x:.17g}")

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

    def test_a_table_holds_only_for_the_same_points(self):
        # Equal points are not enough: 0.0 == -0.0, yet robot 1 sees the
        # sign of robot 0's x.
        algo = lambda snap: Action("stay", tag=str(snap.others))  # noqa: E731
        robots = (Robot(), Robot())
        w = WorldState(robots, (P(0.0, 0.0), P(5.0, 0.0)))
        table = _decisions(w, algo, None)
        later = WorldState(robots, w.positions, clock=3.0)
        assert _decisions(later, algo, table) is table
        flipped = WorldState(robots, (P(-0.0, 0.0), w.positions[1]))
        assert flipped.positions == w.positions
        fresh = _decisions(flipped, algo, table)
        assert fresh is not table
        assert fresh(1).tag != table(1).tag

    def test_mirror_twins_decide_apart(self):
        # Mirrored y-only twins see equal snapshots whose zeros differ in
        # sign; each still gets its own decision.
        w = WorldState(
            (Robot(frame=FRAME_Y_ONLY, chirality=-1), Robot(frame=FRAME_Y_ONLY, chirality=1)),
            (P(-1.0, 0.0), P(1.0, 0.0)),
        )
        assert take_snapshot(w, 0) == take_snapshot(w, 1)

        def algo(snap: Snapshot):
            return Action("stay", tag="neg" if math.copysign(1.0, snap.self_pos.x) < 0 else "pos")

        trace = run(w, algo, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.diagnosis == "neg,pos"


class TestBadDestination:
    @pytest.mark.parametrize("bad", [P(math.nan, 0.0), None])
    def test_counts_as_stay_in_the_stall_verdict(self, bad):
        w = make_world([P(0, 0), P(9, 0)])
        algo = lambda snap: Action("move", bad, tag="bad")  # noqa: E731
        trace = run(w, algo, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        assert trace.diagnosis == "bad"

    def test_infinite_destination_counts_as_a_move(self):
        w = make_world([P(0, 0), P(9, 0)])
        algo = lambda snap: Action("move", P(math.inf, 1.0))  # noqa: E731
        trace = run(w, algo, Schedule("FSYNC"), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_FAULT
        assert trace.cycles_used == 0

    @pytest.mark.parametrize("bad", [P(math.nan, 0.0), None])
    def test_faults_only_in_an_executed_round(self, bad):
        # Robot 1 asks for a bad move; robot 0 keeps walking up, so the
        # world never stalls. The fault comes in the first round that
        # activates robot 1.
        def algo(snap: Snapshot):
            if snap.self_pos.x == 9:
                return Action("move", bad)
            return Action("move", P(snap.self_pos.x, snap.self_pos.y + 1.0))

        w = make_world([P(0, 0), P(9, 0)])
        sched = Schedule("SSYNC", seed=1, fairness_bound=6)
        first = next(c for c in range(50) if 1 in next_activation(sched, 2, c))
        assert first > 0
        trace = run(w, algo, sched, lambda w_: False, max_cycles=50)
        assert trace.outcome == OUTCOME_FAULT
        assert trace.cycles_used == first
        assert "non-finite move destination" in trace.diagnosis

    @pytest.mark.parametrize("bad", [P(math.nan, 0.0), None, P(math.inf, 1.0)])
    def test_async_invalid_move_ends_in_fault(self, bad):
        # The first look asks for the bad move: the run ends there, with no
        # events for that look, as a sync round drops its own.
        w = make_world([P(0, 0), P(9, 0)])
        algo = lambda snap: Action("move", bad, tag="bad")  # noqa: E731
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
                return Action("move", P(40, 0), "long")
            if snap.self_pos == P(20, 10):
                seen.append(snap.others[0])
            return Action("stay")

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
                return Action("move", P(10, 0), "cross")
            return Action("stay")

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
                return Action("move", P(0, 6), "up")
            if snap.self_pos == P(10, 6.5) and P(0, 6) in snap.others:
                return Action("move", P(-10, 6.5), "cross")
            return Action("stay")

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
                return Action("move", P(-0.2, 0), "away")
            return Action("stay")

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
    is the closest point of one line segment to the origin.
    """
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
            times = sorted({trace.initial.clock}.union(*(leg[:2] for leg in legs[i] + legs[j])))
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


def _global(n, seed, scheduler="ASYNC", a=4.0):
    return dict(
        algorithm="global", n=n, a=a, scheduler=scheduler, seed=seed, placement="random-disc"
    )


class TestAsyncMinSeparation:
    """`Trace.min_separation` of a run that ends with every move arrived is
    the exact minimum over all pairs and times, so no pair the monitor
    skipped came closer than the pairs it tested: under every scheduler the
    pairs that cannot come closer than the run's minimum so far, and in an
    SSYNC or FSYNC round also the pairs with no mover."""

    @pytest.mark.parametrize(
        "raw",
        [
            _local_async(16, "center", 1),
            _local_async(16, "center", 3),
            _local_async(24, "contention", 1),
            # Radii drawn for seed 6 over the seed-4 scenario.
            dict(nonuniform_variant(dict(curated_local_configs(seeds=(4,))[13], seed=6)), seed=4),
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
            dict(
                algorithm="local", n=16, rad=96.0, vis=48.0, scheduler="SSYNC", seed=2,
                placement="random-disc",
            ),
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
