"""Tests for the look-compute-move scheduler core."""

import json
import math

import pytest

from ucircle.geometry import Point, dist
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
    Action,
    CollisionFault,
    Robot,
    Schedule,
    Snapshot,
    TraceEvent,
    WorldState,
    execute_cycle,
    move_to,
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

    def test_move_dest_interpreted_in_local_frame(self):
        # A mirrored y-only robot asking to move to local (1, 0) must move
        # to world x - 1.
        w = WorldState((Robot(frame=FRAME_Y_ONLY, chirality=-1),), (P(10, 0),))
        new, _, _ = execute_cycle(w, [0], lambda s: move_to(P(1, 0)))
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
        new, events, sep = execute_cycle(w, [0, 1], lambda s: Action("stay"))
        assert new.positions == w.positions
        assert sep == 5.0
        phases = [e.phase for e in events]
        assert phases == ["wait", "look", "compute"] * 2

    def test_simple_move(self):
        w = make_world([P(0, 0)])

        new, events, _ = execute_cycle(w, [0], lambda s: move_to(P(3, 4), tag="hop"))
        assert dist(new.positions[0], P(3, 4)) < 1e-12
        move_events = [e for e in events if e.phase == "move"]
        assert len(move_events) == 1
        assert move_events[0].dest == P(3, 4)
        assert move_events[0].tag == "hop"

    def test_inactive_robots_do_not_look(self):
        w = make_world([P(0, 0), P(9, 0)])
        _, events, _ = execute_cycle(w, [1], lambda s: Action("stay"))
        assert {e.robot for e in events} == {1}

    def test_head_on_collision_faults(self):
        w = make_world([P(0, 0), P(6, 0)])

        def algo(snap: Snapshot):
            # Both robots charge at the other one.
            return move_to(snap.others[0])

        with pytest.raises(CollisionFault):
            execute_cycle(w, [0, 1], algo)

    def test_moving_past_parked_robot_faults(self):
        w = make_world([P(0, 0), P(5, 1.2)])

        def algo(snap: Snapshot):
            return move_to(P(10, 0)) if snap.self_pos == P(0, 0) else Action("stay")

        with pytest.raises(CollisionFault):
            execute_cycle(w, [0, 1], algo)

    def test_parallel_motion_keeps_separation(self):
        w = make_world([P(0, 0), P(0, 2.5)])

        def algo(snap: Snapshot):
            return move_to(P(snap.self_pos.x + 8, snap.self_pos.y))

        new, _, sep = execute_cycle(w, [0, 1], algo)
        assert abs(sep - 2.5) < 1e-12
        assert dist(new.positions[0], P(8, 0)) < 1e-12

    def test_unknown_robot_rejected(self):
        w = make_world([P(0, 0)])
        with pytest.raises(KeyError):
            execute_cycle(w, [7], lambda s: Action("stay"))


# ---------------------------------------------------------------------------
# Trace format
# ---------------------------------------------------------------------------


class TestTraceFormat:
    def test_event_line_is_json(self):
        ev = TraceEvent(1.5, 3, 2, "move", P(0.1, -2.25), dest=P(1, 1), tag="psi3")
        rec = json.loads(ev.to_json_line())
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
        rec = json.loads(ev.to_json_line())
        assert rec["x"] == x and rec["y"] == -x

    def test_optional_fields_omitted(self):
        rec = json.loads(TraceEvent(0.0, 0, 0, "look", P(0, 0)).to_json_line())
        assert "dest_x" not in rec and "tag" not in rec


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def gather_at_x(target_x):
    """Tiny test algorithm: every robot walks to x=target_x on its own row."""

    def algo(snap: Snapshot):
        if abs(snap.self_pos.x - target_x) <= 1e-12:
            return Action("stay")
        return move_to(P(target_x, snap.self_pos.y), tag="walk")

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
            return move_to(P(x, snap.self_pos.y))

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
            return move_to(snap.others[0]) if snap.others else Action("stay")

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
        return move_to(P(snap.self_pos.x + max(-step, min(step, dx)), snap.self_pos.y))

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
                return move_to(P(1.0, snap.self_pos.y), tag="walk")
            if snap.self_pos.y == 0:
                return move_to(snap.self_pos, tag="hold")
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
            assert phases[:4] == ["wait", "look", "compute", "move"]
        moves = [e for e in trace.events if e.phase == "move"]
        assert clocks[0] >= min(e.clock + dist(e.pos, e.dest) for e in moves)

    def test_async_stall_verdict_asks_each_robot_once(self):
        w = make_world([P(0, 0), P(9, 0), P(0, 9)])
        algo = Counted(lambda snap: Action("stay", tag="blocked"))
        trace = run(w, algo, Schedule("ASYNC", seed=1), lambda w_: False, max_cycles=5)
        assert trace.outcome == OUTCOME_STALL
        looks = sum(1 for e in trace.events if e.phase == "look")
        assert algo.calls == looks + len(w.robots)

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
            return move_to(P(snap.self_pos.x, snap.self_pos.y + 1.0))

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
                return move_to(P(40, 0), tag="long")
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
                return move_to(P(10, 0), tag="cross")
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
                return move_to(P(0, 6), tag="up")
            if snap.self_pos == P(10, 6.5) and P(0, 6) in snap.others:
                return move_to(P(-10, 6.5), tag="cross")
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
                return move_to(P(-0.2, 0), tag="away")
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


def _global_async(n, seed):
    return dict(
        algorithm="global", n=n, a=4.0, scheduler="ASYNC", seed=seed, placement="random-disc"
    )


class TestAsyncMinSeparation:
    """`Trace.min_separation` of an ASYNC run that ends with every move
    arrived is the exact minimum over all pairs and times, so no pair the
    monitor skipped came closer than the pairs it tested."""

    @pytest.mark.parametrize(
        "raw",
        [
            _local_async(16, "center", 1),
            _local_async(16, "center", 3),
            _local_async(24, "contention", 1),
            nonuniform_variant(curated_local_configs(seeds=(4,))[13], 2),
            _global_async(4, 1),
            _global_async(5, 0),
            _global_async(5, 3),
        ],
        ids=[
            "local-16-center-1",
            "local-16-center-3",
            "local-24-contention-1",
            "nonuniform-stall",
            "global-4-seed-1",
            "global-5-seed-0",
            "global-5-seed-3",
        ],
    )
    def test_matches_a_brute_force_over_the_moves(self, raw):
        trace, _ = run_scenario(parse_config(raw))
        assert trace.outcome in (OUTCOME_CONVERGED, OUTCOME_STALL)
        assert any(e.phase == "move" for e in trace.events)
        assert trace.min_separation == pytest.approx(brute_force_min_separation(trace), abs=1e-9)
