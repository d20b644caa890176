"""Look-compute-move execution engine.

The engine runs oblivious compute functions (Snapshot -> Action) under
FSYNC/SSYNC round schedulers or an event-driven ASYNC scheduler, with
rigid unit-speed motion, continuous collision monitoring, and an
append-only trace. Both loops share one look path (`_look`), one move rule
(`_destination`) and one ending path: each returns how the run ended and
`run` builds the Trace. An invalid move is a fault under every scheduler.

A robot's handle is its index into `WorldState.robots` (what it is:
visibility and frame, fixed for the run) and `WorldState.positions` (where
it is, the only thing a cycle changes); only the trace records it.
Algorithms never see handles: a Snapshot carries only points in the
observer's local frame, so anonymity holds by construction.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .geometry import (
    EPS,
    MotionSegment,
    Point,
    dist,
    min_pairwise_distance,
    min_separation_during_motion,
)

SAFE_SEPARATION = 2.0 - 1e-9

FRAME_Y_ONLY = "y-only"
FRAME_FULL_AXES = "full-axes"


class SimulationFault(RuntimeError):
    pass


class CollisionFault(SimulationFault):
    def __init__(self, msg: str, separation: float):
        super().__init__(msg)
        self.separation = separation


class InvalidActionFault(SimulationFault):
    pass


@dataclass(frozen=True, slots=True)
class Robot:
    """What a robot is for the whole run: its sensing and its frame."""

    vis_radius: float = math.inf
    chirality: int = 1  # +1 keeps world X, -1 mirrors it in the local frame
    frame: str = FRAME_FULL_AXES


@dataclass(frozen=True, slots=True)
class WorldState:
    """The robots, and where each one is at `clock`."""

    robots: tuple[Robot, ...]
    positions: tuple[Point, ...]
    clock: float = 0.0


@dataclass(frozen=True, slots=True)
class Snapshot:
    """What one robot perceives: itself and the visible others, local frame."""

    self_pos: Point
    others: tuple[Point, ...]
    vis_radius: float


@dataclass(frozen=True, slots=True)
class Action:
    kind: str  # "stay" | "move"
    dest: Optional[Point] = None  # local frame
    tag: str = ""


def move_to(dest: Point, tag: str = "") -> Action:
    return Action("move", dest, tag)


@dataclass(frozen=True, slots=True)
class Schedule:
    kind: str  # "FSYNC" | "SSYNC" | "ASYNC"
    seed: int = 0
    fairness_bound: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("FSYNC", "SSYNC", "ASYNC"):
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.fairness_bound < 1:
            raise ValueError("fairness_bound must be >= 1")


@dataclass(frozen=True, slots=True)
class TraceEvent:
    clock: float
    cycle: int
    robot: int
    phase: str
    pos: Point
    dest: Optional[Point] = None
    tag: str = ""

    def to_json_line(self) -> str:
        parts = [
            f'"clock": {self.clock:.17g}',
            f'"cycle": {self.cycle}',
            f'"robot": {self.robot}',
            f'"phase": "{self.phase}"',
            f'"x": {self.pos.x:.17g}',
            f'"y": {self.pos.y:.17g}',
        ]
        if self.dest is not None:
            parts.append(f'"dest_x": {self.dest.x:.17g}')
            parts.append(f'"dest_y": {self.dest.y:.17g}')
        if self.tag:
            parts.append(f'"tag": "{self.tag}"')
        return "{" + ", ".join(parts) + "}"


OUTCOME_CONVERGED = "converged"
OUTCOME_BUDGET = "budget-exhausted"
OUTCOME_FAULT = "fault"
OUTCOME_STALL = "diagnosed-stall"


@dataclass
class Trace:
    events: list[TraceEvent]
    outcome: str
    initial: WorldState
    final: WorldState
    cycles_used: int
    min_separation: float
    diagnosis: str = ""

    def to_jsonl(self) -> str:
        return "".join(ev.to_json_line() + "\n" for ev in self.events)


# ---------------------------------------------------------------------------
# Snapshots and frames
# ---------------------------------------------------------------------------


def _to_local(observer: Robot, at: Point, p: Point) -> Point:
    """World point `p` in the frame of `observer` standing at `at`."""
    if observer.frame == FRAME_FULL_AXES:
        return p
    return Point((p.x - at.x) * observer.chirality, p.y - at.y)


def _to_world(observer: Robot, at: Point, local: Point) -> Point:
    """Local point of `observer` standing at `at`, in world coordinates."""
    if observer.frame == FRAME_FULL_AXES:
        return local
    return Point(at.x + local.x * observer.chirality, at.y + local.y)


def take_snapshot(world: WorldState, i: int) -> Snapshot:
    obs = world.robots[i]
    at = world.positions[i]
    others = tuple(
        _to_local(obs, at, p)
        for j, p in enumerate(world.positions)
        if j != i and dist(p, at) <= obs.vis_radius + EPS
    )
    return Snapshot(self_pos=_to_local(obs, at, at), others=others, vis_radius=obs.vis_radius)


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


def next_activation(schedule: Schedule, n_robots: int, round_index: int) -> tuple[int, ...]:
    """Deterministic activation set for one FSYNC/SSYNC round.

    ASYNC has no rounds: `run` gives it to the event loop.
    """
    if schedule.kind == "ASYNC":
        raise ValueError("ASYNC has no activation rounds")
    if n_robots <= 0:
        return ()
    if schedule.kind == "FSYNC":
        return tuple(range(n_robots))
    rng = random.Random(f"{schedule.seed}:{round_index}:{n_robots}")
    fb = schedule.fairness_bound
    active = {i for i in range(n_robots) if rng.random() < 0.5}
    # Fairness backstop: robot i is forced in every round == i mod fb.
    active.update(i for i in range(n_robots) if round_index % fb == i % fb)
    if not active:
        active.add(rng.randrange(n_robots))
    return tuple(sorted(active))


# ---------------------------------------------------------------------------
# One look-compute-move cycle, and the synchronous round
# ---------------------------------------------------------------------------


def _check_action(action: Action) -> None:
    if action.kind == "move" and (action.dest is None or not action.dest.is_finite()):
        raise InvalidActionFault(f"non-finite move destination {action.dest}")


def _look(world: WorldState, i: int, algorithm, t: float, cycle: int, events: list) -> Action:
    """Robot i looks and decides at clock t. Its wait, look and compute events
    are appended only once the action is valid (else InvalidActionFault)."""
    pos = world.positions[i]
    action = algorithm(take_snapshot(world, i))
    _check_action(action)
    events.append(TraceEvent(t, cycle, i, "wait", pos))
    events.append(TraceEvent(t, cycle, i, "look", pos))
    events.append(TraceEvent(t, cycle, i, "compute", pos, tag=action.tag))
    return action


def _destination(world: WorldState, i: int, action: Action) -> Optional[Point]:
    """Where `action` sends robot i in world coordinates, or None if it stays.
    A missing destination, a NaN one, or one within EPS of the robot is none."""
    if action.kind != "move" or action.dest is None:
        return None
    pos = world.positions[i]
    dest = _to_world(world.robots[i], pos, action.dest)
    return dest if dist(dest, pos) > EPS else None


def execute_cycle(
    world: WorldState,
    active: Sequence[int],
    algorithm: Callable[[Snapshot], Action],
    cycle: int = 0,
) -> tuple[WorldState, list[TraceEvent], float]:
    """One FSYNC/SSYNC round: active robots look together, then move together.

    Returns (new world, trace events, min pairwise separation of the round).
    Raises CollisionFault when concurrent motions come closer than two units.
    """
    robots, positions = world.robots, world.positions
    n = len(robots)
    for rid in active:
        if not 0 <= rid < n:
            raise KeyError(f"activation of unknown robot handle {rid}")

    t0 = world.clock
    events: list[TraceEvent] = []
    decisions = {rid: _look(world, rid, algorithm, t0, cycle, events) for rid in sorted(active)}
    moves: dict[int, Point] = {}
    for rid, action in decisions.items():
        dest = _destination(world, rid, action)
        if dest is not None:
            moves[rid] = dest
            events.append(TraceEvent(t0, cycle, rid, "move", positions[rid], dest, action.tag))

    t1 = t0 + max((dist(positions[rid], d) for rid, d in moves.items()), default=1.0)

    pieces: list[list[MotionSegment]] = []
    for i, pos in enumerate(positions):
        if i in moves:
            arrive = t0 + dist(pos, moves[i])
            segs = [MotionSegment(pos, moves[i], t0, arrive)]
            if arrive < t1:
                segs.append(MotionSegment(moves[i], moves[i], arrive, t1))
        else:
            segs = [MotionSegment(pos, pos, t0, t1)]
        pieces.append(segs)

    min_sep = math.inf
    for a in range(n):
        for b in range(a + 1, n):
            if a not in moves and b not in moves:
                sep = dist(positions[a], positions[b])
            else:
                sep = min(
                    min_separation_during_motion(s1, s2)
                    for s1 in pieces[a]
                    for s2 in pieces[b]
                )
            if sep < min_sep:
                min_sep = sep
            if sep < SAFE_SEPARATION:
                raise CollisionFault(
                    f"robots {a} and {b} reach separation {sep:.6g} during cycle {cycle}",
                    sep,
                )

    new_positions = tuple(moves.get(i, pos) for i, pos in enumerate(positions))
    return WorldState(robots, new_positions, t1), events, min_sep


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _memoized(algorithm: Callable[[Snapshot], Action]) -> Callable[[Snapshot], Action]:
    """The algorithm with its decisions remembered, for one static world.

    Algorithms are pure functions of the snapshot, so a robot looked at
    twice in the same world decides the same. The key carries the sign of
    the observer's own x: mirror twins in y-only frames can see equal
    snapshots that differ only in the sign of their zeros.
    """
    memo: dict[tuple[Snapshot, float], Action] = {}

    def decide(snap: Snapshot) -> Action:
        key = (snap, math.copysign(1.0, snap.self_pos.x))
        action = memo.get(key)
        if action is None:
            action = memo[key] = algorithm(snap)
        return action

    return decide


def _all_would_stay(
    world: WorldState,
    algorithm: Callable[[Snapshot], Action],
    first: Sequence[int] = (),
) -> bool:
    """True when no robot would move. Robots in `first` are asked first.

    A move to a missing or NaN destination counts as staying here; a robot
    that asks for it faults when it looks in a round or an ASYNC cycle.
    """
    ahead = set(first)
    for i in sorted(range(len(world.robots)), key=lambda i: i not in ahead):
        if _destination(world, i, algorithm(take_snapshot(world, i))) is not None:
            return False
    return True


def _verdict(
    world: WorldState,
    algorithm: Callable[[Snapshot], Action],
    termination: Callable[[WorldState], bool],
    first: Sequence[int] = (),
) -> Optional[tuple[str, str]]:
    """How a run ends in this static world: (outcome, diagnosis), or None.

    A formed world has converged. A world in which no robot would move has
    stalled; the diagnosis names the tags the robots decide with. Robots in
    `first` are asked first whether they would move.
    """
    if termination(world):
        return OUTCOME_CONVERGED, ""
    if not _all_would_stay(world, algorithm, first):
        return None
    decided = {algorithm(take_snapshot(world, i)).tag for i in range(len(world.robots))}
    tags = sorted(decided - {""})
    return OUTCOME_STALL, ",".join(tags) or "fixed-point"


def run(
    world: WorldState,
    algorithm: Callable[[Snapshot], Action],
    schedule: Schedule,
    termination: Callable[[WorldState], bool],
    max_cycles: int,
) -> Trace:
    """Run the scheduler loop until convergence, stall, fault, or budget.

    Both loops append to `events` and return how the run ended: (outcome,
    final world, cycles used, minimum separation, diagnosis).
    """
    if max_cycles < 1:
        raise ValueError("max_cycles must be >= 1")
    loop = _run_async if schedule.kind == "ASYNC" else _run_sync
    events: list[TraceEvent] = []
    outcome, *ending = loop(world, algorithm, schedule, termination, max_cycles, events)
    return Trace(events, outcome, world, *ending)


def _run_sync(world, algorithm, schedule, termination, max_cycles, events):
    min_sep = min_pairwise_distance(world.positions)
    n = len(world.robots)
    for cycle in range(max_cycles):
        # One decision per robot per round: the stall check, its diagnosis
        # and the round itself share them.
        decide = _memoized(algorithm)
        active = next_activation(schedule, n, cycle)
        verdict = _verdict(world, decide, termination, active)
        if verdict is not None:
            outcome, diagnosis = verdict
            return outcome, world, cycle, min_sep, diagnosis
        try:
            world, evs, sep = execute_cycle(world, active, decide, cycle)
        except SimulationFault as exc:
            if isinstance(exc, CollisionFault):
                min_sep = min(min_sep, exc.separation)
            return OUTCOME_FAULT, world, cycle, min_sep, str(exc)
        events.extend(evs)
        min_sep = min(min_sep, sep)
    outcome = OUTCOME_CONVERGED if termination(world) else OUTCOME_BUDGET
    return outcome, world, max_cycles, min_sep, ""


# --- ASYNC (CORDA-style) event loop ----------------------------------------


def _pieces_over(track: list[MotionSegment], a: float, b: float) -> list[MotionSegment]:
    """The segments of a robot's track that overlap [a, b], in time order.

    A track is contiguous from the start clock, so past its last segment the
    robot holds where that segment ends; that hold is added up to b.
    """
    out = [s for s in track if s.t1 >= a and s.t0 <= b]
    last = track[-1]
    if last.t1 < b:
        out.append(MotionSegment(last.end, last.end, last.t1, b))
    return out


def _run_async(world, algorithm, schedule, termination, max_cycles, events):
    n = len(world.robots)
    rng = random.Random(f"async:{schedule.seed}:{n}")
    window = float(schedule.fairness_bound)
    # Each robot's past and planned motion: contiguous segments from a
    # zero-length hold at the start clock. A move is appended at its look,
    # after the hold that ends where the move starts.
    tracks = [[MotionSegment(p, p, world.clock, world.clock)] for p in world.positions]
    # Where each robot stands, or stood before the move it has planned; the
    # robots in `flying` have a planned move that has not arrived yet.
    here = list(world.positions)
    flying: set[int] = set()
    min_sep = min_pairwise_distance(world.positions)

    def delay() -> float:
        return 0.05 + rng.random() * window

    def world_at(t: float) -> WorldState:
        positions = here.copy()
        for i in flying:
            positions[i] = tracks[i][-1].position_at(t)
        return WorldState(world.robots, tuple(positions), t)

    # Event queue of (time, robot, kind), kind "look" or "arrive". Each robot
    # has exactly one pending event, so (time, robot) orders it alone.
    heap = [(world.clock + delay(), rid, "look") for rid in range(n)]
    heapq.heapify(heap)
    looks = 0
    try:
        while True:
            t, rid, kind = heapq.heappop(heap)
            track = tracks[rid]
            if kind == "arrive":
                seg = track[-1]
                # The past is fully determined: check the finished segment
                # against every other robot's trajectory over its interval.
                # Both robots move at unit speed at most, so over the segment
                # a pair is never closer than its distance now less `reach`.
                # A pair whose bound clears both min_sep and the fault
                # threshold, with a margin for the rounding of the exact
                # test, can neither lower min_sep nor fault: it is skipped.
                now = world_at(t).positions
                reach = 2.0 * (seg.t1 - seg.t0)
                clear = max(min_sep, SAFE_SEPARATION) + 1e-6
                for other in range(n):
                    if other == rid or dist(seg.end, now[other]) - reach >= clear:
                        continue
                    for piece in _pieces_over(tracks[other], seg.t0, seg.t1):
                        sep = min_separation_during_motion(seg, piece)
                        min_sep = min(min_sep, sep)
                        if sep < SAFE_SEPARATION:
                            raise CollisionFault(
                                f"robots {rid} and {other} reach separation {sep:.6g}", sep
                            )
                here[rid] = seg.end
                flying.remove(rid)
                heapq.heappush(heap, (t + delay(), rid, "look"))
                quiescent = not flying  # only an arrival changes the static world
            else:
                if looks >= max_cycles * n:
                    return OUTCOME_BUDGET, world_at(t), max_cycles, min_sep, ""
                looks += 1
                cycle = (looks - 1) // n
                view = world_at(t)
                action = _look(view, rid, algorithm, t, cycle, events)
                dest = _destination(view, rid, action)
                start = t + delay()
                if dest is None:
                    heapq.heappush(heap, (start + delay(), rid, "look"))
                else:
                    cur = view.positions[rid]
                    track.append(MotionSegment(cur, cur, track[-1].t1, start))
                    track.append(MotionSegment(cur, dest, start, start + dist(cur, dest)))
                    flying.add(rid)
                    events.append(TraceEvent(start, cycle, rid, "move", cur, dest, action.tag))
                    heapq.heappush(heap, (track[-1].t1, rid, "arrive"))
                # The initial world is checked once, if the first look stays.
                quiescent = looks == 1 and dest is None
            if quiescent:
                w = world_at(t)
                # One decision per robot: the stall check and its tags share it.
                verdict = _verdict(w, _memoized(algorithm), termination)
                if verdict is not None:
                    outcome, diagnosis = verdict
                    return outcome, w, (looks + n - 1) // n, min_sep, diagnosis
    except SimulationFault as exc:
        return OUTCOME_FAULT, world_at(t), looks // n, min_sep, str(exc)
