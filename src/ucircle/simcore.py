"""Look-compute-move execution engine.

The engine runs oblivious compute functions (Snapshot -> Action) under
FSYNC/SSYNC round schedulers or an event-driven ASYNC scheduler, with
rigid unit-speed motion, continuous collision monitoring, and an
append-only trace. Both loops share one look path (`_look`), one move rule
(`_destination`) and one ending path: each returns how the run ended and
`run` builds the Trace. An invalid move is a fault under every scheduler.

An algorithm must be a pure function of its Snapshot, and a termination
test a function of the positions: the engine keeps one decision table per
static world (`_decisions`) and reuses it, and a sync round its verdict, for
as long as every robot stands on the same Point object.

A robot's handle is its index into `WorldState.robots` (what it is:
visibility and frame, fixed for the run) and `WorldState.positions` (where
it is, the only thing a cycle changes); only the trace records it.
Algorithms never see handles: a Snapshot carries only points in the
observer's local frame, so anonymity holds by construction.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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

SCHEDULERS = ("FSYNC", "SSYNC", "ASYNC")


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


@dataclass(frozen=True, slots=True)
class Schedule:
    kind: str  # one of SCHEDULERS
    seed: int = 0
    fairness_bound: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULERS:
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.fairness_bound < 1:
            raise ValueError("fairness_bound must be >= 1")


class TraceEvent(NamedTuple):
    """One trace event, immutable and cheap to build: a robot's look or its
    move. A look stands for its wait, look and compute, which share the
    clock, cycle, robot and position; its tag is the decision's."""

    clock: float
    cycle: int
    robot: int
    phase: str  # "look" | "move"
    pos: Point
    dest: Optional[Point] = None
    tag: str = ""

    def to_jsonl(self) -> str:
        """The event's trace text: one JSON line, or for a look three (wait,
        look, then compute, the tag on compute only), each ending in a newline.

        A line holds "clock", "cycle", "robot", "phase", "x" and "y", then
        "dest_x" and "dest_y" for a destination and "tag" when it is not empty.
        """
        clock, cycle, robot, phase, pos, dest, tag = self
        head = f'{{"clock": {clock:.17g}, "cycle": {cycle}, "robot": {robot}, "phase": "'
        at = f'", "x": {pos.x:.17g}, "y": {pos.y:.17g}'
        if dest is not None:
            at = f'{at}, "dest_x": {dest.x:.17g}, "dest_y": {dest.y:.17g}'
        end = f', "tag": "{tag}"}}\n' if tag else "}\n"
        if phase == "look":
            return f"{head}wait{at}}}\n{head}look{at}}}\n{head}compute{at}{end}"
        return f"{head}{phase}{at}{end}"


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
        """The trace as JSON lines: each event's `TraceEvent.to_jsonl()`, joined."""
        return "".join([ev.to_jsonl() for ev in self.events])


# ---------------------------------------------------------------------------
# Snapshots and frames
# ---------------------------------------------------------------------------


def _to_world(observer: Robot, at: Point, local: Point) -> Point:
    """Local point of `observer` standing at `at`, in world coordinates."""
    if observer.frame == FRAME_FULL_AXES:
        return local
    return Point(at.x + local.x * observer.chirality, at.y + local.y)


def take_snapshot(world: WorldState, i: int) -> Snapshot:
    obs = world.robots[i]
    at = world.positions[i]
    vis = obs.vis_radius
    seen = world.positions[:i] + world.positions[i + 1 :]
    if vis != math.inf:
        # `dist(p, at) <= vis + EPS`, written out.
        hypot, ax, ay, reach = math.hypot, at.x, at.y, vis + EPS
        seen = tuple([p for p in seen if hypot(p.x - ax, p.y - ay) <= reach])
    if obs.frame == FRAME_FULL_AXES:
        return Snapshot(self_pos=at, others=seen, vis_radius=vis)
    # A y-only robot sees each point relative to itself, X mirrored when its
    # chirality is -1; its own position is the origin, zeros signed so.
    ax, ay, chi = at.x, at.y, obs.chirality
    others = tuple([Point((p.x - ax) * chi, p.y - ay) for p in seen])
    return Snapshot(self_pos=Point((ax - ax) * chi, ay - ay), others=others, vis_radius=vis)


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


class _Decisions:
    """The decision table of one static world: `table(i)` is robot i's
    decision in `world`, made the first time it is asked. Each robot is
    snapshotted once, and mirror twins with equal snapshots decide apart,
    since each robot has its own entry."""

    __slots__ = ("world", "algorithm", "made")

    def __init__(self, world: WorldState, algorithm: Callable[[Snapshot], Action]):
        self.world = world
        self.algorithm = algorithm
        self.made: list[Optional[Action]] = [None] * len(world.robots)

    def __call__(self, i: int) -> Action:
        action = self.made[i]
        if action is None:
            action = self.made[i] = self.algorithm(take_snapshot(self.world, i))
        return action


def _decisions(
    world: WorldState, algorithm: Callable[[Snapshot], Action], last: Optional[_Decisions]
) -> _Decisions:
    """The decision table of `world`: `last` while every robot still stands
    on the same Point object as in its world, else a fresh one.

    Algorithms must be pure functions of the Snapshot, which carries no
    clock; Points are immutable, so the same Points give the same snapshots
    and the same decisions, whatever the clock. The test is identity, not
    equality: 0.0 == -0.0, yet a robot can see the sign of a zero.
    """
    if (
        last is not None
        and last.world.robots is world.robots
        and all(map(operator.is_, world.positions, last.world.positions))
    ):
        return last
    return _Decisions(world, algorithm)


def _look(world: WorldState, i: int, decide, t: float, cycle: int, events: list) -> Action:
    """Robot i looks and decides at clock t. Its look event, tagged with the
    decision, is appended only once the action is valid (else InvalidActionFault)."""
    action = decide(i)
    _check_action(action)
    events.append(TraceEvent(t, cycle, i, "look", world.positions[i], tag=action.tag))
    return action


def _destination(world: WorldState, i: int, action: Action) -> Optional[Point]:
    """Where `action` sends robot i in world coordinates, or None if it stays.
    A missing destination, a NaN one, or one within EPS of the robot is none."""
    if action.kind != "move" or action.dest is None:
        return None
    pos = world.positions[i]
    dest = _to_world(world.robots[i], pos, action.dest)
    return dest if dist(dest, pos) > EPS else None


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


def execute_cycle(
    world: WorldState,
    active: Sequence[int],
    decide: Callable[[int], Action],
    cycle: int,
    floor: float,
) -> tuple[WorldState, list[TraceEvent], float]:
    """One FSYNC/SSYNC round: active robots look together, then move together.

    `decide` is the table of decisions of `world` (see `_decisions`), and
    `floor` the run's minimum separation before the round. Returns (new
    world, trace events, the run's minimum separation after the round:
    `floor`, or less if a pair with a mover comes closer). A still pair's
    distance counts at the start of the next round that moves either robot,
    or else in the final world. Raises CollisionFault when motions come
    closer than two units.
    """
    robots, positions = world.robots, world.positions
    n = len(robots)
    for rid in active:
        if not 0 <= rid < n:
            raise KeyError(f"activation of unknown robot handle {rid}")

    t0 = world.clock
    events: list[TraceEvent] = []
    decisions = {rid: _look(world, rid, decide, t0, cycle, events) for rid in sorted(active)}
    moves: dict[int, Point] = {}
    for rid, action in decisions.items():
        dest = _destination(world, rid, action)
        if dest is not None:
            moves[rid] = dest
            events.append(TraceEvent(t0, cycle, rid, "move", positions[rid], dest, action.tag))

    lengths = {rid: dist(positions[rid], d) for rid, d in moves.items()}
    t1 = t0 + max(lengths.values(), default=1.0)

    # A mover arrives, then holds until t1; everyone else holds throughout.
    # A robot's segments are built when one of its pairs is first tested.
    pieces: list[Optional[list[MotionSegment]]] = [None] * n

    def pieces_of(i: int) -> list[MotionSegment]:
        got = pieces[i]
        if got is None:
            pos = positions[i]
            if i in moves:
                got = _pieces_over([MotionSegment(pos, moves[i], t0, t0 + lengths[i])], t0, t1)
            else:
                got = [MotionSegment(pos, pos, t0, t1)]
            pieces[i] = got
        return got

    # Over the round a robot strays at most its move's length from where it
    # starts, so a pair is never closer than its start distance less both
    # lengths. A pair whose bound clears both `floor` and the fault
    # threshold, with a margin for the rounding of the exact test, can
    # neither lower the run's minimum nor fault: it is skipped, as on an
    # ASYNC arrival. Pairs are tested in (a, b) order, so the first pair to
    # fault is the same.
    clear = max(floor, SAFE_SEPARATION) + 1e-6
    min_sep = floor
    for a in range(n):
        pa, la = positions[a], lengths.get(a, 0.0)
        for b in range(a + 1, n):
            if a not in moves and b not in moves:
                continue
            pb = positions[b]
            # `dist(pa, pb)`, written out.
            if math.hypot(pa.x - pb.x, pa.y - pb.y) - la - lengths.get(b, 0.0) >= clear:
                continue
            sep = min(
                min_separation_during_motion(s1, s2) for s1 in pieces_of(a) for s2 in pieces_of(b)
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


def _all_would_stay(
    world: WorldState,
    decide: Callable[[int], Action],
    first: Sequence[int] = (),
) -> bool:
    """True when no robot would move. Robots in `first` are asked first.

    A move to a missing or NaN destination counts as staying here; a robot
    that asks for it faults when it looks in a round or an ASYNC cycle.
    """
    ahead = set(first)
    for i in sorted(range(len(world.robots)), key=lambda i: i not in ahead):
        if _destination(world, i, decide(i)) is not None:
            return False
    return True


def _verdict(
    world: WorldState,
    decide: Callable[[int], Action],
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
    if not _all_would_stay(world, decide, first):
        return None
    decided = {decide(i).tag for i in range(len(world.robots))}
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
    final world, cycles used, minimum separation, diagnosis). `algorithm`
    must be a pure function of its Snapshot and `termination` a function of
    the positions, since both are asked once per static world.
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
    decide = None
    for cycle in range(max_cycles):
        # One snapshot and one decision per robot per static world: the
        # stall check, its diagnosis and every round until someone moves
        # share them. A carried table's world has had its verdict (None).
        active = next_activation(schedule, n, cycle)
        last, decide = decide, _decisions(world, algorithm, decide)
        if decide is not last:
            verdict = _verdict(world, decide, termination, active)
            if verdict is not None:
                outcome, diagnosis = verdict
                return outcome, world, cycle, min_sep, diagnosis
        try:
            world, evs, min_sep = execute_cycle(world, active, decide, cycle, min_sep)
        except SimulationFault as exc:
            if isinstance(exc, CollisionFault):
                min_sep = min(min_sep, exc.separation)
            return OUTCOME_FAULT, world, cycle, min_sep, str(exc)
        events.extend(evs)
    outcome = OUTCOME_CONVERGED if termination(world) else OUTCOME_BUDGET
    return outcome, world, max_cycles, min_sep, ""


# --- ASYNC (CORDA-style) event loop ----------------------------------------


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

    def positions_at(t: float) -> list[Point]:
        positions = here.copy()
        for i in flying:
            positions[i] = tracks[i][-1].position_at(t)
        return positions

    def world_at(t: float) -> WorldState:
        return WorldState(world.robots, tuple(positions_at(t)), t)

    # Event queue of (time, robot, kind), kind "look" or "arrive". Each robot
    # has exactly one pending event, so (time, robot) orders it alone.
    heap = [(world.clock + delay(), rid, "look") for rid in range(n)]
    heapq.heapify(heap)
    looks = 0
    table = None  # the decisions of the last static world looked at
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
                reach = 2.0 * (seg.t1 - seg.t0)
                clear = max(min_sep, SAFE_SEPARATION) + 1e-6
                ex, ey = seg.end.x, seg.end.y  # `dist(seg.end, q)`, written out
                for other, q in enumerate(positions_at(t)):
                    if other == rid or math.hypot(ex - q.x, ey - q.y) - reach >= clear:
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
                if quiescent:
                    now = world_at(t)
            else:
                if looks >= max_cycles * n:
                    return OUTCOME_BUDGET, world_at(t), max_cycles, min_sep, ""
                looks += 1
                cycle = (looks - 1) // n
                now = world_at(t)
                table = _decisions(now, algorithm, table)
                action = _look(now, rid, table, t, cycle, events)
                dest = _destination(now, rid, action)
                start = t + delay()
                if dest is None:
                    heapq.heappush(heap, (start + delay(), rid, "look"))
                else:
                    cur = now.positions[rid]
                    track.append(MotionSegment(cur, cur, track[-1].t1, start))
                    track.append(MotionSegment(cur, dest, start, start + dist(cur, dest)))
                    flying.add(rid)
                    events.append(TraceEvent(start, cycle, rid, "move", cur, dest, action.tag))
                    heapq.heappush(heap, (track[-1].t1, rid, "arrive"))
                # The initial world is checked once, if the first look stays.
                quiescent = looks == 1 and dest is None
            if quiescent:
                # Nobody else is in flight, so `now` is the static world.
                # One decision per robot: the stall check, its tags and the
                # looks until a robot leaves its position share it.
                table = _decisions(now, algorithm, table)
                verdict = _verdict(now, table, termination)
                if verdict is not None:
                    outcome, diagnosis = verdict
                    return outcome, now, (looks + n - 1) // n, min_sep, diagnosis
    except SimulationFault as exc:
        return OUTCOME_FAULT, world_at(t), looks // n, min_sep, str(exc)
