"""Look-compute-move execution engine.

The engine runs oblivious compute functions (Snapshot -> Action) under
FSYNC/SSYNC round schedulers or an event-driven ASYNC scheduler, with
rigid unit-speed motion, continuous collision monitoring, and an
append-only trace. Both loops share one look path (`_look`), one move rule
(`_destination`), the run's one event list and one ending path: each returns
how the run ended and `run` builds the Trace. An invalid move is a fault
under every scheduler. A move's motion is its event's `TraceEvent.motion()`,
and a sync round tests only the pairs that hold a mover.

An algorithm must be a pure function of its Snapshot, and a termination
test a function of the positions: a run keeps one decision memo
(`_decider`), and a robot decides again only when its view changes: the
Point it stands on, or the tuple of Points it sees. A decision is recorded
with its world move, and the look, the round, the ASYNC track and the stall
check all read that record. A sync run asks for a verdict again only after
a round that moved somebody (a round that moves nobody keeps its positions
tuple), and its stall check asks the robots in the order they will be
activated, so every decision it makes is one a look uses. These reuses are
sound only because a decision is a pure function of the Snapshot, which
those Points determine. An algorithm may keep a run-scoped cache only when
its answers are bit for bit those of the pure function (the global SEC
memo checks this by Point identity).

A look costs what changed since the robot last looked, and every reuse
keys on Point objects, never on equal values (0.0 == -0.0): `_sight`, the
one visibility rule, tests only robots whose Point is a new object since
the robot's last look, which holds only while visibility depends on the
two robots' Points alone, and only the decision memo turns sight into
seen Points; a y-only Snapshot builds only their local Points
(`take_snapshot`); an ASYNC world in which nobody flies shares one
positions tuple; and the trace writer formats each Point object once per
call (`Trace.to_jsonl`).

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
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Collection, NamedTuple, Optional, Sequence

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


@dataclass(frozen=True, slots=True, init=False)
class WorldState:
    """The robots, and where each one is at `clock`."""

    robots: tuple[Robot, ...]
    positions: tuple[Point, ...]
    clock: float = 0.0

    def __init__(
        self, robots: tuple[Robot, ...], positions: tuple[Point, ...], clock: float = 0.0
    ) -> None:
        # Stored through the slots, as `geometry.Point` is.
        _world_robots(self, robots)
        _world_positions(self, positions)
        _world_clock(self, clock)


_world_robots, _world_positions = WorldState.robots.__set__, WorldState.positions.__set__
_world_clock = WorldState.clock.__set__


@dataclass(frozen=True, slots=True)
class Snapshot:
    """What one robot perceives: itself and the visible others, local frame."""

    self_pos: Point
    others: tuple[Point, ...]
    vis_radius: float


@dataclass(frozen=True, slots=True)
class Action:
    """A decision: a destination in the local frame, or None to stay; a tag."""

    dest: Optional[Point] = None
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

    def motion(self) -> MotionSegment:
        """A move event's motion: rigid, at unit speed, from `pos` at `clock`
        to `dest`, reached at `clock + dist(pos, dest)`."""
        pos, dest, clock = self.pos, self.dest, self.clock
        return MotionSegment(pos, dest, clock, clock + dist(pos, dest))

    def to_jsonl(self, places: Optional[dict[int, str]] = None) -> str:
        """The event's trace text: one JSON line, or for a look three (wait,
        look, then compute, the tag on compute only), each ending in a newline.

        A line holds "clock", "cycle", "robot", "phase", "x" and "y", then
        "dest_x" and "dest_y" for a destination and "tag" when it is not empty.
        `places` maps `id(pos)` to the text of "x" and "y" already written
        for that Point object; a caller may share one only while the Points
        it names stay alive. It is keyed by identity, never by value: 0.0 ==
        -0.0, yet each prints its own sign.
        """
        clock, cycle, robot, phase, pos, dest, tag = self
        head = f'{{"clock": {clock:.17g}, "cycle": {cycle}, "robot": {robot}, "phase": "'
        if places is None:
            places = {}
        at = places.get(id(pos))
        if at is None:
            at = places[id(pos)] = f'", "x": {pos.x:.17g}, "y": {pos.y:.17g}'
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
        """The trace as JSON lines: each event's `TraceEvent.to_jsonl()`, joined.

        A robot that stays looks on one Point object again and again, so the
        events share one `places` map for this call, while they hold their
        Points alive."""
        places: dict[int, str] = {}
        return "".join([ev.to_jsonl(places) for ev in self.events])


# ---------------------------------------------------------------------------
# Snapshots and frames
# ---------------------------------------------------------------------------


def _sight(
    world: WorldState,
    i: int,
    before: Optional[tuple[Point, ...]] = None,
    seen_by: Optional[list[bool]] = None,
) -> Optional[list[bool]]:
    """Robot i's sight: a flag per robot, true when i sees it (never for i
    itself); None when it sees the same Point objects as at its last look,
    among the positions `before`, where it saw the robots flagged `seen_by`.

    The one visibility rule: robot i sees every other robot within its
    visibility radius, the boundary (plus EPS) included. On a first look
    (`before` None) or after i moved, every robot is tested. Otherwise only
    robots whose Point is a new object are. That is sound because whether i
    sees robot j depends only on i's Point and j's own: a robot that kept
    its Point kept its flag, and a moved one changes the view only if it was
    seen or is seen now. Under an infinite radius every robot is seen: the
    flags stay as they were, and any move is a new view. A model in which a
    third robot can hide j (opaque robots) breaks the premise: there, the
    update must never be taken, and every robot is tested on every look.
    """
    positions = world.positions
    at, vis = positions[i], world.robots[i].vis_radius
    # `dist(p, at) <= vis + EPS`, written out.
    hypot, ax, ay, reach = math.hypot, at.x, at.y, vis + EPS
    if before is None or at is not before[i]:
        if vis == math.inf:
            flags = [True] * len(positions)
        else:
            flags = [hypot(p.x - ax, p.y - ay) <= reach for p in positions]
        flags[i] = False
        return flags
    if vis == math.inf:
        return seen_by if any(map(operator.is_not, positions, before)) else None
    flags = None
    for j in compress(range(len(positions)), map(operator.is_not, positions, before)):
        p = positions[j]
        now = hypot(p.x - ax, p.y - ay) <= reach
        if now or seen_by[j]:
            if flags is None:
                flags = seen_by.copy()
            flags[j] = now
    return flags


def take_snapshot(
    observer: Robot,
    at: Point,
    seen: tuple[Point, ...],
    previous: Optional[tuple[Point, tuple[Point, ...], Snapshot]] = None,
) -> Snapshot:
    """What `observer`, standing at `at`, perceives of the world Points
    `seen` (those `_sight` flags, in index order): the same points in its
    local frame.

    `previous` is the observer's last (at, seen, Snapshot), if any. A y-only
    observer that stands on the same Point object, and sees as many robots
    as then, keeps its own local Point and each local Point whose world
    Point is the same object at the same place in `seen`: the same
    arithmetic on the same floats. Only the Points at the places whose world
    Point is a new object are built, which under an infinite radius are
    those of the robots that moved."""
    vis = observer.vis_radius
    if observer.frame == FRAME_FULL_AXES:
        return Snapshot(self_pos=at, others=seen, vis_radius=vis)
    # A y-only robot sees each point relative to itself, X mirrored when its
    # chirality is -1; its own position is the origin, zeros signed so.
    ax, ay, chi = at.x, at.y, observer.chirality
    if previous is not None and previous[0] is at and len(previous[1]) == len(seen):
        _, was_seen, was = previous
        others = list(was.others)
        for k in compress(range(len(seen)), map(operator.is_not, seen, was_seen)):
            p = seen[k]
            others[k] = Point((p.x - ax) * chi, p.y - ay)
        return Snapshot(self_pos=was.self_pos, others=tuple(others), vis_radius=vis)
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


def _destination(world: WorldState, i: int, action: Action) -> Optional[Point]:
    """Where `action` sends robot i in world coordinates, or None if it stays.
    A missing destination, a NaN one, or one within EPS of the robot is none."""
    dest, pos, robot = action.dest, world.positions[i], world.robots[i]
    if dest is None:
        return None
    if robot.frame != FRAME_FULL_AXES:
        dest = Point(pos.x + dest.x * robot.chirality, pos.y + dest.y)
    return dest if dist(dest, pos) > EPS else None


def _decider(
    algorithm: Callable[[Snapshot], Action], n: int
) -> Callable[[WorldState, int], tuple[Action, Optional[Point]]]:
    """The decision memo of one run of n robots: `decide(world, i)` is robot
    i's decision in `world`, recorded with its world move as (Action,
    `_destination` of it): the look, the round, the ASYNC track and the
    stall check read this record, and none works the move out again.

    Each robot keeps one entry: the positions tuple it was last asked on,
    the robots it saw there, the record, and the view it was made from: the
    Point it stood on, the Points it saw and their Snapshot. Asked again on
    the same tuple, it reuses the record. Otherwise `_sight` updates its
    flags from its last look: on the same Point objects (its own too, so
    the move holds) the record is reused, and only a changed view is built
    into its tuple of seen Points (here alone), snapshotted from the last
    one (see `take_snapshot`) and decided. This is sound only because an
    algorithm is a pure function of its Snapshot, which carries no clock.
    The test is identity, not equality: 0.0 == -0.0, yet a robot can see
    the sign of a zero. Mirror twins with equal snapshots decide apart, and
    a new run starts fresh.
    """
    memo = [(None, None, None, None)] * n

    def decide(world: WorldState, i: int) -> tuple[Action, Optional[Point]]:
        positions = world.positions
        last, seen_by, decision, view = memo[i]
        if last is positions:
            return decision
        flags = _sight(world, i, last, seen_by)
        if flags is not None:
            at, seen_by = positions[i], flags
            seen = tuple(compress(positions, flags))
            snapshot = take_snapshot(world.robots[i], at, seen, view)
            action = algorithm(snapshot)
            decision = (action, _destination(world, i, action))
            view = (at, seen, snapshot)
        memo[i] = (positions, seen_by, decision, view)
        return decision

    return decide


def _look(
    world: WorldState, i: int, decide, t: float, cycle: int, events: list
) -> tuple[Action, Optional[Point]]:
    """Robot i looks at clock t: its look event, tagged with the decision, is
    appended to `events`, and its decision record (see `_decider`) returned,
    for the round or the ASYNC track to read the move from. A NaN or
    infinite destination raises InvalidActionFault, with no event appended."""
    decision = decide(world, i)
    action = decision[0]
    if action.dest is not None and not action.dest.is_finite():
        raise InvalidActionFault(f"non-finite move destination {action.dest}")
    events.append(TraceEvent(t, cycle, i, "look", world.positions[i], tag=action.tag))
    return decision


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
    decide: Callable[[WorldState, int], tuple[Action, Optional[Point]]],
    cycle: int,
    floor: float,
    events: list[TraceEvent],
) -> tuple[WorldState, float]:
    """One FSYNC/SSYNC round: active robots look together, then move together.

    `decide` is the run's `decide(world, i)` (see `_decider`), and `floor`
    the run's minimum separation before the round. Each look and move is
    appended to the run's `events` as it is made, so a round that faults
    leaves them in the trace. Returns (new world, the run's minimum
    separation after the round: `floor`, or less if a pair with a mover
    comes closer); a round that moves nobody keeps the positions tuple. A
    still pair's distance counts at the start of the next round that moves
    either robot, or else in the final world. Raises CollisionFault when
    motions come closer than two units.
    """
    robots, positions = world.robots, world.positions
    n = len(robots)
    for rid in active:
        if not 0 <= rid < n:
            raise KeyError(f"activation of unknown robot handle {rid}")

    t0 = world.clock
    decisions = {rid: _look(world, rid, decide, t0, cycle, events) for rid in sorted(active)}
    motions: dict[int, MotionSegment] = {}
    for rid, (action, dest) in decisions.items():
        if dest is not None:
            events.append(TraceEvent(t0, cycle, rid, "move", positions[rid], dest, action.tag))
            motions[rid] = events[-1].motion()
    # The latest arrival: `t0 + max(lengths)`, as rounded addition is monotone.
    t1 = max((m.t1 for m in motions.values()), default=t0 + 1.0)
    lengths = {rid: dist(m.start, m.end) for rid, m in motions.items()}
    # A mover arrives, then holds until t1; a robot that stays holds throughout.
    pieces = {rid: _pieces_over([m], t0, t1) for rid, m in motions.items()}
    movers = sorted(motions)

    # Over the round a robot strays at most its move's length from where it
    # starts, so a pair is never closer than its start distance less both
    # lengths. A pair whose bound clears both `floor` and the fault
    # threshold, with a margin for the rounding of the exact test, can
    # neither lower the run's minimum nor fault: it is skipped, as on an
    # ASYNC arrival. Only pairs with a mover are walked, in (a, b) order, so
    # the first pair to fault is the same: after a mover, every robot above
    # it; after a robot that stays, the movers above it.
    clear = max(floor, SAFE_SEPARATION) + 1e-6
    min_sep = floor
    for a in range(max(movers, default=-1) + 1):
        pa, la = positions[a], lengths.get(a, 0.0)
        above = range(a + 1, n) if a in motions else [b for b in movers if b > a]
        for b in above:
            pb = positions[b]
            # `dist(pa, pb)`, written out.
            if math.hypot(pa.x - pb.x, pa.y - pb.y) - la - lengths.get(b, 0.0) >= clear:
                continue
            sa = pieces.get(a) or [MotionSegment(pa, pa, t0, t1)]
            sb = pieces.get(b) or [MotionSegment(pb, pb, t0, t1)]
            sep = min(min_separation_during_motion(s1, s2) for s1 in sa for s2 in sb)
            if sep < min_sep:
                min_sep = sep
            if sep < SAFE_SEPARATION:
                raise CollisionFault(
                    f"robots {a} and {b} reach separation {sep:.6g} during cycle {cycle}",
                    sep,
                )

    if motions:
        positions = tuple(motions[i].end if i in motions else p for i, p in enumerate(positions))
    return WorldState(robots, positions, t1), min_sep


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _all_would_stay(
    world: WorldState,
    decide: Callable[[WorldState, int], tuple[Action, Optional[Point]]],
    first: Collection[int] = (),
) -> bool:
    """True when no robot would move. Robots in `first` are asked first, in
    the order given, then the rest in index order.

    A NaN destination counts as staying here; a robot that asks for it
    faults when it looks in a round or an ASYNC cycle.
    """
    ahead = set(first)
    rest = [i for i in range(len(world.robots)) if i not in ahead]
    return all(decide(world, i)[1] is None for i in chain(first, rest))


def _verdict(
    world: WorldState,
    decide: Callable[[WorldState, int], tuple[Action, Optional[Point]]],
    termination: Callable[[WorldState], bool],
    first: Collection[int] = (),
) -> Optional[tuple[str, str]]:
    """How a run ends in this static world: (outcome, diagnosis), or None.

    A formed world has converged. A world in which no robot would move has
    stalled; the diagnosis names the tags the robots decide with. Robots in
    `first` are asked first, in that order, whether they would move.
    """
    if termination(world):
        return OUTCOME_CONVERGED, ""
    if not _all_would_stay(world, decide, first):
        return None
    decided = {decide(world, i)[0].tag for i in range(len(world.robots))}
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
    final world, cycles used, minimum separation, diagnosis); the Trace's
    minimum also covers the final world, so it is the run's. `algorithm`
    must be a pure function of its Snapshot, since a robot is asked again
    only when its view changes, and `termination` a function of the
    positions, since it is asked once per static world.
    """
    if max_cycles < 1:
        raise ValueError("max_cycles must be >= 1")
    loop = _run_async if schedule.kind == "ASYNC" else _run_sync
    events: list[TraceEvent] = []
    outcome, final, cycles, min_sep, diagnosis = loop(
        world, algorithm, schedule, termination, max_cycles, events
    )
    min_sep = min(min_sep, min_pairwise_distance(final.positions))
    return Trace(events, outcome, world, final, cycles, min_sep, diagnosis)


def _run_sync(world, algorithm, schedule, termination, max_cycles, events):
    min_sep = min_pairwise_distance(world.positions)
    n = len(world.robots)
    decide = _decider(algorithm, n)
    # The activation sets of this round and the later ones drawn so far.
    rounds: deque[tuple[int, ...]] = deque()
    moved = True
    for cycle in range(max_cycles):
        # One verdict per static world: after a round that moved nobody,
        # every robot stands on the same Point and the verdict (None) holds.
        if moved:
            # Ask the robots in the order they will look, up to the fairness
            # bound: the world stays still until the first one that would
            # move is activated, so each robot asked before it looks on
            # this very decision.
            first: dict[int, None] = {}
            for k in range(min(schedule.fairness_bound, max_cycles - cycle)):
                if len(first) == n:
                    break
                if k == len(rounds):
                    rounds.append(next_activation(schedule, n, cycle + k))
                first.update(dict.fromkeys(rounds[k]))
            verdict = _verdict(world, decide, termination, first)
            if verdict is not None:
                outcome, diagnosis = verdict
                return outcome, world, cycle, min_sep, diagnosis
        active = rounds.popleft() if rounds else next_activation(schedule, n, cycle)
        try:
            new, min_sep = execute_cycle(world, active, decide, cycle, min_sep, events)
        except SimulationFault as exc:
            if isinstance(exc, CollisionFault):
                min_sep = min(min_sep, exc.separation)
            return OUTCOME_FAULT, world, cycle, min_sep, str(exc)
        moved = new.positions is not world.positions
        world = new
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

    # While nobody flies, every world holds this one tuple of `here`.
    still = world.positions

    def world_at(t: float) -> WorldState:
        """Each robot where its latest move begun by t has got to."""
        if not flying:
            return WorldState(world.robots, still, t)
        positions = here.copy()
        for i in flying:
            positions[i] = tracks[i][-1].position_at(t)
        return WorldState(world.robots, tuple(positions), t)

    def monitor(rid: int, seg: MotionSegment, positions, floor: float) -> float:
        """`floor` lowered by robot rid's past segment `seg` against each
        other robot's track, with `positions` at `seg.t1`. Both move at unit
        speed at most, so a pair is never closer than its distance then less
        `reach`: one whose bound clears `floor` and the fault threshold, by a
        margin for rounding, is skipped. Raises CollisionFault."""
        reach = 2.0 * (seg.t1 - seg.t0)
        clear = max(floor, SAFE_SEPARATION) + 1e-6
        ex, ey = seg.end.x, seg.end.y  # `dist(seg.end, q)`, written out
        for other, q in enumerate(positions):
            if other == rid or math.hypot(ex - q.x, ey - q.y) - reach >= clear:
                continue
            for piece in _pieces_over(tracks[other], seg.t0, seg.t1):
                sep = min_separation_during_motion(seg, piece)
                if sep < SAFE_SEPARATION:
                    raise CollisionFault(
                        f"robots {rid} and {other} reach separation {sep:.6g}", sep
                    )
                floor = min(floor, sep)
        return floor

    # Event queue of (time, robot): each robot's one pending event, its
    # arrival while it is in `flying`, else its next look.
    heap = [(world.clock + delay(), rid) for rid in range(n)]
    heapq.heapify(heap)
    looks = 0
    decide = _decider(algorithm, n)
    try:
        while True:
            t, rid = heapq.heappop(heap)
            now = world_at(t)
            track = tracks[rid]
            if rid in flying:
                # The past is fully determined: check the finished segment.
                seg = track[-1]
                min_sep = monitor(rid, seg, now.positions, min_sep)
                here[rid] = seg.end
                flying.remove(rid)
                heapq.heappush(heap, (t + delay(), rid))
                if flying:
                    continue
                # `now` put the last robot in flight at the end of its move.
                still = now.positions
            else:
                if looks >= max_cycles * n:
                    # Each move begun by t is checked as far as it has got.
                    for i in sorted(flying):
                        seg = tracks[i][-1]
                        if seg.t0 < t:
                            cut = MotionSegment(seg.start, now.positions[i], seg.t0, t)
                            min_sep = monitor(i, cut, now.positions, min_sep)
                    return OUTCOME_BUDGET, now, max_cycles, min_sep, ""
                looks += 1
                cycle = (looks - 1) // n
                action, dest = _look(now, rid, decide, t, cycle, events)
                start = t + delay()
                if dest is not None:
                    cur = now.positions[rid]
                    events.append(TraceEvent(start, cycle, rid, "move", cur, dest, action.tag))
                    track.append(MotionSegment(cur, cur, track[-1].t1, start))
                    track.append(events[-1].motion())
                    flying.add(rid)
                    heapq.heappush(heap, (track[-1].t1, rid))
                    continue
                heapq.heappush(heap, (start + delay(), rid))
                # The initial world is checked once, if the first look stays.
                if looks > 1:
                    continue
            # Nobody is in flight, so `now` is the static world. One decision
            # per robot: the stall check, its tags and the looks until a
            # robot leaves its position share it.
            verdict = _verdict(now, decide, termination)
            if verdict is not None:
                outcome, diagnosis = verdict
                return outcome, now, (looks + n - 1) // n, min_sep, diagnosis
    except SimulationFault as exc:
        if isinstance(exc, CollisionFault):
            min_sep = min(min_sep, exc.separation)
        return OUTCOME_FAULT, now, looks // n, min_sep, str(exc)
