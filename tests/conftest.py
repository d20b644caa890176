"""Shared test fixtures and helpers.

`reference_plan` is an eager reference of `global_form._plan`: every seat
and every vacancy decided by a scan of all targets before the walk starts,
both tiers sorted and grouped, then walked over a given pool of movers.
`walk_agrees` checks `global_form.form_ucircle` against the reference walk
over every unseated robot.

`sight_of` builds the view a local activation reads, and `round_of` runs one
sync round of an algorithm with a fresh decision table.
"""

import math
import struct

import pytest

from ucircle.geometry import EPS, ORIGIN, angle_of, compute_target_points, dist, is_vacant_target
from ucircle.global_form import SETTLE_TOL, TAG_FORM, _arc_step, _on_sec, _straight_step, form_ucircle
from ucircle.local_form import measure
from ucircle.simcore import Action, Snapshot, _decisions, execute_cycle


def sight_of(me, others, vis):
    """The Sight of a robot at `me` that sees `others`, measured from the origin."""
    return measure(Snapshot(me, tuple(others), vis), ORIGIN)


def round_of(world, active, algo, cycle=0, floor=math.inf):
    """`execute_cycle` over a fresh decision table of `algo` in `world`."""
    return execute_cycle(world, active, _decisions(world, algo, None), cycle, floor)


def _approach(r, t, sec):
    """Arc distance for robots on the SEC boundary, chord distance otherwise."""
    if _on_sec(r, sec):
        da = abs(angle_of(r, sec.center) - angle_of(t, sec.center))
        return min(da, 2.0 * math.pi - da) * sec.radius
    return dist(r, t)


def _step(mover, target, points, sec):
    others = [p for p in points if p is not mover]
    dest = _straight_step(mover, target, others)
    if dist(dest, mover) <= EPS and _on_sec(mover, sec):
        dest = _arc_step(mover, angle_of(mover, sec.center), target, sec, others)
    return dest


def _seats(points, targets):
    """Each point's seat: the index of the target within SETTLE_TOL of it, or None."""
    return [next((i for i, t in enumerate(targets) if dist(p, t) <= SETTLE_TOL), None) for p in points]


def _reference_walk(points, sec, n, pool):
    """(plan, how) of the eager walk over the movers `pool`: the plan and the
    tier ("vacant" or "crowded") and group of the first group that chooses a
    move, or ([], None) when none does."""
    targets = compute_target_points(n, sec)
    seats = _seats(points, targets)
    vacant = [t for t in targets if is_vacant_target(t, points)]
    crowded = [t for i, t in enumerate(targets) if i not in seats and t not in vacant]
    groups = []
    for tier, name in ((vacant, "vacant"), (crowded, "crowded")):
        tier.sort(key=lambda t: (-t.y, abs(t.x - sec.center.x)))
        for k, t in enumerate(tier):
            if k and abs(t.y - groups[-1][1][0].y) <= 1e-9:
                groups[-1][1].append(t)
            else:
                groups.append((name, [t]))
    for name, group in groups:
        chosen = []
        for t in group:
            metric = [(_approach(r, t, sec), r) for r in pool]
            best = min(d for d, _ in metric)
            tied = [r for d, r in metric if d <= best + 1e-9]
            if len(tied) > 1 and dist(t, targets[0]) <= 1e-9:
                continue  # contested top target
            mover = max(tied, key=lambda r: (r.y, r.x))
            step = _step(mover, t, points, sec)
            if dist(step, mover) > EPS:
                chosen.append((t, mover, step))
        if chosen:
            return chosen, (name, group)
    return [], None


def reference_plan(points, sec, n, pool):
    """The eager walk's plan when only the robots in `pool` may move: the
    (target, mover, step) list of the first group that chooses a move, or []."""
    return _reference_walk(points, sec, n, pool)[0]


def reference_form_ucircle(points, params, sec):
    """(action, how) of the robot at `points[0]`: `how` is "seated" when it
    sits on a target, else the tier ("vacant" or "crowded") and the group
    the move was chosen from, or None when no group chose a move."""
    me = points[0]
    seats = _seats(points, compute_target_points(params.n, sec))
    if seats[0] is not None:
        return Action("stay", tag=TAG_FORM), "seated"
    pool = [p for p, seat in zip(points, seats) if seat is None]
    plan, how = _reference_walk(points, sec, params.n, pool)
    mine = [(t, step) for t, m, step in plan if m is me]
    if not mine:
        return Action("stay", tag=TAG_FORM), how
    _, dest = max(mine, key=lambda c: (c[0].y, c[0].x))
    return Action("move", dest, TAG_FORM), how


def action_bits(action):
    """An Action's kind, the bits of its destination, and its tag."""
    dest = None if action.dest is None else struct.pack("<dd", action.dest.x, action.dest.y)
    return action.kind, dest, action.tag


@pytest.fixture
def walk_agrees():
    """check(points, params, sec): asserts that `form_ucircle` returns the
    reference walk's action, bit for bit, and returns the reference's `how`."""

    def check(points, params, sec):
        want, how = reference_form_ucircle(points, params, sec)
        assert action_bits(form_ucircle(points, params, sec)) == action_bits(want), points
        return how

    return check
