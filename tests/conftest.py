"""Shared test fixtures.

`walk_agrees` checks `global_form.form_ucircle` against an eager reference
walk: every seat and every vacancy decided by a scan of all targets before
the walk starts, both tiers sorted and grouped, then walked.
"""

import math
import struct

import pytest

from ucircle.geometry import EPS, angle_of, compute_target_points, dist, is_vacant_target
from ucircle.global_form import SETTLE_TOL, TAG_FORM, _arc_step, _on_sec, _straight_step, form_ucircle
from ucircle.simcore import Action, move_to


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


def reference_form_ucircle(snapshot, params, sec):
    """(action, how): `how` is "seated" when the robot asking sits on a
    target, else the tier ("vacant" or "crowded") and the group the move
    was chosen from, or None when no group chose a move."""
    points = [snapshot.self_pos, *snapshot.others]
    me = snapshot.self_pos
    targets = compute_target_points(params.n, sec)
    seats = [next((i for i, t in enumerate(targets) if dist(p, t) <= SETTLE_TOL), None) for p in points]
    if seats[0] is not None:
        return Action("stay", tag=TAG_FORM), "seated"
    movers = [p for p, seat in zip(points, seats) if seat is None]
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
            metric = [(_approach(r, t, sec), r) for r in movers]
            best = min(d for d, _ in metric)
            tied = [r for d, r in metric if d <= best + 1e-9]
            if len(tied) > 1 and dist(t, targets[0]) <= 1e-9:
                continue  # contested top target
            mover = max(tied, key=lambda r: (r.y, r.x))
            step = _step(mover, t, points, sec)
            if dist(step, mover) > EPS:
                chosen.append((t, mover, step))
        if chosen:
            mine = [(t, step) for t, m, step in chosen if m is me]
            if not mine:
                return Action("stay", tag=TAG_FORM), (name, group)
            _, dest = max(mine, key=lambda c: (c[0].y, c[0].x))
            return move_to(dest, tag=TAG_FORM), (name, group)
    return Action("stay", tag=TAG_FORM), None


def action_bits(action):
    """An Action's kind, the bits of its destination, and its tag."""
    dest = None if action.dest is None else struct.pack("<dd", action.dest.x, action.dest.y)
    return action.kind, dest, action.tag


@pytest.fixture
def walk_agrees():
    """check(snapshot, params, sec): asserts that `form_ucircle` returns the
    reference walk's action, bit for bit, and returns the reference's `how`."""

    def check(snapshot, params, sec):
        want, how = reference_form_ucircle(snapshot, params, sec)
        assert action_bits(form_ucircle(snapshot, params, sec)) == action_bits(want), snapshot
        return how

    return check
