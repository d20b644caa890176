"""Deterministic SVG frames for simulation traces.

Frames show robot discs, the reference circle, target points, and each
robot's visibility circle when its radius is finite. Output is plain string
assembly so two renders of the same trace are byte-identical.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .geometry import Circle, Point
from .simcore import Trace, TraceEvent


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _svg_document(
    positions: Sequence[Point],
    circle: Optional[Circle],
    targets: Sequence[Point],
    vis_radii: Sequence[float],
    caption: str,
) -> str:
    xs = [p.x for p in positions]
    ys = [p.y for p in positions]
    if circle is not None:
        xs += [circle.center.x - circle.radius, circle.center.x + circle.radius]
        ys += [circle.center.y - circle.radius, circle.center.y + circle.radius]
    pad = 4.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    w, h = x1 - x0, y1 - y0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(w)} {_fmt(h)}" width="640" height="640">',
        f"<!-- {caption} -->",
        '<g stroke-width="0.15">',
    ]
    if circle is not None:
        lines.append(
            f'<circle cx="{_fmt(circle.center.x)}" cy="{_fmt(-circle.center.y)}" '
            f'r="{_fmt(circle.radius)}" fill="none" stroke="#444444"/>'
        )
    for t in targets:
        lines.append(
            f'<circle cx="{_fmt(t.x)}" cy="{_fmt(-t.y)}" r="0.4" '
            'fill="none" stroke="#2a7d2a"/>'
        )
    for p, vis in zip(positions, vis_radii):
        lines.append(
            f'<circle cx="{_fmt(p.x)}" cy="{_fmt(-p.y)}" r="1.0" '
            'fill="#4a7ab5" fill-opacity="0.8" stroke="#1d3c5e"/>'
        )
        if math.isfinite(vis):
            lines.append(
                f'<circle cx="{_fmt(p.x)}" cy="{_fmt(-p.y)}" r="{_fmt(vis)}" '
                'fill="none" stroke="#b5764a" stroke-dasharray="0.6 0.6" stroke-width="0.08"/>'
            )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_frames(
    trace: Trace,
    every_k: int,
    circle: Optional[Circle] = None,
    targets: Sequence[Point] = (),
) -> dict[str, str]:
    """Initial frame, every k-th cycle boundary, and the final state.

    Cycle frame c is the world at cycle c's first look: each robot stands
    where its latest move begun by then has got to, part way along it if it
    is in flight. A boundary at the final clock (a sync round that faulted)
    gets no frame: the final frame shows that world.
    """
    if every_k < 1:
        raise ValueError("every_k must be >= 1")
    vis = [r.vis_radius for r in trace.initial.robots]
    moves: dict[int, TraceEvent] = {}  # each robot's latest move event
    frames: dict[str, str] = {}

    def snap(name: str, caption: str, positions: Sequence[Point]) -> None:
        frames[name] = _svg_document(positions, circle, targets, vis, caption)

    snap("frame-initial.svg", "initial configuration", trace.initial.positions)
    last_cycle = 0
    for ev in trace.events:
        c, t = ev.cycle, ev.clock
        if c > last_cycle:
            last_cycle = c
            if c % every_k == 0 and t < trace.final.clock:
                positions = list(trace.initial.positions)
                for i, m in moves.items():
                    positions[i] = m.motion().position_at(t)
                snap(f"frame-cycle-{c:05d}.svg", f"after cycle {c}", positions)
        if ev.phase == "move":
            moves[ev.robot] = ev
    snap("frame-final.svg", f"final state ({trace.outcome})", trace.final.positions)
    return frames
