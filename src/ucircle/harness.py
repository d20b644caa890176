"""Scenario configuration, generation, execution, and metrics.

A scenario is a single JSON object (strictly parsed: unknown keys are
rejected). `run_scenario` wires placement, algorithm, scheduler, and
termination together and returns the trace plus a one-line summary.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .geometry import Point, dist, min_pairwise_distance, smallest_enclosing_circle
from .global_form import GlobalParams, is_formed, make_global_algorithm
from .local_form import LocalParams, is_formed_local, make_local_algorithm
from .simcore import (
    FRAME_Y_ONLY,
    OUTCOME_BUDGET,
    OUTCOME_CONVERGED,
    OUTCOME_FAULT,
    OUTCOME_STALL,
    SCHEDULERS,
    Robot,
    Schedule,
    Trace,
    WorldState,
    run,
)

PLACEMENT_CLEARANCE = 2.1
# The largest magnitude of a coordinate, 'a', 'rad' or 'vis' in a config: far
# beyond any scene, and small enough that no distance or square overflows.
MAX_LENGTH = 1e6
TERMINATION_TOL = 1e-6

ALGORITHMS = ("global", "local", "local-nonuniform")

EXIT_CODES = {
    OUTCOME_CONVERGED: 0,
    OUTCOME_BUDGET: 2,
    OUTCOME_FAULT: 3,
    OUTCOME_STALL: 4,
}


class ConfigError(ValueError):
    pass


class InfeasibleScenario(RuntimeError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    algorithm: str
    n: int
    scheduler: str
    seed: int
    placement: Union[str, tuple[Point, ...]]
    a: Optional[float] = None
    rad: Optional[float] = None
    vis: Union[None, float, tuple[float, ...]] = None
    max_cycles: Optional[int] = None
    fairness_bound: Optional[int] = None

    @property
    def cycle_budget(self) -> int:
        return self.max_cycles if self.max_cycles is not None else 200 * self.n

    @property
    def fairness(self) -> int:
        if self.fairness_bound is not None:
            return self.fairness_bound
        return 3 * self.n if self.scheduler == "ASYNC" else self.n


_KNOWN_KEYS = {
    "algorithm",
    "n",
    "a",
    "rad",
    "vis",
    "scheduler",
    "seed",
    "max_cycles",
    "placement",
    "fairness_bound",
}


def _is_length(value) -> bool:
    """A JSON number of magnitude at most MAX_LENGTH. Booleans, NaN and the
    infinities are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= MAX_LENGTH


def parse_point(item) -> Point:
    """An [x, y] pair of JSON numbers of magnitude at most MAX_LENGTH, as a Point."""
    if not (isinstance(item, (list, tuple)) and len(item) == 2 and all(map(_is_length, item))):
        raise ConfigError(
            f"points must be [x, y] pairs of numbers within ±{MAX_LENGTH:g}, got {item!r}"
        )
    return Point(float(item[0]), float(item[1]))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def parse_config(raw: dict) -> ScenarioConfig:
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("algorithm", "n", "scheduler", "seed", "placement"):
        if key not in raw:
            raise ConfigError(f"missing config field {key!r}")
    algorithm = raw["algorithm"]
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n <= 1:
        raise ConfigError(f"n must be an integer > 1, got {n!r}")
    scheduler = raw["scheduler"]
    if scheduler not in SCHEDULERS:
        raise ConfigError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
    seed = raw["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    max_cycles = raw.get("max_cycles")
    if max_cycles is not None and not _is_count(max_cycles):
        raise ConfigError(f"max_cycles must be a positive integer, got {max_cycles!r}")
    fairness = raw.get("fairness_bound")
    if fairness is not None and not _is_count(fairness):
        raise ConfigError(f"fairness_bound must be a positive integer, got {fairness!r}")

    a = raw.get("a")
    rad = raw.get("rad")
    vis = raw.get("vis")
    if algorithm == "global":
        if a is None:
            raise ConfigError("global algorithm requires 'a'")
        if not _is_length(a) or a <= 3:
            raise ConfigError(f"'a' must be a number > 3 and <= {MAX_LENGTH:g}, got {a!r}")
        if rad is not None or vis is not None:
            raise ConfigError("'rad'/'vis' apply to the local algorithms only")
    else:
        if a is not None:
            raise ConfigError("'a' applies to the global algorithm only")
        if not _is_length(rad) or rad <= 0:
            raise ConfigError(
                f"local algorithms require a 'rad' > 0 and <= {MAX_LENGTH:g}, got {rad!r}"
            )
        try:
            LocalParams.make(n, rad)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if vis is None:
            raise ConfigError("local algorithms require 'vis'")
        if isinstance(vis, (list, tuple)):
            if len(vis) != n or not all(_is_length(v) and v > 0 for v in vis):
                raise ConfigError(f"'vis' list needs one value > 0 and <= {MAX_LENGTH:g} per robot")
            vis = tuple(float(v) for v in vis)
        elif not _is_length(vis) or vis <= 0:
            raise ConfigError(
                f"'vis' must be a number > 0 and <= {MAX_LENGTH:g}, or a list, got {vis!r}"
            )

    placement = raw["placement"]
    if isinstance(placement, str):
        if placement not in ("random-disc", "random-annulus"):
            raise ConfigError(f"unknown placement {placement!r}")
        if placement == "random-annulus" and algorithm == "global":
            raise ConfigError("placement 'random-annulus' applies to the local algorithms only")
    elif isinstance(placement, (list, tuple)):
        if len(placement) != n:
            raise ConfigError(f"explicit placement needs {n} points, got {len(placement)}")
        pts = [parse_point(item) for item in placement]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if dist(pts[i], pts[j]) < 2.0:
                    raise ConfigError(
                        f"placement points {i} and {j} are closer than two units"
                    )
        placement = tuple(pts)
    else:
        raise ConfigError(f"placement must be a mode name or a point list, got {placement!r}")

    return ScenarioConfig(
        algorithm=algorithm,
        n=n,
        scheduler=scheduler,
        seed=seed,
        placement=placement,
        a=float(a) if a is not None else None,
        rad=float(rad) if rad is not None else None,
        vis=float(vis) if isinstance(vis, (int, float)) else vis,
        max_cycles=max_cycles,
        fairness_bound=fairness,
    )


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise ConfigError(str(exc)) from None
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must hold a single JSON object")
    return parse_config(raw)


def _sample_points(config: ScenarioConfig, rng: random.Random) -> list[Point]:
    if isinstance(config.placement, tuple):
        return list(config.placement)
    if config.algorithm == "global":
        r_lo, r_hi = 0.0, max(6.0, 2.5 * math.sqrt(config.n) + 2.0)
    elif config.placement == "random-annulus":
        r_lo, r_hi = 0.5 * config.rad, 1.5 * config.rad
    else:
        r_lo, r_hi = 0.0, config.rad
    pts: list[Point] = []
    attempts = 0
    while len(pts) < config.n:
        attempts += 1
        if attempts > 20000:
            raise InfeasibleScenario(
                f"could not place {config.n} robots with clearance {PLACEMENT_CLEARANCE}"
            )
        r = math.sqrt(rng.uniform(r_lo * r_lo, r_hi * r_hi))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        p = Point(r * math.cos(ang), r * math.sin(ang))
        if all(dist(p, q) >= PLACEMENT_CLEARANCE for q in pts):
            pts.append(p)
    return pts


def generate_scenario(config: ScenarioConfig) -> WorldState:
    rng = random.Random(f"scenario:{config.seed}")
    pts = tuple(_sample_points(config, rng))
    if config.algorithm == "global":
        # Global robots see everything and share only the Y axis.
        robots = tuple(Robot(chirality=rng.choice((1, -1)), frame=FRAME_Y_ONLY) for _ in pts)
    else:
        vis = config.vis if isinstance(config.vis, tuple) else (config.vis,) * config.n
        robots = tuple(Robot(vis_radius=v) for v in vis)
    return WorldState(robots, pts)


def build_algorithm(config: ScenarioConfig):
    if config.algorithm == "global":
        params = GlobalParams.make(config.n, config.a)
        return make_global_algorithm(params), params
    params = LocalParams.make(config.n, config.rad)
    return make_local_algorithm(params), params


def build_termination(config: ScenarioConfig, params):
    formed = is_formed if config.algorithm == "global" else is_formed_local

    def done(world: WorldState) -> bool:
        return formed(world.positions, params, tol=TERMINATION_TOL)

    return done


@dataclass(frozen=True)
class RunSummary:
    outcome: str
    cycles_used: int
    min_pairwise_dist: float
    uniformity_error: float
    spacing_min: float
    diagnosis: str = ""

    def to_json_line(self) -> str:
        payload = {
            "outcome": self.outcome,
            "cycles_used": self.cycles_used,
            "min_pairwise_dist": self.min_pairwise_dist,
            "uniformity_error": self.uniformity_error,
            "spacing_min": self.spacing_min,
            "diagnosis": self.diagnosis,
        }
        return json.dumps(payload, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def _ring_metrics(positions: Sequence[Point], center: Point, n: int) -> tuple[float, float]:
    # Each robot's angle about the center, computed once; a stable sort by
    # it orders both the angles and the robots round the ring.
    ring = sorted(
        [(math.atan2(p.y - center.y, p.x - center.x), p) for p in positions],
        key=operator.itemgetter(0),
    )
    angles = [ang for ang, _ in ring]
    want = 2.0 * math.pi / n
    uerr = 0.0
    for i, ang in enumerate(angles):
        nxt = angles[(i + 1) % len(angles)] + (2.0 * math.pi if i + 1 == len(angles) else 0.0)
        uerr = max(uerr, abs((nxt - ang) - want))
    by_angle = [p for _, p in ring]
    smin = min(
        dist(by_angle[i], by_angle[(i + 1) % len(by_angle)]) for i in range(len(by_angle))
    )
    return uerr, smin


def compute_metrics(trace: Trace, config: ScenarioConfig, params) -> RunSummary:
    positions = trace.final.positions
    if config.algorithm == "global":
        center = smallest_enclosing_circle(positions).center
    else:
        center = params.cir.center
    uerr, smin = _ring_metrics(positions, center, config.n)
    # The trace's minimum already covers the initial world.
    min_pd = min(trace.min_separation, min_pairwise_distance(positions))
    return RunSummary(
        outcome=trace.outcome,
        cycles_used=trace.cycles_used,
        min_pairwise_dist=min_pd,
        uniformity_error=uerr,
        spacing_min=smin,
        diagnosis=trace.diagnosis,
    )


def _one_sided_psi9(world: WorldState, rad: float, center: Point) -> bool:
    pts = world.positions
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            if i == j:
                continue
            da = dist(a, center)
            db = dist(b, center)
            if not (da < rad - 1e-9 and db > rad + 1e-9):
                continue
            gap = dist(a, b)
            sees_ab = gap <= world.robots[i].vis_radius + 1e-9
            sees_ba = gap <= world.robots[j].vis_radius + 1e-9
            if sees_ab == sees_ba:
                continue
            ta = math.atan2(a.y - center.y, a.x - center.x)
            tb = math.atan2(b.y - center.y, b.x - center.x)
            if abs(math.remainder(ta - tb, 2.0 * math.pi)) <= 1e-3:
                return True
    return False


def run_scenario(config: ScenarioConfig) -> tuple[Trace, RunSummary]:
    world = generate_scenario(config)
    algo, params = build_algorithm(config)
    done = build_termination(config, params)
    schedule = Schedule(kind=config.scheduler, seed=config.seed, fairness_bound=config.fairness)
    trace = run(world, algo, schedule, done, config.cycle_budget)
    if (
        trace.outcome == OUTCOME_STALL
        and config.algorithm != "global"
        and _one_sided_psi9(trace.final, params.cir.radius, params.cir.center)
    ):
        trace.diagnosis = (trace.diagnosis + ";" if trace.diagnosis else "") + "one-sided-psi9"
    summary = compute_metrics(trace, config, params)
    return trace, summary


# ---------------------------------------------------------------------------
# Curated limited-visibility suite
# ---------------------------------------------------------------------------

PLACEMENT_KINDS = ("inside", "outside", "mixed", "center", "contention")
VIS_KINDS = ("half", "full")


def curated_rad(n: int) -> float:
    return 6.0 * n


def _mid_angle(n: int, j: int) -> float:
    """Angle halfway between target j and target j+1 (off every target ray)."""
    return math.pi / 2.0 - (2.0 * j + 1.0) * math.pi / n


def curated_placement(kind: str, n: int, vis: float) -> list[list[float]]:
    """Hand-built start positions exercising every positional case."""
    rad = curated_rad(n)

    def at(angle: float, r: float) -> list[float]:
        return [r * math.cos(angle), r * math.sin(angle)]

    pts: list[list[float]] = []
    if kind == "inside":
        for j in range(n):
            ang = _mid_angle(n, j)
            if j == 0:
                r = max(3.0, rad - vis)  # visibility circle tangent to CIR
            elif j == 1:
                r = rad / 4.0  # deep inside; disjoint when vis = rad/2
            else:
                r = rad - 4.0 - 3.0 * (j % 3)
            pts.append(at(ang, r))
    elif kind == "outside":
        for j in range(n):
            ang = _mid_angle(n, j)
            if j == 0:
                r = rad + vis  # tangent from outside
            elif j == 1:
                r = rad + vis + 6.0  # fully beyond reach
            else:
                r = rad + 4.0 + 2.0 * (j % 3)
            pts.append(at(ang, r))
    elif kind == "mixed":
        for j in range(n):
            if j == 0:
                pts.append(at(math.pi / 2.0 - 2.0 * math.pi / n, rad))  # on a target
            elif j == 1:
                pts.append(at(_mid_angle(n, 1), rad))  # on CIR, off target
            elif j % 2 == 0:
                pts.append(at(_mid_angle(n, j), rad - 5.0 - (j % 3)))
            else:
                pts.append(at(_mid_angle(n, j), rad + 5.0 + (j % 3)))
    elif kind == "center":
        for j in range(n):
            if j == 0:
                pts.append([0.0, 0.0])
            elif j % 2 == 0:
                pts.append(at(_mid_angle(n, j), rad - 5.0 - (j % 3)))
            else:
                pts.append(at(_mid_angle(n, j), rad + 5.0 + (j % 3)))
    elif kind == "contention":
        pts.append(at(math.pi / 2.0, rad - 4.0))  # aligned with the top target
        pts.append(at(math.pi / 2.0, rad + 4.0))  # its rival across CIR
        for j in range(2, n):
            pts.append(at(_mid_angle(n, j), rad - 6.0 - 2.0 * (j % 2)))
    else:
        raise ValueError(f"unknown curated placement kind {kind!r}")
    return pts


def curated_local_configs(seeds: Sequence[int]) -> list[dict]:
    """The acceptance suite: 30 scenario shapes, one config dict per seed."""
    configs = []
    for n in (4, 6, 8):
        rad = curated_rad(n)
        for vk in VIS_KINDS:
            vis = rad / 2.0 if vk == "half" else rad
            for kind in PLACEMENT_KINDS:
                for seed in seeds:
                    configs.append(
                        {
                            "algorithm": "local",
                            "n": n,
                            "rad": rad,
                            "vis": vis,
                            "scheduler": "ASYNC",
                            "seed": seed,
                            "max_cycles": 200 * n,
                            "fairness_bound": 3 * n,
                            "placement": curated_placement(kind, n, vis),
                        }
                    )
    return configs


def nonuniform_variant(config_dict: dict) -> dict:
    """Same scenario with per-robot visibility radii drawn from [rad/3, rad]."""
    out = dict(config_dict)
    rng = random.Random(f"vis:{config_dict['seed']}")
    rad = config_dict["rad"]
    n = config_dict["n"]
    out["algorithm"] = "local-nonuniform"
    out["vis"] = [rad / 3.0 + (2.0 * rad / 3.0) * rng.random() for _ in range(n)]
    return out
