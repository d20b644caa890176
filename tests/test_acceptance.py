"""Acceptance suite: the nine release criteria, one test per criterion.

Each test prints a single "criterion N ...: PASS" line on success. Criterion 4
(safety across all runs) reuses the collision-monitor minima collected by the
convergence suites of criteria 3, 5, and 6.
"""

import math
import random
import time

import pytest

from ucircle.geometry import (
    EPS,
    Point,
    dist,
    smallest_enclosing_circle,
    smallest_enclosing_circle_bruteforce,
)
from ucircle.global_form import compute_radius
from ucircle.harness import (
    curated_local_configs,
    exit_code_for,
    generate_scenario,
    nonuniform_variant,
    parse_config,
    run_scenario,
)
from ucircle.local_form import (
    LocalParams,
    eligible_to_move,
    local_step,
    satisfies_direction_constraint,
)
from ucircle.simcore import Snapshot

P = Point


def _ok(num: int, label: str) -> None:
    print(f"criterion {num} ({label}): PASS")


# ---------------------------------------------------------------------------
# Shared run collections (criteria 3, 5, 6 feed criterion 4)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def safety_minima():
    """Collision-monitor minima and fault counts from all convergence runs."""
    return {"min_seps": [], "faults": 0}


@pytest.fixture(scope="session")
def global_grid_results(safety_minima):
    results = []
    started = time.perf_counter()
    for n in range(3, 11):
        for a in (3.5, 5.0):
            for seed in range(20):
                config = parse_config(
                    {
                        "algorithm": "global",
                        "n": n,
                        "a": a,
                        "scheduler": "SSYNC",
                        "seed": seed,
                        "placement": "random-disc",
                    }
                )
                trace, summary = run_scenario(config)
                safety_minima["min_seps"].append(trace.min_separation)
                if summary.outcome == "fault":
                    safety_minima["faults"] += 1
                results.append((n, a, seed, summary, exit_code_for(trace)))
    return {"elapsed": time.perf_counter() - started, "results": results}


@pytest.fixture(scope="session")
def curated_suite_results(safety_minima):
    results = []
    tags = set()
    started = time.perf_counter()
    for raw in curated_local_configs(seeds=(1, 2, 3, 4, 5)):
        config = parse_config(raw)
        trace, summary = run_scenario(config)
        safety_minima["min_seps"].append(trace.min_separation)
        if summary.outcome == "fault":
            safety_minima["faults"] += 1
        tags.update(e.tag for e in trace.events if e.tag)
        results.append((raw, summary))
    return {
        "elapsed": time.perf_counter() - started,
        "results": results,
        "tags": tags,
    }


@pytest.fixture(scope="session")
def nonuniform_suite_results(safety_minima):
    results = []
    for raw in curated_local_configs(seeds=(1, 2, 3, 4, 5)):
        var = nonuniform_variant(raw)
        trace, summary = run_scenario(parse_config(var))
        safety_minima["min_seps"].append(trace.min_separation)
        if summary.outcome == "fault":
            safety_minima["faults"] += 1
        results.append((var, summary, exit_code_for(trace)))
    return results


# ---------------------------------------------------------------------------
# Criterion 1: required-radius formula
# ---------------------------------------------------------------------------


def test_criterion_1_radius_formula():
    started = time.perf_counter()
    for a in (3.1, 4.0, 7.5):
        for n in range(2, 25):
            r = compute_radius(a, n)
            assert abs(2.0 * r * math.sin(math.pi / n) - a) <= 1e-9, (a, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"radius grid took {elapsed:.3f}s"
    _ok(1, "radius formula")


# ---------------------------------------------------------------------------
# Criterion 2: smallest-enclosing-circle oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_sec_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(500):
        rng = random.Random(f"sec:{seed}")
        n = rng.randint(1, 12)
        pts = [P(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)]
        fast = smallest_enclosing_circle(pts)
        slow = smallest_enclosing_circle_bruteforce(pts)
        assert abs(fast.radius - slow.radius) <= 1e-9, (seed, pts)
        assert dist(fast.center, slow.center) <= 1e-9, (seed, pts)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"SEC oracle sweep took {elapsed:.3f}s"
    _ok(2, "SEC oracle equivalence")


# ---------------------------------------------------------------------------
# Criterion 3: unlimited-visibility convergence grid
# ---------------------------------------------------------------------------


def test_criterion_3_global_convergence(global_grid_results):
    for n, a, seed, summary, code in global_grid_results["results"]:
        label = f"n={n} a={a} seed={seed}"
        assert summary.outcome == "converged", f"{label}: {summary.outcome}"
        assert code == 0, label
        assert summary.cycles_used <= 200 * n, label
        assert summary.uniformity_error < 1e-6, label
        assert summary.spacing_min >= a - 1e-6, label
    elapsed = global_grid_results["elapsed"]
    assert elapsed < 120.0, f"global grid took {elapsed:.1f}s"
    _ok(3, "global convergence grid")


# ---------------------------------------------------------------------------
# Criterion 4: safety across all acceptance runs
# ---------------------------------------------------------------------------


def test_criterion_4_safety_everywhere(
    global_grid_results,
    curated_suite_results,
    nonuniform_suite_results,
    safety_minima,
):
    # 320 global + 150 curated + 150 non-uniform runs feed the monitor.
    assert len(safety_minima["min_seps"]) == 320 + 150 + 150
    assert safety_minima["faults"] == 0
    worst = min(safety_minima["min_seps"])
    assert worst >= 2.0 - 1e-9, f"minimum pairwise separation {worst}"
    _ok(4, "safety everywhere")


# ---------------------------------------------------------------------------
# Criterion 5: limited-visibility curated suite with case coverage
# ---------------------------------------------------------------------------


def test_criterion_5_local_convergence_and_coverage(curated_suite_results):
    for raw, summary in curated_suite_results["results"]:
        label = f"n={raw['n']} vis={raw['vis']} seed={raw['seed']}"
        assert summary.outcome == "converged", f"{label}: {summary.outcome}"
        assert summary.cycles_used <= 200 * raw["n"], label
    assert len(curated_suite_results["results"]) == 150
    want = {f"psi{i}" for i in range(10)}
    got = curated_suite_results["tags"] & want
    assert got == want, f"missing case tags: {sorted(want - got)}"
    elapsed = curated_suite_results["elapsed"]
    assert elapsed < 300.0, f"curated suite took {elapsed:.1f}s"
    _ok(5, "local convergence and case coverage")


# ---------------------------------------------------------------------------
# Criterion 6: non-uniform visibility reduction and operation
# ---------------------------------------------------------------------------


def test_criterion_6_nonuniform(nonuniform_suite_results):
    # (a) equal radii: the non-uniform code path replays byte-identically.
    for raw in curated_local_configs(seeds=(1, 3))[:20]:
        uniform_trace, uniform_summary = run_scenario(parse_config(raw))
        var = dict(raw)
        var["algorithm"] = "local-nonuniform"
        var["vis"] = [raw["vis"]] * raw["n"]
        nu_trace, nu_summary = run_scenario(parse_config(var))
        assert nu_trace.to_jsonl() == uniform_trace.to_jsonl(), raw
        assert nu_summary.to_json_line() == uniform_summary.to_json_line(), raw

    # (b) heterogeneous radii: converge or stall with a logged one-sided
    # contention diagnosis; never a fault.
    for var, summary, code in nonuniform_suite_results:
        label = f"n={var['n']} seed={var['seed']}"
        assert summary.outcome != "fault", label
        if summary.outcome == "converged":
            continue
        assert code == 4, f"{label}: {summary.outcome} (exit {code})"
        assert "one-sided-psi9" in summary.diagnosis, f"{label}: {summary.diagnosis}"
    _ok(6, "non-uniform reduction and operation")


# ---------------------------------------------------------------------------
# Criterion 7: micro-scene eligibility and direction compliance
# ---------------------------------------------------------------------------


def _micro_scenes():
    """Two- and three-robot scenes on fixed rays over a radial grid."""
    grid = [2, 5, 9, 13, 17, 21, 27, 31, 36, 42, 48, 60]
    rays = [math.pi / 2.0, 0.0, math.pi]

    def at(ang, d):
        return P(d * math.cos(ang), d * math.sin(ang))

    scenes = []
    for vis in (12.0, 24.0):
        for d0 in grid:
            for d1 in grid:
                pts = [at(rays[0], d0), at(rays[1], d1)]
                if dist(pts[0], pts[1]) >= 2.1:
                    scenes.append((vis, pts))
        for d0 in grid[:6]:
            for d1 in grid[:6]:
                for d2 in grid[6:10]:
                    pts = [at(rays[0], d0), at(rays[1], d1), at(rays[2], d2)]
                    if all(
                        dist(p, q) >= 2.1
                        for i, p in enumerate(pts)
                        for q in pts[i + 1 :]
                    ):
                        scenes.append((vis, pts))
    return scenes


def test_criterion_7_micro_scene_eligibility():
    params = LocalParams.make(4, 24.0)
    center = P(0.0, 0.0)
    scenes = _micro_scenes()
    assert len(scenes) >= 500, f"only {len(scenes)} scenes generated"
    for vis, pts in scenes:
        for i, me in enumerate(pts):
            others = tuple(
                q for j, q in enumerate(pts) if j != i and dist(q, me) <= vis + EPS
            )
            eligible = eligible_to_move(me, others, params.cir)
            action = local_step(Snapshot(me, others, vis), params)
            moved = action.kind == "move"
            assert moved == eligible, (vis, [(p.x, p.y) for p in pts], i, action.tag)
            if moved:
                assert satisfies_direction_constraint(
                    me, action.dest, center, tol=1e-9
                ), (vis, (me.x, me.y), (action.dest.x, action.dest.y))
    _ok(7, "micro-scene eligibility and direction")


# ---------------------------------------------------------------------------
# Criterion 8: seeded determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism():
    representative = [
        {
            "algorithm": "global",
            "n": 6,
            "a": 4.0,
            "scheduler": "SSYNC",
            "seed": 7,
            "placement": "random-disc",
        },
        curated_local_configs(seeds=(2,))[8],
        nonuniform_variant(curated_local_configs(seeds=(4,))[17]),
    ]
    for raw in representative:
        config = parse_config(raw)
        t1, s1 = run_scenario(config)
        t2, s2 = run_scenario(config)
        assert t1.to_jsonl() == t2.to_jsonl(), raw
        assert s1.to_json_line() == s2.to_json_line(), raw
    _ok(8, "seeded determinism")


# ---------------------------------------------------------------------------
# Criterion 9: progress in every pre-convergence round
# ---------------------------------------------------------------------------


def test_criterion_9_progress():
    from ucircle.global_form import GlobalParams, is_formed, make_global_algorithm
    from ucircle.simcore import Schedule, execute_cycle, next_activation

    sched = Schedule("FSYNC")
    for n in range(3, 11):
        for a in (3.5, 5.0):
            for seed in range(20):
                config = parse_config(
                    {
                        "algorithm": "global",
                        "n": n,
                        "a": a,
                        "scheduler": "FSYNC",
                        "seed": seed,
                        "placement": "random-disc",
                    }
                )
                params = GlobalParams.make(n, a)
                world = generate_scenario(config)
                algo = make_global_algorithm(params)
                for cycle in range(200 * n):
                    if is_formed(world.positions, params, tol=1e-6):
                        break
                    active = next_activation(sched, n, cycle)
                    world, events, _ = execute_cycle(world, active, algo, cycle)
                    moves = sum(1 for e in events if e.phase == "move")
                    assert moves >= 1, f"idle round: n={n} a={a} seed={seed} c={cycle}"
                else:
                    pytest.fail(f"no convergence: n={n} a={a} seed={seed}")
    _ok(9, "round-by-round progress")
