"""Soak tier: the outcome tables of four sweeps far beyond the acceptance
seeds, of three symmetric variants of the global soak and of two of the
local sweep, and of the golden corpus and the global soak under a one-ulp
change of the platform's trigonometry, pinned as they stand, defects
included, and the benchmark at every seed from 1 to 10.

These are the gates that the behaviour fixes for local collisions and
stalls and for global livelocks will move: a fix updates the table it
changes, with the reason. Run them with

    PYTHONPATH=src python -m pytest -q -m soak

The tier-1 command deselects them (`addopts` in `pyproject.toml`). Each
sweep runs on 2 worker processes, as `ucircle batch --jobs 2` does, and
takes between a few seconds and about half a minute.
"""

import functools
import json
import math
import multiprocessing
import random
import subprocess
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import pytest
from test_golden import CORPUS, corpus_digest, entry_digest

from ucircle import geometry
from ucircle.geometry import Point
from ucircle.harness import (
    build_algorithm,
    build_termination,
    generate_scenario,
    nonuniform_variant,
    parse_config,
    run_scenario,
)
from ucircle.simcore import Schedule, WorldState, run

pytestmark = pytest.mark.soak

WORKERS = 2
ROOT = Path(__file__).resolve().parent.parent
# One benchmark run takes 2-5 s.
BENCH_TIMEOUT_S = 300


def _outcome(raw):
    """(outcome, diagnosis) of one scenario dict."""
    _, summary = run_scenario(parse_config(raw))
    return summary.outcome, summary.diagnosis


def _run_all(raws, outcome=_outcome, initializer=None, initargs=()):
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=WORKERS, mp_context=spawn, initializer=initializer, initargs=initargs
    ) as pool:
        return list(pool.map(outcome, raws, chunksize=8))


def global_soak():
    """`global`, SSYNC, `random-disc`, n = 3..16, a in {3.5, 5.0}, seeds
    20..59, default budget: 1120 scenes, as the keys (n, a, seed) and their
    config dicts."""
    keys = [(n, a, seed) for n in range(3, 17) for a in (3.5, 5.0) for seed in range(20, 60)]
    raws = [
        dict(algorithm="global", n=n, a=a, scheduler="SSYNC", seed=seed, placement="random-disc")
        for n, a, seed in keys
    ]
    return keys, raws


def test_global_soak():
    """The global soak's 1120 runs. The 14 that run out of budget
    alternate between expansion and formation, all at a = 5.0."""
    keys, raws = global_soak()
    results = _run_all(raws)
    assert Counter(outcome for outcome, _ in results) == {"converged": 1106, "budget-exhausted": 14}
    budget = sorted(key for key, (outcome, _) in zip(keys, results) if outcome == "budget-exhausted")
    assert {a for _, a, _ in budget} == {5.0}
    assert [(n, seed) for n, _, seed in budget] == [
        (6, 49), (13, 22), (15, 33), (15, 39), (15, 43), (15, 52), (16, 20),
        (16, 33), (16, 39), (16, 42), (16, 44), (16, 45), (16, 52), (16, 56),
    ]


# The model fixes neither chirality nor the order of SSYNC activations, so
# each of these transformed worlds is as valid an input as the original.
SYMMETRIES = {
    # x -> -x, each robot keeping its chirality: the original with every
    # chirality flipped.
    "mirror": lambda robots, points: (robots, tuple(Point(-p.x, p.y) for p in points)),
    # Another seeded fair SSYNC schedule of the same robots.
    "reversed": lambda robots, points: (robots[::-1], points[::-1]),
    "translated": lambda robots, points: (
        robots, tuple(Point(p.x + 37.25, p.y - 11.5) for p in points)
    ),
    # A turn by 2*pi/n about the origin, the local algorithms' C, which maps
    # their target layout onto itself.
    "rotated": lambda robots, points: (robots, _rotated(points, 2.0 * math.pi / len(points))),
}


def _rotated(points, angle):
    c, s = math.cos(angle), math.sin(angle)
    return tuple(Point(c * p.x - s * p.y, s * p.x + c * p.y) for p in points)


def _symmetric_outcome(job):
    """(outcome, diagnosis) of one scenario dict, run from its generated
    world transformed by the named symmetry."""
    symmetry, raw = job
    config = parse_config(raw)
    start = generate_scenario(config)
    world = WorldState(*SYMMETRIES[symmetry](start.robots, start.positions))
    algo, params = build_algorithm(config)
    schedule = Schedule(config.scheduler, config.seed, config.fairness)
    trace = run(world, algo, schedule, build_termination(config, params), config.cycle_budget)
    return trace.outcome, trace.diagnosis


# Each variant's outcome table, and the (n, seed) of its runs that did not
# converge: those out of budget, then the `form` stalls.
SYMMETRY_TABLES = {
    "mirror": (
        {"converged": 545, "budget-exhausted": 14, "diagnosed-stall": 1},
        [(6, 49), (13, 22), (15, 20), (15, 33), (15, 39), (15, 43), (16, 33), (16, 39),
         (16, 42), (16, 44), (16, 52), (16, 54), (16, 55), (16, 56)],
        [(16, 26)],
    ),
    "reversed": (
        {"converged": 546, "budget-exhausted": 12, "diagnosed-stall": 2},
        [(6, 49), (13, 22), (15, 33), (15, 39), (16, 20), (16, 21), (16, 33), (16, 39),
         (16, 44), (16, 45), (16, 52), (16, 56)],
        [(12, 50), (13, 51)],
    ),
    "translated": (
        {"converged": 546, "budget-exhausted": 14},
        [(6, 49), (13, 22), (15, 33), (15, 39), (15, 43), (15, 52), (16, 20), (16, 33),
         (16, 39), (16, 42), (16, 44), (16, 45), (16, 52), (16, 56)],
        [],
    ),
}


@pytest.mark.parametrize("symmetry", sorted(SYMMETRY_TABLES))
def test_global_symmetry_soak(symmetry):
    """`global`, SSYNC, `random-disc`, a = 5.0, n = 3..16, seeds 20..59:
    560 placements, each run from its world mirrored, in reversed index
    order, or translated. Against the original runs (`test_global_soak`),
    the mirror changes 7 outcomes, among them a `form` stall, the reversal
    changes 6, among them two `form` stalls, and translation changes none."""
    keys = [(n, seed) for n in range(3, 17) for seed in range(20, 60)]
    jobs = [
        (symmetry, dict(algorithm="global", n=n, a=5.0, scheduler="SSYNC", seed=seed,
                        placement="random-disc"))
        for n, seed in keys
    ]
    results = _run_all(jobs, _symmetric_outcome)
    outcomes, budget, stalls = SYMMETRY_TABLES[symmetry]
    assert Counter(outcome for outcome, _ in results) == outcomes
    ending = dict(zip(keys, results))
    assert [key for key in keys if ending[key][0] == "budget-exhausted"] == budget
    assert [key for key in keys if ending[key] == ("diagnosed-stall", "form")] == stalls


# The libm functions the package calls whose last bit IEEE 754 leaves open;
# `math.hypot` and `math.sqrt` are not among them.
JITTERED = ("sin", "cos", "atan2", "acos", "asin")


def _jitter(toward):
    """Process-pool initializer: each function of JITTERED returns the float
    next to its result toward `toward` (+inf or -inf), as a C library that
    rounds the other way would. Package code looks each one up in `math` at
    call time; the cached target directions are dropped so they are
    recomputed with the jittered functions."""
    for name in JITTERED:
        setattr(math, name, lambda *args, f=getattr(math, name): math.nextafter(f(*args), toward))
    geometry._target_directions.cache_clear()


def _golden_ending(raws):
    """(digest, [(outcome, cycles used)] per scene) of one golden entry."""
    digest, runs = corpus_digest(raws)
    return digest, [(summary.outcome, summary.cycles_used) for _, summary in runs]


# Under each direction: the golden entries whose digest holds (the two
# no-leader stalls, whose given placements never move),
# the global soak's outcome counts, and the (n, a, seed) of its runs out of
# budget and of its `form` stalls. Against `test_global_soak`, +1 ulp trades
# (15, 5.0, 52) for (15, 5.0, 20) out of budget, and -1 ulp keeps the same
# 14; both turn converged runs into `form` stalls.
_NO_LEADER = ["global-async-no-leader-stall", "global-ssync-no-leader-stall"]
JITTER_TABLES = {
    "up": (
        _NO_LEADER,
        {"converged": 1104, "budget-exhausted": 14, "diagnosed-stall": 2},
        [(6, 5.0, 49), (13, 5.0, 22), (15, 5.0, 20), (15, 5.0, 33), (15, 5.0, 39),
         (15, 5.0, 43), (16, 5.0, 20), (16, 5.0, 33), (16, 5.0, 39), (16, 5.0, 42),
         (16, 5.0, 44), (16, 5.0, 45), (16, 5.0, 52), (16, 5.0, 56)],
        [(12, 3.5, 50), (12, 5.0, 50)],
    ),
    "down": (
        _NO_LEADER,
        {"converged": 1102, "budget-exhausted": 14, "diagnosed-stall": 4},
        [(6, 5.0, 49), (13, 5.0, 22), (15, 5.0, 33), (15, 5.0, 39), (15, 5.0, 43),
         (15, 5.0, 52), (16, 5.0, 20), (16, 5.0, 33), (16, 5.0, 39), (16, 5.0, 42),
         (16, 5.0, 44), (16, 5.0, 45), (16, 5.0, 52), (16, 5.0, 56)],
        [(13, 3.5, 43), (13, 5.0, 43), (16, 3.5, 31), (16, 5.0, 47)],
    ),
}


@pytest.mark.parametrize("toward", ["up", "down"])
def test_ulp_jitter_soak(toward):
    """The golden corpus and the global soak with every function of JITTERED
    one ulp off, in the workers only. No golden outcome or cycle count
    moves, yet 26 of the 28 digests do: the bytes depend on the platform's
    libm. The global soak's table moves too."""
    jitter = (math.inf if toward == "up" else -math.inf,)
    names = sorted(CORPUS)
    endings = _run_all([CORPUS[name][0] for name in names], _golden_ending, _jitter, jitter)
    held = []
    for name, (digest, scenes) in zip(names, endings):
        got, runs = entry_digest(name)
        assert got == CORPUS[name][1], f"{name}: the main process must not be jittered"
        assert scenes == [(summary.outcome, summary.cycles_used) for _, summary in runs], name
        if digest == got:
            held.append(name)
    keys, raws = global_soak()
    results = _run_all(raws, _outcome, _jitter, jitter)
    ending = dict(zip(keys, results))
    held_pin, outcomes, budget, stalls = JITTER_TABLES[toward]
    # Some digest moves, so a jitter that patched nothing fails here.
    assert held == held_pin and len(held) < len(names)
    assert Counter(outcome for outcome, _ in results) == outcomes
    assert [key for key in keys if ending[key][0] == "budget-exhausted"] == budget
    assert [key for key in keys if ending[key] == ("diagnosed-stall", "form")] == stalls


def local_sweep():
    """`local`, rad = 6n, vis = 3n, n in {16, 24}, `random-disc` and
    `random-annulus`, SSYNC and ASYNC, seeds 0..39: 320 scenes, as the keys
    (n, placement, scheduler, seed) and their config dicts."""
    keys = [
        (n, placement, scheduler, seed)
        for n in (16, 24)
        for placement in ("random-disc", "random-annulus")
        for scheduler in ("SSYNC", "ASYNC")
        for seed in range(40)
    ]
    raws = [
        dict(algorithm="local", n=n, rad=6.0 * n, vis=3.0 * n, scheduler=scheduler, seed=seed,
             placement=placement)
        for n, placement, scheduler, seed in keys
    ]
    return keys, raws


def _local_table(keys, results):
    """The outcome counts, the stall diagnoses, and the keys that ran out of
    budget and that faulted, of the local sweep's results."""
    by_outcome = {}
    for key, (outcome, _) in zip(keys, results):
        by_outcome.setdefault(outcome, []).append(key)
    return (
        Counter(outcome for outcome, _ in results),
        Counter(diagnosis for outcome, diagnosis in results if outcome == "diagnosed-stall"),
        by_outcome.get("budget-exhausted", []),
        by_outcome.get("fault", []),
    )


# No stall carries `one-sided-psi9`: that diagnosis never fires here.
LOCAL_SWEEP_TABLE = (
    {"converged": 186, "diagnosed-stall": 128, "budget-exhausted": 1, "fault": 5},
    {"psi1,psi5": 49, "psi1,psi8": 46, "psi1,psi3,psi5": 29, "psi1,psi5,psi8": 4},
    [(16, "random-annulus", "SSYNC", 9)],
    [
        (16, "random-disc", "SSYNC", 1),
        (16, "random-disc", "ASYNC", 1),
        (16, "random-annulus", "ASYNC", 37),
        (24, "random-annulus", "ASYNC", 10),
        (24, "random-annulus", "ASYNC", 36),
    ],
)


def test_local_sweep():
    keys, raws = local_sweep()
    assert _local_table(keys, _run_all(raws)) == LOCAL_SWEEP_TABLE


LOCAL_SYMMETRY_TABLES = {
    # The rotation maps every target onto the next, and the runs end as the
    # original ones do.
    "rotated": LOCAL_SWEEP_TABLE,
    # Another fair SSYNC schedule or another ASYNC delay assignment: 9
    # outcomes differ from the original runs.
    "reversed": (
        {"converged": 189, "diagnosed-stall": 127, "budget-exhausted": 1, "fault": 3},
        {"psi1,psi5": 49, "psi1,psi8": 47, "psi1,psi3,psi5": 28, "psi1,psi5,psi8": 3},
        [(16, "random-annulus", "SSYNC", 9)],
        [
            (16, "random-disc", "SSYNC", 1),
            (16, "random-disc", "ASYNC", 1),
            (24, "random-annulus", "ASYNC", 36),
        ],
    ),
}


@pytest.mark.parametrize("symmetry", sorted(LOCAL_SYMMETRY_TABLES))
def test_local_symmetry_soak(symmetry):
    """The local sweep's 320 placements, each run from its world turned by
    2*pi/n about C or in reversed index order."""
    keys, raws = local_sweep()
    results = _run_all([(symmetry, raw) for raw in raws], _symmetric_outcome)
    assert _local_table(keys, results) == LOCAL_SYMMETRY_TABLES[symmetry]


def test_nonuniform_sweep():
    """`nonuniform_variant` (radii drawn from [rad/3, rad]) of `local`
    scenes with rad = 6n, n in {8, 16}, `random-disc` and `random-annulus`,
    SSYNC and ASYNC, seeds 0..19: 160 runs. With equal radii
    `one-sided-psi9` cannot fire, as two robots then both see each other or
    neither does; here, where it could, no stall carries it."""
    keys = [
        (n, placement, scheduler, seed)
        for n in (8, 16)
        for placement in ("random-disc", "random-annulus")
        for scheduler in ("SSYNC", "ASYNC")
        for seed in range(20)
    ]
    raws = [
        nonuniform_variant(dict(algorithm="local", n=n, rad=6.0 * n, vis=3.0 * n,
                                scheduler=scheduler, seed=seed, placement=placement))
        for n, placement, scheduler, seed in keys
    ]
    results = _run_all(raws)
    assert Counter(outcome for outcome, _ in results) == {
        "converged": 104,
        "diagnosed-stall": 55,
        "fault": 1,
    }
    stalls = Counter(diagnosis for outcome, diagnosis in results if outcome == "diagnosed-stall")
    assert stalls == {"psi1,psi3,psi5": 18, "psi1,psi5": 16, "psi1,psi8": 16, "psi1,psi5,psi8": 5}
    faults = [key for key, (outcome, _) in zip(keys, results) if outcome == "fault"]
    assert faults == [(8, "random-annulus", "ASYNC", 6)]


def wide_grid():
    """600 small `local` scenes drawn from one `random.Random(2026)`, each
    as (vis kind, config dict), the draws in this order per scene: n, rad,
    vis, scheduler, seed, placement."""
    rng = random.Random(2026)
    scenes = []
    for _ in range(600):
        n = rng.randint(3, 10)
        rad = rng.choice((2 * n, 4 * n, 6 * n)) + 0.5
        kind, vis = rng.choice((("6", 6), ("rad/2", rad / 2), ("rad", rad), ("3rad", 3 * rad)))
        scheduler = rng.choice(("FSYNC", "SSYNC", "ASYNC"))
        seed = rng.randrange(10**6)
        placement = rng.choice(("random-disc", "random-annulus"))
        raw = dict(algorithm="local", n=n, rad=rad, vis=vis, scheduler=scheduler, seed=seed,
                   placement=placement)
        scenes.append((kind, raw))
    return scenes


def test_wide_grid():
    scenes = wide_grid()
    results = _run_all([raw for _, raw in scenes])
    assert Counter(outcome for outcome, _ in results) == {
        "converged": 306,
        "diagnosed-stall": 254,
        "fault": 40,
    }
    faults = Counter(kind for (kind, _), (outcome, _) in zip(scenes, results) if outcome == "fault")
    assert faults == {"6": 24, "rad/2": 12, "rad": 3, "3rad": 1}


def _bench(workload, seed):
    """One untimed `perfbench/run.py` run from the checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", "0"]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=BENCH_TIMEOUT_S)


@pytest.mark.parametrize("workload", ["global-ssync", "local-async", "small-sweep"])
def test_benchmark_passes_at_seeds_1_to_10(workload):
    """Every seed from 1 to 10 builds a corpus that runs without a failed
    operation: each run exits 0, and its last line reports it correct."""
    seeds = range(1, 11)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        runs = list(pool.map(functools.partial(_bench, workload), seeds))
    for seed, run in zip(seeds, runs):
        assert run.returncode == 0, (workload, seed, run.stderr[-2000:])
        report = json.loads(run.stdout.splitlines()[-1])
        assert (report["correct"], report["failed"]) == (True, 0), (workload, seed)
