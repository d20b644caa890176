"""Soak tier: the outcome tables of three sweeps far beyond the acceptance
seeds, pinned as they stand, defects included.

These are the gates that the behaviour fixes for local collisions and
stalls and for global livelocks will move: a fix updates the table it
changes, with the reason. Run them with

    PYTHONPATH=src python -m pytest -q -m soak

The tier-1 command deselects them (`addopts` in `pyproject.toml`). Each
sweep runs on 2 worker processes, as `ucircle batch --jobs 2` does, and
takes between a few seconds and about half a minute.
"""

import multiprocessing
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from ucircle.harness import parse_config, run_scenario

pytestmark = pytest.mark.soak

WORKERS = 2


def _outcome(raw):
    """(outcome, diagnosis) of one scenario dict."""
    _, summary = run_scenario(parse_config(raw))
    return summary.outcome, summary.diagnosis


def _run_all(raws):
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=spawn) as pool:
        return list(pool.map(_outcome, raws, chunksize=8))


def test_global_soak():
    """`global`, SSYNC, `random-disc`, n = 3..16, a in {3.5, 5.0}, seeds
    20..59, default budget: 1120 runs. The 14 that run out of budget
    alternate between expansion and formation, all at a = 5.0."""
    keys = [(n, a, seed) for n in range(3, 17) for a in (3.5, 5.0) for seed in range(20, 60)]
    raws = [
        dict(algorithm="global", n=n, a=a, scheduler="SSYNC", seed=seed, placement="random-disc")
        for n, a, seed in keys
    ]
    results = _run_all(raws)
    assert Counter(outcome for outcome, _ in results) == {"converged": 1106, "budget-exhausted": 14}
    budget = sorted(key for key, (outcome, _) in zip(keys, results) if outcome == "budget-exhausted")
    assert {a for _, a, _ in budget} == {5.0}
    assert [(n, seed) for n, _, seed in budget] == [
        (6, 49), (13, 22), (15, 33), (15, 39), (15, 43), (15, 52), (16, 20),
        (16, 33), (16, 39), (16, 42), (16, 44), (16, 45), (16, 52), (16, 56),
    ]


def test_local_sweep():
    """`local`, rad = 6n, vis = 3n, n in {16, 24}, `random-disc` and
    `random-annulus`, SSYNC and ASYNC, seeds 0..39: 320 runs."""
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
    results = _run_all(raws)
    assert Counter(outcome for outcome, _ in results) == {
        "converged": 186,
        "diagnosed-stall": 128,
        "budget-exhausted": 1,
        "fault": 5,
    }
    # No stall carries `one-sided-psi9`: that diagnosis never fires here.
    stalls = Counter(diagnosis for outcome, diagnosis in results if outcome == "diagnosed-stall")
    assert stalls == {"psi1,psi5": 49, "psi1,psi8": 46, "psi1,psi3,psi5": 29, "psi1,psi5,psi8": 4}
    by_outcome = {}
    for key, (outcome, _) in zip(keys, results):
        by_outcome.setdefault(outcome, []).append(key)
    assert by_outcome["budget-exhausted"] == [(16, "random-annulus", "SSYNC", 9)]
    assert by_outcome["fault"] == [
        (16, "random-disc", "SSYNC", 1),
        (16, "random-disc", "ASYNC", 1),
        (16, "random-annulus", "ASYNC", 37),
        (24, "random-annulus", "ASYNC", 10),
        (24, "random-annulus", "ASYNC", 36),
    ]


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
