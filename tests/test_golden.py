"""Golden digests: a fixed scenario corpus must replay byte for byte.

Each entry pins the sha256 of the scenario's JSONL trace followed by its
one-line summary. Any change to a trace or summary byte fails here, so a
refactor or speed-up that is meant to keep behaviour must leave every
digest as it is. A change that alters behaviour on purpose has to update
the digest it moves and say why.

To print the digests of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import collections
import functools
import hashlib

import pytest

from ucircle.harness import (
    curated_local_configs,
    nonuniform_variant,
    parse_config,
    run_scenario,
)

_CURATED = curated_local_configs(seeds=(1,))
_CURATED_SEED4 = curated_local_configs(seeds=(4,))

# Three robots on the vertical line through the SEC center: nobody can be
# elected leader, so the run stalls before the first move.
_VERTICAL_LINE = [[0.0, 0.0], [0.0, 2.5], [0.0, -2.5]]
# Mirror-symmetric pentagon whose two leaders expand into each other.
_MIRROR_PAIRS = [[-1.5, 0.0], [1.5, 0.0], [-2.5, 3.0], [2.5, 3.0], [0.0, -5.0]]


def _global(n, a, scheduler, seed, placement="random-disc", **extra):
    raw = dict(algorithm="global", n=n, a=a, scheduler=scheduler, seed=seed, placement=placement)
    raw.update(extra)
    return raw


CORPUS = {
    "global-fsync-n5": (
        _global(5, 4.0, "FSYNC", 1),
        "6b95cca50c6bb5e1ea62f8244bea57c7a371baeb77b2f1f5a3391cbd21da263d",
    ),
    "global-ssync-n6": (
        _global(6, 4.0, "SSYNC", 2),
        "c203015bf531f243b2e8b8baa0012cd95d2a83725832c050c3f8d20acb0215a1",
    ),
    "global-ssync-n16": (
        _global(16, 5.0, "SSYNC", 1),
        "41445745d870196bd90804f0e72d1161950739be051f9c2ea11d68b355e7f7c1",
    ),
    # Formation steps around a single blocker here (`_straight_step`'s
    # detour); no other entry takes that detour.
    "global-ssync-detour": (
        _global(11, 3.5, "SSYNC", 2),
        "ed59ce14d65b9f5b3e1c3a3e01c1fc916daa1ea98d41f0fa570e96a3ed7402e9",
    ),
    # Rounds 6-8 move nobody: the only robot that would move sits them out,
    # so the engine carries one world's decisions across rounds.
    "global-ssync-idle": (
        _global(5, 4.0, "SSYNC", 3, fairness_bound=4),
        "c8c6c094a2f2832d0a58fe0b013325012729c06b86a1c4b0c20837ca6f9cf3cb",
    ),
    "global-ssync-livelock-budget": (
        _global(6, 5.0, "SSYNC", 49, max_cycles=120),
        "bf31fa6b0c6d7f5ca7b557e90661ae17c27aa1c7acd932111bd5446d9b3875c0",
    ),
    "global-ssync-no-leader-stall": (
        _global(3, 10.0, "SSYNC", 1, placement=_VERTICAL_LINE),
        "1b1aa9e736df294b6fb40678984726256b7531b823cc44fe79d90adaf0a8bbe6",
    ),
    "global-ssync-mirror-fault": (
        _global(5, 6.0, "SSYNC", 1, placement=_MIRROR_PAIRS),
        "aa39858b7f4c0fd8a858a8a2497872fe86e273f693fdfd5cc61d758e6331ee7e",
    ),
    "global-async-n4": (
        _global(4, 4.0, "ASYNC", 1),
        "9cf3c51b0c6c16761be1b2684b35e8ec49f8a3195a275848d3811c034de137ca",
    ),
    "global-async-no-leader-stall": (
        _global(3, 10.0, "ASYNC", 1, placement=_VERTICAL_LINE),
        "4f06f84f43b9a8ee0f05f708eb5f6183294759845b9d8c0a7f18e8c17e8b6d76",
    ),
    # Two robots meet at separation 0.1148: the algorithm is specified for
    # SSYNC, and ASYNC breaks it.
    "global-async-fault": (
        _global(9, 4.0, "ASYNC", 3),
        "3d51f096eed0165ed0f05911da16c37bfb80a53cef656b7c63680a5c40d6e4ce",
    ),
    "local-ssync-inside": (
        dict(_CURATED[0], scheduler="SSYNC", fairness_bound=4),
        "ff1833a8e361048752e9bf8ee4f63504021d8141797ade34b365d84687c406ca",
    ),
    "local-fsync-outside": (
        dict(_CURATED[1], scheduler="FSYNC"),
        "f216c03191454844928c7ff792efb199901f73e58f42ed1d7299de52e432c2d3",
    ),
    "local-async-mixed": (
        _CURATED[2],
        "d215470bd99e0c90f54ffbab16b4d749c1c9eecb53586d77bae707645813d7b8",
    ),
    "local-async-budget": (
        dict(_CURATED[2], max_cycles=3),
        "50d8c943b15663b501a3947c16a63fdbd3b0499e565a0e0b8e511ac438909684",
    ),
    "local-async-n6-outside": (
        _CURATED[6],
        "cb3a31287eeefaab8ada2adb80a6b0acd9cc72241cc8537c6a02ac50c65de713",
    ),
    # Robots 8 and 0 meet at separation 1.31629 from a random placement,
    # after many robots have moved several times each.
    "local-async-random-fault": (
        dict(
            algorithm="local",
            n=16,
            rad=96.0,
            vis=48.0,
            scheduler="ASYNC",
            seed=1,
            placement="random-disc",
        ),
        "25106c06404bd739ab3e68c751cc79d9abb2832af76dddee5b74fdd74dc8861c",
    ),
    # The same placement under FSYNC: robots 0 and 8 meet at separation
    # 1.31629 in cycle 25. The corpus's only local FSYNC fault, raised in a
    # round under the run's finite minimum so far.
    "local-fsync-random-fault": (
        dict(
            algorithm="local",
            n=16,
            rad=96.0,
            vis=48.0,
            scheduler="FSYNC",
            seed=1,
            placement="random-disc",
        ),
        "5d5a0ac1ca12ae10ed84bd88615f66887c51ead1dcdf0e45a1a633abcd13b620",
    ),
    # Robots 20 and 12 meet at separation 1.04259 in cycle 10. Most pairs
    # tested at the faulting arrival are far apart: the fault is found among
    # pairs that the ASYNC monitor may skip.
    "local-async-annulus-fault": (
        dict(
            algorithm="local",
            n=24,
            rad=144.0,
            vis=72.0,
            scheduler="ASYNC",
            seed=10,
            placement="random-annulus",
        ),
        "4c586e209d581d5472dcb8cfbb7ec777738107f2e956a067c64afe6b3bfb7f55",
    ),
    "local-nonuniform-async": (
        nonuniform_variant(_CURATED[1]),
        "ed51ae6f0b33cff690feda5bba49aaf4cb46d540b3ed1ecaf643164a38bb4815",
    ),
    "local-nonuniform-async-stall": (
        # Radii drawn for seed 6 over the seed-4 scenario.
        dict(nonuniform_variant(dict(_CURATED_SEED4[13], seed=6)), seed=4),
        "1cdffbd2f57f36ce4a681f06d1e447c7cb3152555fad788dbfec8694c6905282",
    ),
}


# Twelve random local scenes: both random placements under SSYNC and ASYNC,
# seeds 0-2. They end in 6 convergences, 2 faults and 4 diagnosed stalls
# and include psi9 moves, so they pin `local_form` past the curated shapes.
LOCAL_RANDOM = [
    dict(algorithm="local", n=16, rad=96.0, vis=48.0, scheduler=scheduler, seed=seed,
         placement=placement)
    for placement in ("random-disc", "random-annulus")
    for scheduler in ("SSYNC", "ASYNC")
    for seed in range(3)
]
LOCAL_RANDOM_DIGEST = "b646b80852194e3f9ccf511599e00a6a1f4c531b157edf33d760d9c7ea11bd76"


@functools.cache
def scenario_digest(name: str) -> tuple[str, str]:
    """(sha256 of trace JSONL + summary line, summary outcome) of one entry."""
    trace, summary = run_scenario(parse_config(CORPUS[name][0]))
    payload = trace.to_jsonl() + summary.to_json_line() + "\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest(), summary.outcome


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_digest(name):
    got, _ = scenario_digest(name)
    assert got == CORPUS[name][1], f"{name}: trace or summary bytes changed"


def test_corpus_covers_every_outcome():
    """The sync rounds and the ASYNC event loop each reach every ending."""
    every = {"converged", "budget-exhausted", "diagnosed-stall", "fault"}
    for asynchronous in (False, True):
        outcomes = {
            scenario_digest(name)[1]
            for name, (raw, _) in CORPUS.items()
            if (raw["scheduler"] == "ASYNC") == asynchronous
        }
        assert outcomes == every, f"asynchronous={asynchronous}"


def local_random_digest() -> tuple[str, collections.Counter, int]:
    """(sha256 over every scene's trace and summary, outcomes, psi9 moves)."""
    h = hashlib.sha256()
    outcomes: collections.Counter = collections.Counter()
    psi9_moves = 0
    for raw in LOCAL_RANDOM:
        trace, summary = run_scenario(parse_config(raw))
        h.update((trace.to_jsonl() + summary.to_json_line() + "\n").encode("utf-8"))
        outcomes[summary.outcome] += 1
        psi9_moves += sum(ev.phase == "move" and ev.tag == "psi9" for ev in trace.events)
    return h.hexdigest(), outcomes, psi9_moves


def test_local_random_corpus_digest():
    got, outcomes, psi9_moves = local_random_digest()
    assert outcomes == {"converged": 6, "fault": 2, "diagnosed-stall": 4}
    assert psi9_moves > 0
    assert got == LOCAL_RANDOM_DIGEST, "local random corpus: trace or summary bytes changed"


if __name__ == "__main__":
    for name in sorted(CORPUS):
        digest, outcome = scenario_digest(name)
        print(f"{name:32s} {outcome:18s} {digest}")
    print(f"{'local-random (12 scenes)':51s} {local_random_digest()[0]}")
