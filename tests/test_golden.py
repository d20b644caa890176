"""Golden digests: fixed scenario corpora must replay byte for byte.

Each entry is a list of scenario dicts and the sha256 over each scene's
JSONL trace followed by its one-line summary, in order (`corpus_digest`).
Any change to a trace or summary byte fails here, so a refactor or
speed-up that is meant to keep behaviour must leave every digest as it
is. A change that alters behaviour on purpose has to update the digest it
moves and say why.

To print the digests of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import collections
import functools
import hashlib
import json
import re

import pytest

import ucircle.harness as harness
import ucircle.simcore as simcore
from ucircle.cli import main
from ucircle.geometry import MotionSegment, dist, min_separation_during_motion
from ucircle.harness import (
    curated_local_configs,
    nonuniform_variant,
    parse_config,
    run_scenario,
)
from ucircle.svgrender import render_frames

_CURATED = curated_local_configs(seeds=(1,))
_CURATED_SEED4 = curated_local_configs(seeds=(4,))

# Three robots on the vertical line through the SEC center: nobody can be
# elected leader, so the run stalls before the first move.
_VERTICAL_LINE = [[0.0, 0.0], [0.0, 2.5], [0.0, -2.5]]
# Mirror-symmetric pentagon whose two leaders expand into each other.
_MIRROR_PAIRS = [[-1.5, 0.0], [1.5, 0.0], [-2.5, 3.0], [2.5, 3.0], [0.0, -5.0]]
# A square whose two lower robots, of opposite chirality, tie for the bottom
# target once round 0 has seated the upper two: `_select_mover` reads each
# robot's own x, so both wait (stall) or both go (fault), by seed.
_SQUARE = [[5, 5], [-5, -5], [5, -5], [-5, 5]]
# The SEC is below the required radius, and two robots sit within
# ENDPOINT_CLEARANCE of the leader's expansion goal: `_expansion_move` finds
# no robot with a free path ("fully boxed in; wait"), so every robot waits.
_BOXED_IN = [[0.3, 3.6], [-3.5, -1.0], [-2.5, 2.7], [0.9, 6.0], [2.5, 4.7]]


def _global(n, a, scheduler, seed, placement="random-disc", **extra):
    raw = dict(algorithm="global", n=n, a=a, scheduler=scheduler, seed=seed, placement=placement)
    raw.update(extra)
    return raw


def _local(n, rad, vis, scheduler, seed, placement):
    return dict(algorithm="local", n=n, rad=rad, vis=vis, scheduler=scheduler, seed=seed,
                placement=placement)


# Twelve random local scenes: both random placements under SSYNC and ASYNC,
# seeds 0-2. They end in 6 convergences, 2 faults and 4 diagnosed stalls
# and include psi9 moves, so they pin `local_form` past the curated shapes.
LOCAL_RANDOM = [
    _local(16, 96.0, 48.0, scheduler, seed, placement)
    for placement in ("random-disc", "random-annulus")
    for scheduler in ("SSYNC", "ASYNC")
    for seed in range(3)
]

CORPUS = {
    "global-fsync-n5": (
        [_global(5, 4.0, "FSYNC", 1)],
        "6b95cca50c6bb5e1ea62f8244bea57c7a371baeb77b2f1f5a3391cbd21da263d",
    ),
    "global-ssync-n6": (
        [_global(6, 4.0, "SSYNC", 2)],
        "c203015bf531f243b2e8b8baa0012cd95d2a83725832c050c3f8d20acb0215a1",
    ),
    "global-ssync-n16": (
        [_global(16, 5.0, "SSYNC", 1)],
        "41445745d870196bd90804f0e72d1161950739be051f9c2ea11d68b355e7f7c1",
    ),
    # The scene of CI's installed entry point check: 4 moves in 61 lines.
    "global-ssync-n4": (
        [_global(4, 4.0, "SSYNC", 5)],
        "232bad44f6f7c1b290812f18ee62573544255a234d6f54917794c01608768054",
    ),
    # Larger than any other scene (87 rounds, converged), and the sync
    # collision check skips the most pairs here.
    "global-ssync-n50": (
        [_global(50, 3.5, "SSYNC", 1)],
        "be0b62f496d55e2b3fe9865f213e5a13babf197b797c59d912dfb2d2bb4334f1",
    ),
    # Formation steps around a single blocker here (`_straight_step`'s
    # detour); no other entry takes that detour.
    "global-ssync-detour": (
        [_global(11, 3.5, "SSYNC", 2)],
        "ed59ce14d65b9f5b3e1c3a3e01c1fc916daa1ea98d41f0fa570e96a3ed7402e9",
    ),
    # Rounds 6-8 move nobody: the only robot that would move sits them out,
    # so the engine reuses each robot's decision and its verdict across rounds.
    "global-ssync-idle": (
        [_global(5, 4.0, "SSYNC", 3, fairness_bound=4)],
        "c8c6c094a2f2832d0a58fe0b013325012729c06b86a1c4b0c20837ca6f9cf3cb",
    ),
    "global-ssync-livelock-budget": (
        [_global(6, 5.0, "SSYNC", 49, max_cycles=120)],
        "bf31fa6b0c6d7f5ca7b557e90661ae17c27aa1c7acd932111bd5446d9b3875c0",
    ),
    "global-ssync-no-leader-stall": (
        [_global(3, 10.0, "SSYNC", 1, placement=_VERTICAL_LINE)],
        "1b1aa9e736df294b6fb40678984726256b7531b823cc44fe79d90adaf0a8bbe6",
    ),
    # Robots 2 and 3 reach separation 0 in cycle 0: the trace is that
    # round's looks and moves, 14 lines.
    "global-ssync-mirror-fault": (
        [_global(5, 6.0, "SSYNC", 1, placement=_MIRROR_PAIRS)],
        "fca1c71b9b515f7a08143851e4a68aa1abc2d07a4383461628c745c273443d15",
    ),
    # The boxed-in expansion deadlock: `diagnosed-stall` with diagnosis
    # `expand` in cycle 0, under FSYNC and SSYNC alike.
    "global-ssync-boxed-in-stall": (
        [_global(5, 5.0, "SSYNC", 1, placement=_BOXED_IN)],
        "3adcdd5f0637afb2673f9a1650424a902bc8a18e7853bc07d3365457cc1d959f",
    ),
    # The mirror tie: `diagnosed-stall` with diagnosis `form` in cycle 1.
    "global-fsync-square-tie-stall": (
        [_global(4, 4.0, "FSYNC", 1, placement=_SQUARE)],
        "2c477c1f623a97d84e3102fb489310a9fe8df6e2f9a72e8dae7ac3c1a9cc5a03",
    ),
    # The mirror tie: robots 1 and 2 reach separation 0 during cycle 1.
    "global-fsync-square-tie-fault": (
        [_global(4, 4.0, "FSYNC", 8, placement=_SQUARE)],
        "44182c8ee80e2040a6c0c0d0f034f8f6a32edf07b0266fdae421cd8740a999cb",
    ),
    "global-async-n4": (
        [_global(4, 4.0, "ASYNC", 1)],
        "9cf3c51b0c6c16761be1b2684b35e8ec49f8a3195a275848d3811c034de137ca",
    ),
    "global-async-no-leader-stall": (
        [_global(3, 10.0, "ASYNC", 1, placement=_VERTICAL_LINE)],
        "4f06f84f43b9a8ee0f05f708eb5f6183294759845b9d8c0a7f18e8c17e8b6d76",
    ),
    # Two robots meet at separation 0.1148: the algorithm is specified for
    # SSYNC, and ASYNC breaks it.
    "global-async-fault": (
        [_global(9, 4.0, "ASYNC", 3)],
        "3d51f096eed0165ed0f05911da16c37bfb80a53cef656b7c63680a5c40d6e4ce",
    ),
    "local-ssync-inside": (
        [dict(_CURATED[0], scheduler="SSYNC", fairness_bound=4)],
        "ff1833a8e361048752e9bf8ee4f63504021d8141797ade34b365d84687c406ca",
    ),
    "local-fsync-outside": (
        [dict(_CURATED[1], scheduler="FSYNC")],
        "f216c03191454844928c7ff792efb199901f73e58f42ed1d7299de52e432c2d3",
    ),
    "local-async-mixed": (
        [_CURATED[2]],
        "d215470bd99e0c90f54ffbab16b4d749c1c9eecb53586d77bae707645813d7b8",
    ),
    "local-async-budget": (
        [dict(_CURATED[2], max_cycles=3)],
        "50d8c943b15663b501a3947c16a63fdbd3b0499e565a0e0b8e511ac438909684",
    ),
    "local-async-n6-outside": (
        [_CURATED[6]],
        "cb3a31287eeefaab8ada2adb80a6b0acd9cc72241cc8537c6a02ac50c65de713",
    ),
    # A local ASYNC scene whose moves interleave with other robots' looks.
    "local-async-n8": (
        [_local(8, 24.0, 12.0, "ASYNC", 2, "random-disc")],
        "799f26ecb1e928db7a449aa0b400d407e32d6f126b60b9aec2690625c5bb9482",
    ),
    # Robots 8 and 0 meet at separation 1.31629 from a random placement,
    # after many robots have moved several times each.
    "local-async-random-fault": (
        [_local(16, 96.0, 48.0, "ASYNC", 1, "random-disc")],
        "25106c06404bd739ab3e68c751cc79d9abb2832af76dddee5b74fdd74dc8861c",
    ),
    # The same placement under FSYNC: robots 0 and 8 meet at separation
    # 1.31629 in cycle 25. The corpus's only local FSYNC fault, raised in a
    # round under the run's finite minimum so far.
    "local-fsync-random-fault": (
        [_local(16, 96.0, 48.0, "FSYNC", 1, "random-disc")],
        "f1924f6d23b977a1ba54f9835d7bb43ff4f5e6ccd9f8d98210b97ff0073d7529",
    ),
    # Robots 20 and 12 meet at separation 1.04259 in cycle 10. Most pairs
    # tested at the faulting arrival are far apart: the fault is found among
    # pairs that the ASYNC monitor may skip.
    "local-async-annulus-fault": (
        [_local(24, 144.0, 72.0, "ASYNC", 10, "random-annulus")],
        "4c586e209d581d5472dcb8cfbb7ec777738107f2e956a067c64afe6b3bfb7f55",
    ),
    "local-nonuniform-async": (
        [nonuniform_variant(_CURATED[1])],
        "ed51ae6f0b33cff690feda5bba49aaf4cb46d540b3ed1ecaf643164a38bb4815",
    ),
    "local-nonuniform-async-stall": (
        # Radii drawn for seed 6 over the seed-4 scenario.
        [dict(nonuniform_variant(dict(_CURATED_SEED4[13], seed=6)), seed=4)],
        "1cdffbd2f57f36ce4a681f06d1e447c7cb3152555fad788dbfec8694c6905282",
    ),
    "local-random-12": (
        LOCAL_RANDOM,
        "3a7395b0cfc81286cefe14fe1da7c2439cb701f91677b918ce5a0a09e7ca55b3",
    ),
}


def corpus_digest(raws):
    """(sha256 over each scene's trace JSONL and summary line, in order;
    each scene's (trace, summary))."""
    h = hashlib.sha256()
    runs = []
    for raw in raws:
        trace, summary = run_scenario(parse_config(raw))
        h.update((trace.to_jsonl() + summary.to_json_line() + "\n").encode("utf-8"))
        runs.append((trace, summary))
    return h.hexdigest(), runs


@functools.cache
def entry_digest(name):
    """`corpus_digest` of one entry, computed once per session."""
    return corpus_digest(CORPUS[name][0])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_digest(name):
    got, _ = entry_digest(name)
    assert got == CORPUS[name][1], f"{name}: trace or summary bytes changed"


def test_corpus_covers_every_outcome():
    """The sync rounds and the ASYNC event loop each reach every ending."""
    every = {"converged", "budget-exhausted", "diagnosed-stall", "fault"}
    for asynchronous in (False, True):
        outcomes = {
            summary.outcome
            for name, (raws, _) in CORPUS.items()
            for raw, (_, summary) in zip(raws, entry_digest(name)[1])
            if (raw["scheduler"] == "ASYNC") == asynchronous
        }
        assert outcomes == every, f"asynchronous={asynchronous}"


def test_local_random_corpus_outcomes():
    runs = entry_digest("local-random-12")[1]
    outcomes = collections.Counter(summary.outcome for _, summary in runs)
    assert outcomes == {"converged": 6, "fault": 2, "diagnosed-stall": 4}
    assert any(ev.phase == "move" and ev.tag == "psi9" for trace, _ in runs for ev in trace.events)


@pytest.mark.parametrize(
    "name", ["global-ssync-mirror-fault", "global-fsync-square-tie-fault", "local-fsync-random-fault"]
)
def test_sync_fault_trace_shows_the_moves_that_met(name):
    """A sync fault's trace ends with the round that faulted: the diagnosed
    pair's motion, rebuilt from that round's move events and the world the
    round began in, reaches the diagnosed separation."""
    ((trace, _),) = entry_digest(name)[1]
    found = re.fullmatch(r"robots (\d+) and (\d+) reach separation (\S+) during cycle (\d+)",
                         trace.diagnosis)
    a, b, sep, cycle = found.groups()
    assert trace.events[-1].cycle == trace.cycles_used == int(cycle)
    moves = {e.robot: e for e in trace.events if e.cycle == trace.cycles_used and e.phase == "move"}
    start = trace.final
    end = start.clock + max(dist(e.pos, e.dest) for e in moves.values())

    def pieces(i):
        """Robot i's motion over the round: its move, then a hold to the end."""
        at = start.positions[i]
        move = moves.get(i)
        if move is None:
            return [MotionSegment(at, at, start.clock, end)]
        assert move.pos == at and move.clock == start.clock
        arrive = move.clock + dist(move.pos, move.dest)
        return [MotionSegment(at, move.dest, move.clock, arrive),
                MotionSegment(move.dest, move.dest, arrive, end)]

    got = min(min_separation_during_motion(p, q) for p in pieces(int(a)) for q in pieces(int(b)))
    assert f"{got:.6g}" == sep


@pytest.mark.parametrize("name", ["local-async-random-fault", "local-async-n8", "global-async-n4"])
def test_async_cycle_frames_draw_robots_where_they_are(name, tmp_path, capsys):
    """Each ASYNC cycle frame written by `ucircle run --every 1` draws every
    robot where a replay of the trace puts it at the clock of the cycle's
    first look: an arrived move at its destination, a move under way part
    way along it, a move not yet begun at its start."""
    ((trace, _),) = entry_digest(name)[1]
    (raw,), _ = CORPUS[name]
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(raw))
    frames = tmp_path / "frames"
    main(["run", "--config", str(config), "--frames", str(frames), "--every", "1"])
    capsys.readouterr()

    def replay(t):
        where = [(p.x, p.y) for p in trace.initial.positions]
        for e in trace.events:
            if e.phase == "move" and e.clock <= t:
                f = min(1.0, (t - e.clock) / dist(e.pos, e.dest))
                where[e.robot] = (e.pos.x + f * (e.dest.x - e.pos.x),
                                  e.pos.y + f * (e.dest.y - e.pos.y))
        return where

    first_looks = {}
    for e in trace.events:
        first_looks.setdefault(e.cycle, e.clock)
    in_flight = 0
    for cycle, clock in sorted(first_looks.items())[1:]:
        svg = (frames / f"frame-cycle-{cycle:05d}.svg").read_text()
        drawn = [(float(x), -float(y))
                 for x, y in re.findall(r'<circle cx="(\S+)" cy="(\S+)" r="1\.0"', svg)]
        want = replay(clock)
        assert len(drawn) == len(want)
        for (x, y), (wx, wy) in zip(drawn, want):
            assert abs(x - wx) <= 1e-6 and abs(y - wy) <= 1e-6, (cycle, (x, y), (wx, wy))
        in_flight += sum(1 for e in trace.events
                         if e.phase == "move" and e.clock < clock < e.clock + dist(e.pos, e.dest))
    assert in_flight > 0
    assert len(list(frames.glob("frame-cycle-*.svg"))) == len(first_looks) - 1


# The sha256 over each name and document of `render_frames(trace, 1)`, in
# name order, drawn as `ucircle run --every 1` draws them: with CIR and the
# targets for a local scene, with neither for a global one. An ASYNC scene
# whose frames show robots in flight, a sync scene that faults, and a global
# ASYNC scene (14 documents).
FRAME_DIGESTS = {
    "global-async-n4": "406ee70578c80eebe15f061c9f38f4169c0b638b64e83d97bbb6126fedf897de",
    "local-async-n8": "05356e07c465b17f9ce320b31389d851e7974659737350088042903f78b1c4b0",
    "local-fsync-random-fault": "d5cc9e9b4f583a2e1c2444325223b26b72fe8b2cedc4b9831c35118a1644f2ff",
}


@pytest.mark.parametrize("name", sorted(FRAME_DIGESTS))
def test_frame_bytes(name):
    ((trace, _),) = entry_digest(name)[1]
    (raw,), _ = CORPUS[name]
    config = parse_config(raw)
    if config.algorithm == "global":
        docs = render_frames(trace, 1)
    else:
        _, params = harness.build_algorithm(config)
        docs = render_frames(trace, 1, params.cir, params.targets)
    h = hashlib.sha256()
    for frame in sorted(docs):
        h.update(frame.encode("utf-8"))
        h.update(docs[frame].encode("utf-8"))
    assert h.hexdigest() == FRAME_DIGESTS[name]


@pytest.mark.parametrize(
    "name, work",
    [
        ("local-fsync-random-fault", (330, 330, 26, 26, 13, 129, 330)),
        ("global-ssync-idle", (23, 23, 7, 8, 9, 11, 23)),
        ("local-async-n8", (218, 218, 60, 61, 81, 107, 218)),
    ],
)
def test_engine_work_on_golden_scenes(name, work, monkeypatch):
    """The engine's exact work on one golden scene per scheduler: (algorithm
    calls, `take_snapshot` calls, stall checks, termination calls, exact pair
    tests, full `_sight` passes, `_destination` calls). A robot decides again
    only when its view changes, its sight is updated from its last look
    unless it moved, a decision's world move is worked out once, with the
    decision, a static world gets one verdict, and a pair is tested exactly
    only when it holds a mover and its bound does not clear; asking more
    often or testing more pairs changes no byte, only these counts."""
    ((golden, _),) = entry_digest(name)[1]
    counts = collections.Counter()

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(simcore, "take_snapshot", counted("snapshot", simcore.take_snapshot))
    monkeypatch.setattr(simcore, "_all_would_stay", counted("stall", simcore._all_would_stay))
    sight = simcore._sight

    def counted_sight(world, i, before=None, seen_by=None):
        # Only a full pass counts: a first look, or a look after i moved.
        if before is None or world.positions[i] is not before[i]:
            counts["sight"] += 1
        return sight(world, i, before, seen_by)

    monkeypatch.setattr(simcore, "_sight", counted_sight)
    monkeypatch.setattr(simcore, "_destination", counted("dest", simcore._destination))
    pair_test = simcore.min_separation_during_motion
    monkeypatch.setattr(simcore, "min_separation_during_motion", counted("pairs", pair_test))
    run = harness.run

    def counted_run(world, algorithm, schedule, termination, max_cycles):
        algorithm, termination = counted("algorithm", algorithm), counted("term", termination)
        return run(world, algorithm, schedule, termination, max_cycles)

    monkeypatch.setattr(harness, "run", counted_run)
    (raw,), _ = CORPUS[name]
    trace, _ = run_scenario(parse_config(raw))
    assert trace.to_jsonl() == golden.to_jsonl()
    keys = ("algorithm", "snapshot", "stall", "term", "pairs", "sight", "dest")
    assert tuple(counts[key] for key in keys) == work


if __name__ == "__main__":
    for name in sorted(CORPUS):
        digest, runs = entry_digest(name)
        ending = runs[0][1].outcome if len(runs) == 1 else f"{len(runs)} scenes"
        print(f"{name:32s} {ending:18s} {digest}")
