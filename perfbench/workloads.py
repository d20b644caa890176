"""The benchmark's scenario lists and the operation that runs one scenario.

An operation is one scenario run. `global-ssync` and `local-async` call
`harness.run_scenario` and serialize the trace and summary in memory;
`small-sweep` goes through `cli.main(["run", ...])` and writes the trace,
summary and SVG frames to files. Every scenario seed is derived from the
workload seed, so the same seed gives the same list.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("global-ssync", "local-async", "small-sweep")

# global-ssync: the (n, a) grid, seeds per grid cell and the cycle cap. The cap
# also applies to the global scenes of small-sweep: a run that livelocks
# (ROADMAP item 3) would otherwise cost up to 200 * n cycles, several seconds,
# and whether a seed's list holds one would swing the list's time.
GLOBAL_NS = (8, 12, 16, 20)
GLOBAL_AS = (3.5, 5.0)
GLOBAL_SEEDS_PER_CELL = 13
GLOBAL_MAX_CYCLES = 60

# local-async: the curated placement shapes scaled to these robot counts,
# each run under this many ASYNC schedule seeds.
LOCAL_NS = (16, 24)
LOCAL_SEEDS_PER_SHAPE = 1

# small-sweep: global SSYNC seeds per (n, a) cell and the SVG frame interval.
SWEEP_GLOBAL_NS = tuple(range(3, 11))
SWEEP_GLOBAL_SEEDS_PER_CELL = 3
SWEEP_EVERY = 10

EXIT_BY_OUTCOME = {"converged": 0, "budget-exhausted": 2, "diagnosed-stall": 4}


@dataclass
class Result:
    """What one operation produced, read back after its timed region."""

    trace: bytes
    summary: bytes
    exit_code: int | None = None  # only for operations that go through the CLI


def scenario_seeds(workload_seed: int, tag: str, count: int) -> list[int]:
    rng = random.Random(f"perfbench:{workload_seed}:{tag}")
    return [rng.randrange(1_000_000) for _ in range(count)]


def global_configs(workload_seed: int, ns, seeds_per_cell: int) -> list[dict]:
    out = []
    for n in ns:
        for a in GLOBAL_AS:
            for seed in scenario_seeds(workload_seed, f"global:{n}:{a}", seeds_per_cell):
                out.append(
                    {
                        "algorithm": "global",
                        "n": n,
                        "a": a,
                        "scheduler": "SSYNC",
                        "seed": seed,
                        "placement": "random-disc",
                        "max_cycles": GLOBAL_MAX_CYCLES,
                    }
                )
    return out


def local_configs(harness, workload_seed: int) -> list[dict]:
    out = []
    for n in LOCAL_NS:
        rad = harness.curated_rad(n)
        for vis in (rad / 2.0, rad):
            for kind in harness.PLACEMENT_KINDS:
                placement = harness.curated_placement(kind, n, vis)
                for seed in scenario_seeds(workload_seed, f"local:{n}:{vis}:{kind}", LOCAL_SEEDS_PER_SHAPE):
                    out.append(
                        {
                            "algorithm": "local",
                            "n": n,
                            "rad": rad,
                            "vis": vis,
                            "scheduler": "ASYNC",
                            "seed": seed,
                            "placement": placement,
                        }
                    )
    return out


def sweep_configs(harness, workload_seed: int) -> list[dict]:
    curated = harness.curated_local_configs(seeds=tuple(scenario_seeds(workload_seed, "curated", 1)))
    return (
        global_configs(workload_seed, SWEEP_GLOBAL_NS, SWEEP_GLOBAL_SEEDS_PER_CELL)
        + curated
        + [harness.nonuniform_variant(c) for c in curated]
    )


def build(workload: str, workload_seed: int, modules, workdir: str) -> list:
    """Parse (or write) the workload's configs and return one operation per scenario.

    `modules` holds the imported `harness` and `cli` modules; `workdir` is an
    empty directory the CLI operations write into.
    """
    harness, cli = modules.harness, modules.cli
    if workload == "global-ssync":
        raws = global_configs(workload_seed, GLOBAL_NS, GLOBAL_SEEDS_PER_CELL)
    elif workload == "local-async":
        raws = local_configs(harness, workload_seed)
    elif workload == "small-sweep":
        raws = sweep_configs(harness, workload_seed)
        return [CliOperation(cli, raw, os.path.join(workdir, f"s{i:04d}")) for i, raw in enumerate(raws)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [DirectOperation(harness, harness.parse_config(raw)) for raw in raws]


class DirectOperation:
    """`run_scenario` plus in-memory serialization of the trace and summary."""

    def __init__(self, harness, config):
        self.harness, self.config = harness, config

    def run(self) -> None:
        trace, summary = self.harness.run_scenario(self.config)
        self._result = Result(trace.to_jsonl().encode(), (summary.to_json_line() + "\n").encode())

    def result(self) -> Result:
        return self._result


class CliOperation:
    """`ucircle run` with trace, summary and SVG frames written to files."""

    def __init__(self, cli, raw: dict, stem: str):
        config_path = stem + ".json"
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        self.cli = cli
        self.trace_path, self.summary_path = stem + ".trace.jsonl", stem + ".summary.json"
        self.argv = ["run", "--config", config_path, "--trace", self.trace_path,
                     "--summary", self.summary_path, "--frames", stem + ".frames",
                     "--every", str(SWEEP_EVERY)]

    def run(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self._code = self.cli.main(self.argv)

    def result(self) -> Result:
        with open(self.trace_path, "rb") as fh:
            trace = fh.read()
        with open(self.summary_path, "rb") as fh:
            summary = fh.read()
        return Result(trace, summary, self._code)


def check(result: Result) -> str:
    """Return why the operation failed, or "" when its output is valid."""

    def reject(token: str):
        raise ValueError(f"non-finite number {token}")

    try:
        summary = json.loads(result.summary, parse_constant=reject)
    except ValueError as exc:
        return f"summary is not strict JSON: {exc}"
    outcome = summary.get("outcome")
    if outcome == "fault":
        return f"fault: {summary.get('diagnosis')}"
    if outcome not in EXIT_BY_OUTCOME:
        return f"unknown outcome {outcome!r}"
    if summary["min_pairwise_dist"] < 2.0 - 1e-9:
        return f"{outcome} run reports min_pairwise_dist {summary['min_pairwise_dist']!r}"
    if result.exit_code is not None and result.exit_code != EXIT_BY_OUTCOME[outcome]:
        return f"exit code {result.exit_code} does not match outcome {outcome}"
    return ""
