"""ucircle benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload global-ssync --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`. The
scenario list is made from `--seed` and set up SETUP_REPEATS times (import
plus config parsing). Then whole passes run over it while the next pass is
expected to end within `--seconds`. With `--trace 0` every pass is untraced
and the end-to-end metrics are printed. With `--trace 1` an untraced pass is
followed by two traced ones, the two kinds then alternate, and the per-layer
metrics are printed. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every output was valid. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 15
COMPUTE_EVENT = b'"phase": "compute"'


def import_ucircle() -> SimpleNamespace:
    """Import the package afresh, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "ucircle" or m.startswith("ucircle.")]:
        del sys.modules[name]
    mods = {
        name: importlib.import_module(f"ucircle.{name}")
        for name in ("simcore", "global_form", "local_form", "harness", "cli")
    }
    return SimpleNamespace(Trace=mods["simcore"].Trace, **mods)


def set_up(args, workdir: str):
    """Return (modules, operations, set-up seconds of each repeat at nominal host speed)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        modules = import_ucircle()
        ops = workloads.build(args.workload, args.seed, modules, workdir)
        elapsed = time.perf_counter() - t0
        times.append(elapsed / hostspeed.factor([hostspeed.sample() for _ in range(5)]))
    return modules, ops, times


def run_pass(ops) -> dict:
    """Run every operation once and check its output.

    Only the operation itself is timed. The host-speed kernel runs after each
    operation; `wall_s` and `times` are scaled to nominal host speed, and
    `speed` is the pass's overall factor.
    """
    raw_times, results, kernel = [], [], []
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            error = ""
        raw_times.append(clock() - t0)
        kernel.append(hostspeed.sample())
        if not error:
            try:
                results.append(op.result())
                continue
            except OSError as exc:
                error = f"output missing: {exc}"
        results.append(error)

    digest = hashlib.sha256()
    failures, outcomes, activations, converged, cycles = [], [], 0, 0, 0
    for i, result in enumerate(results):
        why = result if isinstance(result, str) else workloads.check(result)
        if why:
            failures.append(f"scenario {i}: {why}")
        if isinstance(result, str):
            continue
        digest.update(result.trace)
        digest.update(result.summary)
        activations += result.trace.count(COMPUTE_EVENT)
        if not why:
            summary = json.loads(result.summary)
            outcomes.append(summary["outcome"])
            converged += summary["outcome"] == "converged"
            cycles += summary["cycles_used"]
    times = hostspeed.scale(raw_times, kernel)
    return {
        "speed": sum(raw_times) / sum(times),
        "raw_wall_s": sum(raw_times),
        "wall_s": sum(times),
        "times": times,
        "digest": digest.hexdigest(),
        "activations": activations,
        "converged": converged,
        "cycles": cycles,
        "outcomes": outcomes,
        "failures": failures,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: layers.Tracer, p: dict, n_ops: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    steps = t.calls("global_form.step")
    metrics = {
        "simcore.activations": (p["activations"], "count"),
        "simcore.algorithm.calls": (t.calls("simcore.algorithm"), "count"),
        "simcore.algo_calls_per_activation": (ratio(t.calls("simcore.algorithm"), p["activations"]), "ratio"),
        "simcore.run.self_s": (t.self_s("simcore.run"), "s"),
        "simcore.take_snapshot.calls": (t.calls("simcore.take_snapshot"), "count"),
        "simcore.take_snapshot.s": (t.total_s("simcore.take_snapshot"), "s"),
        "simcore.execute_cycle.calls": (t.calls("simcore.execute_cycle"), "count"),
        "simcore.execute_cycle.self_s": (t.self_s("simcore.execute_cycle"), "s"),
        "simcore.stall_check.calls": (t.calls("simcore.stall_check"), "count"),
        "simcore.stall_check.s": (t.total_s("simcore.stall_check"), "s"),
        "simcore.termination.calls": (t.calls("simcore.termination"), "count"),
        "simcore.termination.s": (t.total_s("simcore.termination"), "s"),
        "geometry.min_separation_during_motion.calls": (t.calls("geometry.min_separation_during_motion"), "count"),
        "geometry.min_separation_during_motion.s": (t.total_s("geometry.min_separation_during_motion"), "s"),
        "global_form.step.calls": (steps, "count"),
        "global_form.step.self_s": (t.self_s("global_form.step"), "s"),
        "global_form.sec.calls": (t.calls("global_form.sec"), "count"),
        "global_form.sec.s": (t.total_s("global_form.sec"), "s"),
        "global_form.sec_per_step": (ratio(t.calls("global_form.sec"), steps), "ratio"),
        "global_form.form.s": (t.total_s("global_form.form"), "s"),
        "global_form.expand.s": (t.total_s("global_form.expand"), "s"),
        "global_form.is_vacant_target.calls": (t.calls("global_form.is_vacant_target"), "count"),
        "global_form.is_free_path.calls": (t.calls("global_form.is_free_path"), "count"),
        "global_form.is_free_path.s": (t.total_s("global_form.is_free_path"), "s"),
        "local_form.step.calls": (t.calls("local_form.step"), "count"),
        "local_form.step.self_s": (t.self_s("local_form.step"), "s"),
        "local_form.classify_psi.s": (t.total_s("local_form.classify_psi"), "s"),
        "local_form.compute_destination.s": (t.total_s("local_form.compute_destination"), "s"),
        "local_form.eligible_to_move.s": (t.total_s("local_form.eligible_to_move"), "s"),
        "harness.setup.s": (t.total_s("harness.setup"), "s"),
        "harness.compute_metrics.s": (t.total_s("harness.compute_metrics"), "s"),
        "output.to_jsonl.s": (t.total_s("output.to_jsonl"), "s"),
        "output.trace_bytes": (t.counters["output.trace_bytes"], "bytes"),
        "output.render_frames.s": (t.total_s("output.render_frames"), "s"),
        "output.frames": (t.counters["output.frames"], "count"),
        "cli.main.self_s": (t.self_s("cli.main"), "s"),
        "sim.converged_frac": (p["converged"] / n_ops, "frac"),
        "sim.cycles": (p["cycles"], "cycles"),
        "sim.failed_frac": (len(p["failures"]) / n_ops, "frac"),
    }
    return {name: (v / p["speed"] if u == "s" else v, u) for name, (v, u) in metrics.items()}


def end_to_end(plain: list, setup_times: list) -> dict:
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "activations_per_s": (statistics.median(p["activations"] / p["wall_s"] for p in plain), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain: list, traced: list, problems: list) -> dict:
    """Median times and exact counts over the traced passes, plus the tracing overhead."""
    metrics = {}
    for name, (value, unit) in traced[0]["layers"].items():
        values = [p["layers"][name][0] for p in traced]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) != 1:
            problems.append(f"exact count {name} differs between traced passes: {values}")
        metrics[name] = (value, unit)
    if traced[0]["activations"] != plain[0]["activations"]:
        problems.append("activations differ between the traced and the untraced passes")
    wall = [statistics.median(p["wall_s"] for p in kind) for kind in (traced, plain)]
    print(f"wall_s traced {wall[0]} untraced {wall[1]} s")
    metrics["trace_overhead_frac"] = (wall[0] / wall[1] - 1.0, "frac")
    return metrics


def declared_metrics(section: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def measure(args, workdir: str) -> tuple[dict, list]:
    """Set up, run the passes, print the run's description; return (report, problems)."""
    modules, ops, setup_times = set_up(args, workdir)
    tracer = layers.Tracer()
    plain, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if args.trace and plain and (len(traced) < 2 or len(traced) <= len(plain)):
            tracer.reset()
            tracer.install(modules)
            try:
                p = run_pass(ops)
            finally:
                tracer.restore()
            p["layers"] = layer_metrics(tracer, p, len(ops))
            traced.append(p)
        else:
            plain.append(run_pass(ops))
        durations.append(time.perf_counter() - t0)
        enough = len(traced) >= 2 if args.trace else True
        if enough and time.perf_counter() - start + statistics.mean(durations) > args.seconds:
            break

    passes = plain + traced
    problems = [f for p in passes for f in p["failures"]]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("traces or summaries differ between passes of the same scenario list")
    first = plain[0]
    print(f"scenarios {len(ops)} passes {len(plain)} untraced {len(traced)} traced")
    print(f"digest {args.workload} seed {args.seed} sha256:{first['digest']}")
    print("outcomes " + " ".join(f"{o}={first['outcomes'].count(o)}" for o in sorted(set(first["outcomes"]))))
    per_scenario = [statistics.median(p["times"][i] for p in plain) for i in range(len(ops))]
    deciles = statistics.quantiles(per_scenario, n=10)
    print(f"scenario_s p50 {deciles[4]} p90 {deciles[8]} s over {len(ops)} scenarios")
    print(f"host speed_factor {statistics.median(p['speed'] for p in passes)}"
          f" raw_wall_s {statistics.median(p['raw_wall_s'] for p in plain)} s")
    for name, value, unit in (
        ("converged_frac", first["converged"] / len(ops), "frac"),
        ("sim_cycles", first["cycles"], "cycles"),
        ("failed_frac", len(first["failures"]) / len(ops), "frac"),
        ("activations", first["activations"], "count"),
    ):
        print(f"sim {name} {value} {unit}")

    if args.trace:
        metrics, section = per_layer(plain, traced, problems), "per_layer"
    else:
        metrics, section = end_to_end(plain, setup_times), "end_to_end"
    if sorted(metrics) != sorted(declared_metrics(section)):
        problems.append(f"metrics do not match the {section} list of BENCHMARK.json")
    report = {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ucircle", "__init__.py")):
        print(f"no ucircle package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        report, problems = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    for name, m in report["metrics"].items():
        print(f"metric {name} {m['value']} {m['unit']}")
    for problem in problems:
        print(f"invalid: {problem}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
