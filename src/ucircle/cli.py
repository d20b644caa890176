"""Command line interface.

    ucircle run --config scenario.json [--trace out.jsonl]
                [--frames dir --every k] [--summary out.json]
    ucircle batch --configs dir --out dir [--jobs m]
    ucircle oracle sec --points points.json

`run --every k` writes an SVG frame after every k-th cycle, besides the
initial and the final frame. Cycle frame c is the world at cycle c's first
look, a robot in flight drawn part way along its move; a boundary at the
final clock (a sync round that faults) gets no frame. `k` and `batch --jobs m`
must be positive integers; anything else is an argument error before
anything runs.

Exit codes, one per outcome: 0 converged, 1 invalid input (an argument
error, a bad config, or a path that cannot be read or written),
2 budget-exhausted, 3 fault (collision or invalid move), 4 diagnosed-stall.
A path that cannot be read or written prints one line on stderr, and
the files the command already wrote are removed again.

`batch` runs every file even when some are invalid or their output cannot
be written: it prints `<name>: invalid-config: <reason>` or
`<name>: cannot write output: <reason>` on stderr for each of those, and
exits with the worst code of all files, such a file counting as 1.

The global algorithm is specified for the semi-synchronous model. A global
config with the ASYNC scheduler still runs, as a stress test of the engine,
but `run` and `batch` say so in one line on stderr (`batch` prefixes it
with `<name>: `); the exit code and the outputs do not change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .geometry import smallest_enclosing_circle_bruteforce
from .harness import (
    EXIT_CODES,
    ConfigError,
    InfeasibleScenario,
    build_algorithm,
    load_config,
    parse_point,
    read_json,
    run_scenario,
)
from .svgrender import render_frames


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1, the invalid-input code. argparse's own 2 is
    the code of budget-exhausted. Subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ucircle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--trace", help="write the JSONL trace here")
    p_run.add_argument("--frames", help="directory for SVG frames")
    p_run.add_argument("--every", type=_positive_int, default=10, help="frame every k cycles")
    p_run.add_argument("--summary", help="write the one-line JSON summary here")

    p_batch = sub.add_parser("batch", help="run every scenario in a directory")
    p_batch.add_argument("--configs", required=True, help="directory of scenario JSON files")
    p_batch.add_argument("--out", required=True, help="output directory")
    p_batch.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")

    p_oracle = sub.add_parser("oracle", help="geometry cross-check oracles")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_sec = oracle_sub.add_parser("sec", help="brute-force smallest enclosing circle")
    p_sec.add_argument("--points", required=True, help="JSON file with a list of [x, y] pairs")

    return parser


def _model_warning(config) -> str:
    """A warning when the config runs its algorithm outside the scheduler
    model the algorithm is specified for, or ""."""
    if config.algorithm == "global" and config.scheduler == "ASYNC":
        return (
            "warning: the global algorithm is specified for the SSYNC "
            "(semi-synchronous) model, not ASYNC; this run may fault or stall"
        )
    return ""


def _write_outputs(
    config, trace, summary, trace_path=None, summary_path=None, frames=None, every=1
) -> None:
    """Write the trace, the summary and the SVG frames asked for.

    When one cannot be written, the files and the frames directory this
    call already made are removed again before the OSError propagates.
    """
    made: list[str] = []

    def write(path: str, text: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            made.append(path)
            fh.write(text)

    try:
        if trace_path:
            write(trace_path, trace.to_jsonl())
        if summary_path:
            write(summary_path, summary.to_json_line() + "\n")
        if frames:
            if not os.path.isdir(frames):
                os.makedirs(frames)
                made.append(frames)
            if config.algorithm == "global":
                docs = render_frames(trace, every)
            else:
                _, params = build_algorithm(config)
                docs = render_frames(trace, every, params.cir, params.targets)
            for name, doc in sorted(docs.items()):
                write(os.path.join(frames, name), doc)
    except OSError:
        for path in reversed(made):
            (os.rmdir if os.path.isdir(path) else os.remove)(path)
        raise


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    warning = _model_warning(config)
    if warning:
        print(warning, file=sys.stderr)
    try:
        trace, summary = run_scenario(config)
    except InfeasibleScenario as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    try:
        _write_outputs(config, trace, summary, args.trace, args.summary, args.frames, args.every)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    print(summary.to_json_line())
    return EXIT_CODES[trace.outcome]


def _batch_one(job: tuple[str, str]) -> tuple[str, str, int, str]:
    """Run one file: (name, outcome or "<error>: <reason>", exit code, model warning or "")."""
    path, out_dir = job
    name = os.path.splitext(os.path.basename(path))[0]
    warning = ""
    try:
        config = load_config(path)
        warning = _model_warning(config)
        trace, summary = run_scenario(config)
    except (ConfigError, InfeasibleScenario, OSError) as exc:
        return name, f"invalid-config: {exc}", 1, warning
    out = os.path.join(out_dir, name)
    try:
        _write_outputs(config, trace, summary, f"{out}.trace.jsonl", f"{out}.summary.json")
    except OSError as exc:
        return name, f"cannot write output: {exc}", 1, warning
    return name, summary.outcome, EXIT_CODES[trace.outcome], warning


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        names = os.listdir(args.configs)
    except OSError as exc:
        print(f"cannot read configs: {exc}", file=sys.stderr)
        return 1
    files = sorted(os.path.join(args.configs, f) for f in names if f.endswith(".json"))
    if not files:
        print(f"no scenario files in {args.configs}", file=sys.stderr)
        return 1
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    jobs = [(path, args.out) for path in files]
    if args.jobs > 1:
        # Imported here, so that a run without a pool never loads `multiprocessing`.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_batch_one, jobs))
    else:
        results = [_batch_one(job) for job in jobs]
    for name, outcome, code, warning in results:
        if warning:
            print(f"{name}: {warning}", file=sys.stderr)
        # Exit code 1 is invalid input, and no outcome has it.
        print(f"{name}: {outcome}", file=sys.stderr if code == 1 else sys.stdout)
    return max(code for _, _, code, _ in results)


def _cmd_oracle_sec(args: argparse.Namespace) -> int:
    try:
        pts = [parse_point(item) for item in read_json(args.points)]
    except (OSError, ValueError, TypeError) as exc:  # ConfigError is a ValueError
        print(f"invalid points file: {exc}", file=sys.stderr)
        return 1
    if not pts:
        print("invalid points file: need at least one point", file=sys.stderr)
        return 1
    circle = smallest_enclosing_circle_bruteforce(pts)
    print(
        json.dumps(
            {
                "center": [circle.center.x, circle.center.y],
                "radius": circle.radius,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "oracle":
        return _cmd_oracle_sec(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
