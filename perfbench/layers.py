"""Per-layer spans recorded from outside the `ucircle` package.

`Tracer.install` replaces the module-level functions each layer's callers
look up with timing wrappers, and `Tracer.restore` puts the originals back.
The package itself is not edited. Spans are aggregated in memory per name:
call count, total seconds and the seconds covered by nested spans, so
self time = total - nested.
"""

from __future__ import annotations

import time

# (module attribute on `modules`, object attribute, span name). The object is
# the namespace the caller looks the function up in: `simcore.take_snapshot`
# is patched in `simcore` because `execute_cycle` and the run loops call it
# from there, `run` is patched in `harness` because `run_scenario` imports it.
PATCHES = (
    ("harness", "run", "simcore.run"),
    ("simcore", "execute_cycle", "simcore.execute_cycle"),
    ("simcore", "take_snapshot", "simcore.take_snapshot"),
    ("simcore", "_all_would_stay", "simcore.stall_check"),
    ("simcore", "min_separation_during_motion", "geometry.min_separation_during_motion"),
    ("global_form", "global_step", "global_form.step"),
    ("global_form", "smallest_enclosing_circle", "global_form.sec"),
    ("global_form", "sec_expansion", "global_form.expand"),
    ("global_form", "form_ucircle", "global_form.form"),
    ("global_form", "is_vacant_target", "global_form.is_vacant_target"),
    ("global_form", "is_free_path", "global_form.is_free_path"),
    ("local_form", "local_step", "local_form.step"),
    ("local_form", "classify_psi", "local_form.classify_psi"),
    ("local_form", "compute_destination", "local_form.compute_destination"),
    ("local_form", "eligible_to_move", "local_form.eligible_to_move"),
    ("harness", "generate_scenario", "harness.setup"),
    ("harness", "build_algorithm", "harness.setup"),
    ("harness", "build_termination", "harness.setup"),
    ("harness", "compute_metrics", "harness.compute_metrics"),
    ("cli", "load_config", "harness.setup"),
    ("cli", "build_algorithm", "harness.setup"),
    ("cli", "render_frames", "output.render_frames"),
    ("Trace", "to_jsonl", "output.to_jsonl"),
    ("cli", "main", "cli.main"),
)

# Spans whose result's length is summed into a counter.
SIZE_COUNTERS = {"output.to_jsonl": "output.trace_bytes", "output.render_frames": "output.frames"}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, nested_s]
        self.counters = {key: 0 for key in SIZE_COUNTERS.values()}
        self._open: list[float] = []  # nested seconds of each open span
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for span in self.spans.values():
            span[:] = [0, 0.0, 0.0]
        for key in self.counters:
            self.counters[key] = 0

    def wrap(self, fn, name: str):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open
        clock = time.perf_counter
        counters, size_key = self.counters, SIZE_COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span[0] += 1
                span[1] += dt
                span[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if size_key is not None:
                counters[size_key] += len(out)
            return out

        return traced

    def install(self, modules) -> None:
        """Wrap every function in PATCHES, and the algorithm and termination
        callables that `run` receives."""
        for owner_name, attr, name in PATCHES:
            owner = getattr(modules, owner_name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if name == "simcore.run":
                fn = self._run_with_callables(fn)
            setattr(owner, attr, self.wrap(fn, name))

    def _run_with_callables(self, run):
        def run_traced(world, algorithm, schedule, termination, max_cycles):
            return run(
                world,
                self.wrap(algorithm, "simcore.algorithm"),
                schedule,
                self.wrap(termination, "simcore.termination"),
                max_cycles,
            )

        return run_traced

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        span = self.spans.get(name)
        return span[1] if span else 0.0

    def self_s(self, name: str) -> float:
        span = self.spans.get(name)
        return span[1] - span[2] if span else 0.0
