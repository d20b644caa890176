"""Guards on the package's boundary: what it imports, and what the
benchmark expects to find in it."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from test_golden import CORPUS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ucircle"


def _benchmark_layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _package_modules():
    """The modules `perfbench/layers.py` patches, by its owner names."""
    mods = {
        name: importlib.import_module(f"ucircle.{name}")
        for name in ("simcore", "global_form", "local_form", "harness", "cli")
    }
    mods["Trace"] = mods["simcore"].Trace
    return mods


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    outside = [
        name
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_every_name_the_benchmark_patches_exists():
    """`perfbench/layers.py` wraps these names in place, in the modules
    `perfbench/run.py` imports; a missing one crashes every traced run."""
    mods = _package_modules()
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in _benchmark_layers().PATCHES
        if not hasattr(mods[owner], attr)
    ]
    assert missing == []


def test_every_span_the_benchmark_records_is_reached(tmp_path, capsys):
    """A caller that binds a patched name before `perfbench/layers.py`
    wraps it would leave that span at 0 calls. Two golden scenes, a global
    SSYNC one that expands and forms and a local ASYNC one, run through
    `ucircle run` with a trace and every frame, reach every span."""
    layers = _benchmark_layers()
    mods = _package_modules()
    tracer = layers.Tracer()
    tracer.install(types.SimpleNamespace(**mods))
    try:
        for name in ("global-ssync-livelock-budget", "local-async-n8"):
            (raw,), _ = CORPUS[name]
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(raw))
            out = tmp_path / name
            mods["cli"].main(["run", "--config", str(config), "--trace", str(out) + ".jsonl",
                              "--frames", str(out), "--every", "1"])
    finally:
        tracer.restore()
    capsys.readouterr()
    spans = {span for _, _, span in layers.PATCHES} | {"simcore.algorithm", "simcore.termination"}
    assert {span: tracer.calls(span) for span in spans if tracer.calls(span) == 0} == {}


def test_importing_the_cli_loads_no_process_pool():
    """Only `batch --jobs m` with m > 1 starts a process pool, so importing
    the CLI, as every `ucircle run` does, leaves `multiprocessing` unloaded."""
    code = "import sys, ucircle.cli; print([m for m in sys.modules if m.startswith('multiprocessing')])"
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = [sys.executable, "-c", code]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
