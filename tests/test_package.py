"""Guards on the package's boundary: what it imports, and what the
benchmark expects to find in it."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ucircle"


def _benchmark_patches():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.PATCHES


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
    mods = {
        name: importlib.import_module(f"ucircle.{name}")
        for name in ("simcore", "global_form", "local_form", "harness", "cli")
    }
    mods["Trace"] = mods["simcore"].Trace
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in _benchmark_patches()
        if not hasattr(mods[owner], attr)
    ]
    assert missing == []
