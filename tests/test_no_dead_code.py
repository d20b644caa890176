"""Guard: the package holds no code that only the tests call.

Every module-level function, class and constant in `src/ucircle/`, and
every public method, must be referenced by name somewhere in
`src/ucircle/` or `perfbench/` outside its own definition. Imports do not
count as references, and neither does a reference from code that is
itself dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ucircle"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Name -> why it stays although the program never calls it.
ALLOWED = {
    "satisfies_direction_constraint": (
        "the acceptance tests check the paper's move rule with it: every "
        "`local` move is radial or a clockwise turn"
    ),
}


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    found: list[tuple[str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (item.name, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
        elif isinstance(node, ast.Assign):
            found += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node))
    return [(name, node) for name, node in found if not name.startswith("__")]


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def _within(path: Path, line: int, where: tuple[Path, ast.AST]) -> bool:
    return path == where[0] and where[1].lineno <= line <= where[1].end_lineno


def unreferenced() -> list[str]:
    """Dead definitions as "module.name", including those used only by dead code."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    candidates = [
        (path, name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in _definitions(trees[path])
        if name not in ALLOWED
    ]
    dead: list[tuple[Path, str, ast.AST]] = []
    grew = True
    while grew:
        grew = False
        for path, name, node in candidates:
            if (path, name, node) in dead:
                continue
            users = [
                (p, line)
                for p, line in refs.get(name, [])
                if not _within(p, line, (path, node))
                and not any(_within(p, line, (dp, dn)) for dp, _, dn in dead)
            ]
            if not users:
                dead.append((path, name, node))
                grew = True
    return sorted(f"{path.stem}.{name}" for path, name, _ in dead)


def test_every_definition_is_used_by_the_program():
    assert unreferenced() == []


def test_allowlist_names_exist():
    defined = {
        name
        for path in PACKAGE.glob("*.py")
        for name, _ in _definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(ALLOWED) <= defined
