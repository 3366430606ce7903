"""Tooling guard: every module-level name in `src/hiercl` has a user in
`src/`. A function, class or assignment that only tests reach belongs in
`tests/`, next to the tests that use it.

A name counts as used when some `src/hiercl` module loads it, as a bare
name or as an attribute, outside the statement that defines it. An import
is not a use, so neither is a re-export in `__init__`.
"""

import ast
from pathlib import Path

import hiercl

SRC = Path(hiercl.__file__).resolve().parent

# name -> why it stays in src/ without a user there. The list can only
# shrink: an entry that gains a user, or disappears, fails the test too.
ALLOWED = {
    "__version__": "package metadata, read by tools outside the package",
    "surrogate_value": "no caller yet: ROADMAP item 6 logs the surrogate decrease of "
                       "each consolidation",
    "write_run_log": "no caller yet: ROADMAP item 6 has `hiercl run` write the JSONL log",
}


def _bound_names(stmt) -> set[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _loads(stmt) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def unused_names(src: Path) -> set[str]:
    """Module-level names of the package at `src` that no module uses."""
    defined, used = set(), set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = _bound_names(stmt)
            defined |= names
            used |= _loads(stmt) - names
    return defined - used


def test_every_src_name_has_a_user_in_src():
    unused = unused_names(SRC)
    assert not unused - ALLOWED.keys(), \
        f"only tests use these src/ names; move them to tests/: {sorted(unused - ALLOWED.keys())}"
    assert not ALLOWED.keys() - unused, \
        f"allowlisted names now used in src/ or gone: {sorted(ALLOWED.keys() - unused)}"


def test_the_guard_finds_names_without_a_user(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import helper, used\n")
    (tmp_path / "a.py").write_text(
        "LIMIT, SPARE = 3, 4\n\n"
        "def used(x):\n    return helper(x) if x < LIMIT else x\n\n"
        "def helper(x):\n    return x\n\n"
        "def lonely(x):\n    return lonely(x - 1) if x else 0\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nclass Box:\n    pass\n\n"
                                   "def run():\n    return used(1)\n")
    assert unused_names(tmp_path) == {"SPARE", "lonely", "Box", "run"}
