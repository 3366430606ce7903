"""Tooling guard: every statement of `src/hiercl` runs on some program
route, is an error path, or is allowlisted with its reason. A branch that
only tests take belongs in `tests/`, next to the tests that take it.

A program route is what a user can do with the `hiercl` command: `run` a
config, `report` on its CSV, `gen` a dataset, or have a run fail. ROUTES
covers every learner kind, method, dataset kind and curvature on configs
small enough for tier-1, and `trace_lines` records the lines they run
under sys.settrace.

An error path is a `raise`, or any statement inside an `if`, `else` or
`except` body whose last statement is a `raise`: the lines that build an
error and its message. Other tests import the package before this one
traces it, so the routes first run each module's code again
(`import_afresh`) to trace what runs on import. `tests/program_routes.py`
runs the full-size configs through the same tracer and lists every unrun
statement.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import hiercl
from hiercl.cli import main

SRC = Path(hiercl.__file__).resolve().parent

_ITEM_6 = "no caller yet: ROADMAP item 6 logs the surrogate decrease of each consolidation"
_LOG = "no caller yet: ROADMAP item 6 has `hiercl run` write the JSONL log"
_AUDIT = ("counts the audit's violations for the error raised after it; a run records "
          "its argmax winner, so only tests make one")

# "module.qualname: first source line" of a statement that no route runs ->
# why it stays in src/. The list can only shrink: an entry whose statement
# runs, becomes an error path or disappears fails the test too.
ALLOWED = {
    "cli: sys.exit(main())": "runs when cli.py is run as a script; the routes call main",
    "consolidation.lambda_schedule: lam = math.inf": "a run.lambda_factor whose power "
                                                     "overflows a float; the check after it raises",
    "consolidation.surrogate_value: diff = dw - dd": _ITEM_6,
    "consolidation.surrogate_value: return float(grad @ dw) + 0.5 * curv.quad_form(dw) "
    "+ 0.5 * lam * float(diff @ diff)": _ITEM_6,
    "curvature.DiagFisher.quad_form: return float(self.diag @ (v * v))": _ITEM_6,
    "curvature.LowRankFisher.quad_form: w = self.u.T @ v": _ITEM_6,
    "curvature.LowRankFisher.quad_form: return float(self.d @ (w * w))": _ITEM_6,
    "pipeline.selection_audit: violations += 1  # this group kept a non-argmax ordering":
        _AUDIT,
    "pipeline.selection_audit: if math.fsum(terms[:, d].tolist()) < 0:": _AUDIT,
    "pipeline.selection_audit: violations += 1": _AUDIT,
    'pipeline.write_run_log: with open(path, "w") as fh:': _LOG,
    "pipeline.write_run_log: for entry in log:": _LOG,
    'pipeline.write_run_log: fh.write(json.dumps(entry) + "\\n")': _LOG,
}

_BASE = """\
# every route below starts from these keys
dataset.num_classes=8
dataset.classes_per_task=2
dataset.dim=4
dataset.samples_per_class=8
dataset.val_per_class=4
dataset.test_per_class=6
learner.epochs_per_task=1
learner.batch_size=16
learner.buffer_capacity=10
run.hidden=6
run.audit_draws=20
run.seeds=0
"""

# name -> a small `hiercl run` config
ROUTES = {
    "er-gaussians": _BASE + "learner.kind=er\nrun.perms=all\n"
                            "run.methods=seq,hier,fedavg,fedprox\nrun.lambda_factor=0.5\n",
    # a 182-parameter net on pools of 106 rows: lowrank takes the Gram route
    "ewc-permuted": _BASE + "dataset.kind=permuted\ndataset.num_tasks=4\nlearner.kind=ewc\n"
                            "run.hidden=16\nrun.perms=2\nrun.methods=seq,hier\n"
                            "run.curvature=lowrank:4\nrun.clip=off\n",
    # group 1's pool holds 10 + 2 * 260 rows, which SAMPLE_CAP thins
    "sgd-sine": _BASE + "dataset.kind=sine\ndataset.num_tasks=4\ndataset.samples_per_task=260\n"
                        "dataset.noise_std=0.1\nlearner.kind=sgd\nrun.perms=2\nrun.levels=3\n"
                        "run.methods=seq,hier,fedprox\nrun.curvature=lowrank\n",
    "one-task": _BASE + "dataset.kind=permuted\ndataset.num_tasks=1\nrun.group_size=1\n"
                        "run.methods=seq,hier\n",
    # a group of 5 warns of its 325 prefix trainings
    "group-of-5": _BASE + "dataset.num_classes=10\ndataset.samples_per_class=2\n"
                          "run.group_size=5\nrun.perms=1\nrun.methods=hier\n",
}

# a learning rate that overflows the weights: the run fails and exits 2
_DIVERGES = _BASE + "learner.learning_rate=1e300\nrun.perms=1\nrun.methods=seq\n"


class Statement(NamedTuple):
    line: int
    header: range  # a compound statement's lines up to its body
    key: str       # "module.qualname: first source line"
    error: bool    # on an error path


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _bodies(node, scope):
    """(body, its scope, whether it is a branch) of each statement list
    directly inside `node`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.body, f"{scope}.{node.name}", False
    elif isinstance(node, ast.If):
        yield node.body, scope, True
        yield node.orelse, scope, True
    elif isinstance(node, ast.Try):
        yield from ((part, scope, False) for part in (node.body, node.orelse, node.finalbody))
        yield from ((handler.body, scope, True) for handler in node.handlers)
    else:  # for, while, with
        yield from ((getattr(node, part, []), scope, False) for part in ("body", "orelse"))


def statements(path: Path) -> list[Statement]:
    """Every statement of a module but docstrings and `try` (whose own
    line runs no code), in source order."""
    text = path.read_text()
    lines, out = text.splitlines(), []

    def walk(body, scope, error):
        for node in body:
            if node is body[0] and _is_docstring(node):
                continue
            error_here = error or isinstance(node, ast.Raise)
            if not isinstance(node, ast.Try):
                start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                inner = getattr(node, "body", None)
                end = max(inner[0].lineno - 1 if inner else node.end_lineno, node.lineno)
                out.append(Statement(node.lineno, range(start, end + 1),
                                     f"{scope}: {lines[node.lineno - 1].strip()}", error_here))
            for child, child_scope, branch in _bodies(node, scope):
                if child:
                    walk(child, child_scope,
                         error_here or (branch and isinstance(child[-1], ast.Raise)))

    walk(ast.parse(text).body, path.stem, False)
    return out


def trace_lines(run, src: Path = SRC) -> dict[str, set[int]]:
    """{path: lines run} of the files directly in `src` while run() runs
    under sys.settrace."""
    ran: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # code filename -> its lines, None outside src

    def lines_of(filename):
        if filename not in files:
            path = Path(filename).resolve()
            files[filename] = ran.setdefault(str(path), set()) if path.parent == src else None
        return files[filename]

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        seen = lines_of(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)
        return local

    old = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(old)
    return ran


def route_gaps(src: Path, ran: dict[str, set[int]], allowed) -> tuple[list[str], list[str]]:
    """(each statement of the package at `src` that no route ran, that is
    no error path and that `allowed` does not name, as "file:line: key";
    each key of `allowed` that names no such statement)."""
    unrun, unlisted = set(), []
    for path in sorted(src.glob("*.py")):
        seen = ran.get(str(path), set())
        for st in statements(path):
            if st.error or not seen.isdisjoint(st.header):
                continue
            unrun.add(st.key)
            if st.key not in allowed:
                unlisted.append(f"{path.name}:{st.line}: {st.key}")
    return unlisted, sorted(allowed.keys() - unrun)


def import_afresh(src: Path, package: str):
    """Run the code of each module of the package at `src` again, each in
    a namespace of its own, so that a tracer sees what runs on import. The
    imported modules are left as they are."""
    for path in sorted(src.glob("*.py")):
        name = package if path.stem == "__init__" else f"{package}.{path.stem}"
        exec(compile(path.read_text(), str(path), "exec"),
             {"__name__": name, "__package__": package, "__file__": str(path)})


def _route(argv: list[str], status: int = 0):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        got = main(argv)
    assert got == status, f"hiercl {' '.join(argv)} exited {got}: {err.getvalue()}"
    return err.getvalue()


def run_routes(configs: dict[str, str], out: Path):
    """`hiercl run` of each config text and `hiercl report` on its CSV,
    `hiercl gen` of each dataset kind, and a `hiercl run` whose learning
    rate diverges, which exits 2; after running the code of every module
    of hiercl, as importing it does."""
    import_afresh(SRC, "hiercl")
    for name, text in configs.items():
        cfg, csv = out / f"{name}.cfg", out / f"{name}.csv"
        cfg.write_text(text)
        _route(["run", "--config", str(cfg), "--set", f"run.out={csv}"])
        _route(["report", str(csv)])
    for kind in ("gaussians", "permuted", "sine"):
        _route(["gen", "--set", f"dataset.kind={kind}", "--out", str(out / f"{kind}.txt")])
    cfg = out / "diverges.cfg"
    cfg.write_text(_DIVERGES)
    with np.errstate(over="ignore", invalid="ignore"):  # the weights overflow on purpose
        err = _route(["run", "--config", str(cfg), "--set", f"run.out={out / 'diverges.csv'}"],
                     status=2)
    assert "training diverged" in err and not (out / "diverges.csv").exists()


def test_every_src_statement_runs_on_a_route_or_is_allowlisted(tmp_path):
    with pytest.warns(UserWarning, match="325 task trainings"):  # the group of 5
        ran = trace_lines(lambda: run_routes(ROUTES, tmp_path))
    unlisted, stale = route_gaps(SRC, ran, ALLOWED)
    assert not unlisted, ("no program route runs these src/ statements; delete them, move "
                          "them to tests/, add a route, or allowlist them with a reason:\n"
                          + "\n".join(unlisted))
    assert not stale, f"allowlisted statements that now run or are gone: {stale}"


def test_the_guard_finds_statements_no_route_runs(tmp_path, monkeypatch):
    pkg = tmp_path.resolve() / "routes_fixture"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        '"""A module."""\n\n'
        "LIMIT = 10\n\n\n"
        "def clamp(x):\n"
        '    """Docstring."""\n'
        "    if x < 0:\n"
        "        x = -x\n"
        "    if x > LIMIT:\n"
        '        message = f"{x} is above {LIMIT}"\n'
        "        raise ValueError(message)\n"
        "    return x\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    from routes_fixture.a import clamp

    try:
        ran = trace_lines(lambda: (import_afresh(pkg, "routes_fixture"), clamp(3)), pkg)
    finally:
        del sys.modules["routes_fixture.a"], sys.modules["routes_fixture"]
    # the unrun plain statement and the stale entry, not the unrun raise block
    allowed = {"a.clamp: return x": "stale: it runs"}
    assert route_gaps(pkg, ran, allowed) == (["a.py:9: a.clamp: x = -x"], ["a.clamp: return x"])
