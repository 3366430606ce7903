"""Tooling guard: every statement of `src/hiercl`, and every arm of a
statement that runs, runs on some program route, is an error path, or is
allowlisted with its reason. A branch that only tests take belongs in
`tests/`, next to the tests that take it.

A program route is what a user can do with the `hiercl` command: `run` a
config, `report` on its CSV, `gen` a dataset, or have a run fail. ROUTES
covers every learner kind, method, dataset kind and curvature on configs
small enough for tier-1, and `trace_run` records the lines and arms they
run under sys.settrace.

An arm is a branch inside one statement: each branch of a one-line
conditional (`a if c else b`), each operand of `and`/`or` after the first,
and each `if` of a comprehension. It ran when an instruction within its
source span ran; `code.co_positions` maps an instruction to its span, so
the arm check needs Python 3.11 and is skipped before it, while the line
check still runs.

An error path is a `raise`, or any statement inside an `if`, `else` or
`except` body whose last statement is a `raise`: the lines that build an
error and its message, and the arms in them. Other tests import the
package before this one traces it, so the routes first run each module's
code again (`import_afresh`) to trace what runs on import.
`tests/program_routes.py` runs the full-size configs through the same
tracer and lists every unrun statement and arm.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path
from types import CodeType
from typing import NamedTuple

import numpy as np
import pytest

import hiercl
from hiercl.cli import main

SRC = Path(hiercl.__file__).resolve().parent

# code.co_positions, which maps an instruction to its source span, is new
# in Python 3.11; without it the arm check is skipped
HAS_POSITIONS = hasattr(CodeType, "co_positions")

# between a statement's key and an arm's source text in an arm's key
ARM = " => "


_ITEM_6 = "no caller yet: ROADMAP item 6 logs the surrogate decrease of each consolidation"
_LOG = "no caller yet: ROADMAP item 6 has `hiercl run` write the JSONL log"
_AUDIT = ("counts the audit's violations for the error raised after it; a run records "
          "its argmax winner, so only tests make one")

# "module.qualname: first source line" of a statement that no route runs,
# or that key, ARM and an arm's source text for an arm that none runs ->
# why it stays in src/. The list can only shrink: an entry whose statement
# or arm runs, becomes an error path or disappears fails the test too.
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
    "experiment.run_experiment: with CsvSink(csv_path) if csv_path else "
    "contextlib.nullcontext() as sink:" + ARM + "contextlib.nullcontext()":
        "a sweep that writes no CSV: perfbench calls run_experiment(cfg, csv_path=\"\"); "
        "`hiercl run` always writes one",
    "curvature.require_finite: if not (np.isfinite(total) or np.isfinite(v).all()):" + ARM
    + "np.isfinite(v).all()": "runs only when v's sum is not finite, which no route's "
                              "consolidation meets",
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
                        "run.methods=seq,hier,fedprox\nrun.curvature=lowrank\nrun.clip=0.5\n",
    "one-task": _BASE + "dataset.kind=permuted\ndataset.num_tasks=1\nrun.group_size=1\n"
                        "run.methods=seq,hier\n",
    # a group of 5 warns of its 325 prefix trainings
    "group-of-5": _BASE + "dataset.num_classes=10\ndataset.samples_per_class=2\n"
                          "run.group_size=5\nrun.perms=1\nrun.methods=hier\n",
}

# a learning rate that overflows the weights: the run fails and exits 2
_DIVERGES = _BASE + "learner.learning_rate=1e300\nrun.perms=1\nrun.methods=seq\n"


class Arm(NamedTuple):
    span: tuple[int, int, int, int]  # (line, end line, column, end column), as co_positions
    key: str                         # "<statement key> => <arm source>"


class Statement(NamedTuple):
    line: int
    header: range  # a compound statement's lines up to its body
    key: str       # "module.qualname: first source line"
    error: bool    # on an error path
    arms: tuple[Arm, ...]  # the arms of its own expressions, not its body's


class Trace(NamedTuple):
    lines: dict[str, set[int]]  # path -> lines run
    arms: dict[str, set[tuple]] | None  # path -> spans of the arms run; None before 3.11


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


def _arms(node):
    """The arm expressions in a statement's own expressions (its header's,
    for a compound statement): each branch of a one-line conditional, each
    operand of `and`/`or` after the first, and each `if` of a comprehension."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.stmt, ast.excepthandler)):
            continue
        for sub in ast.walk(child):
            if isinstance(sub, ast.IfExp):
                yield from (sub.body, sub.orelse)
            elif isinstance(sub, ast.BoolOp):
                yield from sub.values[1:]
            elif isinstance(sub, ast.comprehension):
                yield from sub.ifs


def _one_line(lines, node) -> str:
    """A node's source text on one line, its runs of white space single
    spaces (ast's columns count UTF-8 bytes)."""
    text = [line.encode() for line in lines[node.lineno - 1 : node.end_lineno]]
    text[-1] = text[-1][: node.end_col_offset]
    text[0] = text[0][node.col_offset :]
    return " ".join(b" ".join(text).decode().split())


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
                key = f"{scope}: {lines[node.lineno - 1].strip()}"
                arms = tuple(
                    Arm((a.lineno, a.end_lineno, a.col_offset, a.end_col_offset),
                        key + ARM + _one_line(lines, a))
                    for a in _arms(node))
                out.append(Statement(node.lineno, range(start, end + 1), key, error_here, arms))
            for child, child_scope, branch in _bodies(node, scope):
                if child:
                    walk(child, child_scope,
                         error_here or (branch and isinstance(child[-1], ast.Raise)))

    walk(ast.parse(text).body, path.stem, False)
    return out


def _arms_in(code, by_line) -> tuple[dict[int, list[tuple]], set[int]]:
    """({instruction offset: spans of the arms that hold it}, the lines of
    those instructions) of one code object; `by_line` maps a line to the
    spans of the arms that cover it."""
    at, lines = {}, set()
    for i, (line, end_line, col, end_col) in enumerate(code.co_positions()):
        if None in (line, end_line, col, end_col):
            continue
        hit = [s for s in by_line.get(line, ())
               if (s[0], s[2]) <= (line, col) and (end_line, end_col) <= (s[1], s[3])]
        if hit:
            at[2 * i] = hit
            lines.add(line)
    return at, lines


def trace_run(run, src: Path = SRC) -> Trace:
    """The lines, and from Python 3.11 the arms, of the files directly in
    `src` that run while run() runs under sys.settrace.

    An arm ran when one of the instructions within its source span ran;
    arms on an error path are not traced. A frame of a code object that
    holds an arm not yet run gets opcode events, but only on the lines of
    its arms' instructions, and none once every arm of its code has run."""
    lines: dict[str, set[int]] = {}
    arms: dict[str, set[tuple]] | None = {} if HAS_POSITIONS else None
    # code filename -> (its lines run, its arms run, {line: spans of the
    # arms over it}), None outside src
    files: dict = {}
    # id of a code object -> (offsets and lines from _arms_in, its arm
    # spans, its file's lines and arms run, and the code object, which so
    # keeps its id); a code object hashes its whole bytecode
    codes: dict = {}

    def file_of(filename):
        if filename not in files:
            path = Path(filename).resolve()
            files[filename] = None
            if path.parent == src:
                by_line: dict[int, list[tuple]] = {}
                for st in statements(path) if HAS_POSITIONS else ():
                    for arm in st.arms if not st.error else ():
                        for line in range(arm.span[0], arm.span[1] + 1):
                            by_line.setdefault(line, []).append(arm.span)
                files[filename] = (lines.setdefault(str(path), set()),
                                   None if arms is None else arms.setdefault(str(path), set()),
                                   by_line)
        return files[filename]

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename][0].add(frame.f_lineno)
        return local

    def arm_local(frame, event, arg):
        at, arm_lines, spans, seen, ran, _ = codes[id(frame.f_code)]
        if event == "line":
            seen.add(frame.f_lineno)
            frame.f_trace_opcodes = frame.f_lineno in arm_lines
        elif event == "opcode":
            hit = at.get(frame.f_lasti)
            if hit and not ran.issuperset(hit):
                ran.update(hit)
                if ran.issuperset(spans):
                    frame.f_trace_opcodes = False
                    return local
        return arm_local

    def call(frame, event, arg):
        file = file_of(frame.f_code.co_filename)
        if file is None:
            return None
        seen, ran, by_line = file
        seen.add(frame.f_lineno)
        code = frame.f_code
        if not by_line:
            return local
        if id(code) not in codes:
            at, arm_lines = _arms_in(code, by_line)
            codes[id(code)] = (at, arm_lines, {s for hit in at.values() for s in hit}, seen, ran,
                               code)
        return local if ran.issuperset(codes[id(code)][2]) else arm_local

    old = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(old)
    return Trace(lines, arms)


def route_gaps(src: Path, trace: Trace, allowed) -> tuple[list[str], list[str]]:
    """(each statement of the package at `src` that no route ran, and each
    arm of a statement that ran that no route ran, that is no error path
    and that `allowed` does not name, as "file:line: key"; each key of
    `allowed` that names no such statement or arm). Without arm tracing
    every arm of a statement that ran counts as unrun, and none is listed."""
    unrun, unlisted = set(), []
    for path in sorted(src.glob("*.py")):
        seen = trace.lines.get(str(path), set())
        ran = None if trace.arms is None else trace.arms.get(str(path), set())
        for st in statements(path):
            if st.error:
                continue
            if seen.isdisjoint(st.header):
                gaps = [st.key]
            elif ran is None:
                unrun.update(arm.key for arm in st.arms)
                continue
            else:
                gaps = [arm.key for arm in st.arms if arm.span not in ran]
            unrun.update(gaps)
            unlisted += [f"{path.name}:{st.line}: {key}" for key in gaps if key not in allowed]
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
        trace = trace_run(lambda: run_routes(ROUTES, tmp_path))
    unlisted, stale = route_gaps(SRC, trace, ALLOWED)
    assert not unlisted, ("no program route runs these src/ statements; delete them, move "
                          "them to tests/, add a route, or allowlist them with a reason:\n"
                          + "\n".join(unlisted))
    assert not stale, f"allowlisted statements that now run or are gone: {stale}"
    if trace.arms is None:
        pytest.skip("the arm check maps instructions to source spans with "
                    "code.co_positions, new in Python 3.11")


def test_the_guard_finds_statements_no_route_runs(tmp_path, monkeypatch):
    pkg = tmp_path.resolve() / "routes_fixture"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        '"""A module."""\n\n'
        "LIMIT = 10\n\n\n"
        "def clamp(x, low=None):\n"
        '    """Docstring."""\n'
        "    low = 0 if low is None else low\n"
        "    if x < low or x is None:\n"
        "        x = -x\n"
        "    if x > LIMIT:\n"
        '        message = f"{x} is above {LIMIT}" if x else "x is zero"\n'
        "        raise ValueError(message)\n"
        "    return x\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    from routes_fixture.a import clamp

    try:
        trace = trace_run(lambda: (import_afresh(pkg, "routes_fixture"), clamp(3)), pkg)
    finally:
        del sys.modules["routes_fixture.a"], sys.modules["routes_fixture"]
    # the unrun arm and plain statement and the stale entries, not the
    # unrun raise block or its arm; the `or` operand ran
    low = "a.clamp: low = 0 if low is None else low"
    allowed = {"a.clamp: return x": "stale: it runs", low + ARM + "0": "stale: it runs"}
    unlisted, stale = route_gaps(pkg, trace, allowed)
    assert unlisted == [f"a.py:8: {low}{ARM}low"] * HAS_POSITIONS + ["a.py:10: a.clamp: x = -x"]
    assert stale == [low + ARM + "0"] * HAS_POSITIONS + ["a.clamp: return x"]
