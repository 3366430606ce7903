"""List the statements of src/hiercl that no program route runs.

Runs every route the program offers a user under sys.settrace: a
`hiercl run` of each perfbench workload config (data seed 0) and of
README's example config, `hiercl gen` for each dataset kind, and
`hiercl report` on each CSV the runs wrote. Then prints each statement of
src/hiercl that none of them ran, as `path:line: source`, leaving out
docstrings. Error paths and test-only code show up here too; a listed
line is a candidate for deletion, or for a reason to exist.

    PYTHONPATH=src python3 tests/program_routes.py

pytest does not collect this file. A listing took about 5 s on a 2-core
Xeon VM.
"""

from __future__ import annotations

import ast
import contextlib
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hiercl"


def _readme_example() -> str:
    """README's config example: the indented block after "Example:"."""
    after = (ROOT / "README.md").read_text().split("\nExample:\n", 1)[1]
    lines = itertools.takewhile(lambda line: line.startswith("    "),
                                after.lstrip("\n").splitlines())
    return "\n".join(line.strip() for line in lines) + "\n"


def _run_routes(out: Path):
    from hiercl.cli import main

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    configs = {name: w.config_text(0) for name, w in WORKLOADS.items()}
    configs["readme"] = _readme_example()
    for name, text in configs.items():
        cfg, csv = out / f"{name}.cfg", out / f"{name}.csv"
        cfg.write_text(text)
        for argv in (["run", "--config", str(cfg), "--set", f"run.out={csv}"],
                     ["report", str(csv)]):
            print(f"hiercl {' '.join(argv)}", file=sys.stderr)
            if main(argv) != 0:
                raise SystemExit(f"route failed: hiercl {' '.join(argv)}")
    for kind in ("gaussians", "permuted", "sine"):
        argv = ["gen", "--set", f"dataset.kind={kind}", "--out", str(out / f"{kind}.txt")]
        print(f"hiercl {' '.join(argv)}", file=sys.stderr)
        if main(argv) != 0:
            raise SystemExit(f"route failed: hiercl {' '.join(argv)}")


def _statements(path: Path):
    """(first line, header lines) of each statement that is not a
    docstring. The header of a compound statement runs up to its body, so
    a statement counts as run when any of its header lines ran."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings or isinstance(node, ast.Try):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        yield node.lineno, range(start, max(last, node.lineno) + 1)


def main() -> int:
    ran: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC.parent))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(global_)
        try:  # the routes' own output goes to stderr, apart from the listing
            with contextlib.redirect_stdout(sys.stderr):
                _run_routes(Path(tmp))
        finally:
            sys.settrace(None)

    missed = total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        seen = ran.get(str(path), set())
        for lineno, header in sorted(_statements(path)):
            total += 1
            if not seen.intersection(header):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missed} of {total} statements ran on no route", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
