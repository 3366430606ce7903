"""List the statements and arms of src/hiercl that no full-size program
route runs.

Runs, through the tracer of the tier-1 guard (test_program_routes.py), a
`hiercl run` of each perfbench workload config (data seed 0) and of
README's example config, `hiercl report` on each CSV, `hiercl gen` for each
dataset kind and the guard's diverging run. Then prints each statement of
src/hiercl that none of them ran, as `path:line: source`, leaving out
docstrings, and counts how many of those are error paths. Below them it
prints each arm (a branch of a one-line conditional, an `and`/`or`
operand after the first, a comprehension's `if`) of a statement that ran
and is no error path that none of them ran, as `path:line: source => arm`;
on Python 3.11 and later only, as the guard traces arms. A listed line
that is no error path is a candidate for deletion, or for a reason to
exist.

    PYTHONPATH=src python3 tests/program_routes.py

pytest does not collect this file. A listing took 5.6-7.2 s on a 2-core
Xeon VM under Python 3.11.
"""

from __future__ import annotations

import itertools
import sys
import tempfile
from pathlib import Path

from test_program_routes import ARM, SRC, run_routes, statements, trace_run

ROOT = Path(__file__).resolve().parent.parent


def _readme_example() -> str:
    """README's config example: the indented block after "Example:"."""
    after = (ROOT / "README.md").read_text().split("\nExample:\n", 1)[1]
    lines = itertools.takewhile(lambda line: line.startswith("    "),
                                after.lstrip("\n").splitlines())
    return "\n".join(line.strip() for line in lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    configs = {name: w.config_text(0) for name, w in WORKLOADS.items()}
    configs["readme"] = _readme_example()
    with tempfile.TemporaryDirectory() as tmp:
        trace = trace_run(lambda: run_routes(configs, Path(tmp)))

    missed = errors = total = 0
    unrun_arms, arms = [], 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        seen = trace.lines.get(str(path), set())
        ran = set() if trace.arms is None else trace.arms.get(str(path), set())
        for st in statements(path):
            total += 1
            where = f"{path.relative_to(ROOT)}:{st.line}: {lines[st.line - 1].strip()}"
            if seen.isdisjoint(st.header):
                missed += 1
                errors += st.error
                print(where)
            elif trace.arms is not None and not st.error:
                arms += len(st.arms)
                unrun_arms += [where + ARM + arm.key[len(st.key + ARM):]
                               for arm in st.arms if arm.span not in ran]
    print("\n".join(unrun_arms))
    print(f"{missed} of {total} statements ran on no route, {errors} of them error paths",
          file=sys.stderr)
    if trace.arms is not None:
        print(f"{len(unrun_arms)} of {arms} arms of statements that ran, on no error path, "
              f"ran on no route", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
