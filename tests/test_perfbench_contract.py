"""The benchmark's tracer must find every binding it expects in the program.

perfbench/tracer.py patches hiercl functions from outside, and
perfbench/workloads.py lists the `from .x import y` bindings it has to
rebind. A renamed function or a dropped import would otherwise only show
up when someone runs the benchmark with tracing on.
"""

import sys
import types
from pathlib import Path

import hiercl  # noqa: F401  (loads the modules the tracer patches)
import hiercl.experiment  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """Execute perfbench/<name>.py as a fresh module without writing bytecode."""
    path = PERFBENCH / f"{name}.py"
    mod = types.ModuleType(f"_perfbench_{name}")
    mod.__file__ = str(path)
    monkeypatch.setitem(sys.modules, mod.__name__, mod)  # dataclasses look it up
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def test_tracer_binds_every_rebound_site(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    workloads = _load(monkeypatch, "workloads")
    with tracer.Tracer(workloads.TRACED) as tr:
        sites = set(tr.site_calls)
    missing = sorted(set(workloads.REBOUND_SITES) - sites)
    assert not missing, f"tracer found no binding for {missing}"
