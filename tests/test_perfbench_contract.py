"""The benchmark's tracer must find every binding it expects in the program.

perfbench/tracer.py patches hiercl functions from outside, and
perfbench/workloads.py lists the `from .x import y` bindings it has to
rebind. A renamed function or a dropped import would otherwise only show
up when someone runs the benchmark with tracing on.
"""

import math
import sys
import types
from pathlib import Path

import pytest

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


def test_every_workload_config_builds_under_the_current_schema(monkeypatch):
    # a renamed or deleted config key that a workload still sets would
    # otherwise only fail at bench time, in every run
    from hiercl.config import build_experiment_config, parse_config_text

    workloads = _load(monkeypatch, "workloads")
    for workload in workloads.WORKLOADS.values():
        for seed in range(3):
            for warmup in (False, True):
                text = workload.config_text(seed, warmup=warmup)
                cfg = build_experiment_config(parse_config_text(text))
                assert cfg.seeds == (seed,) and cfg.perm_sample_seed == seed
                if warmup:
                    assert cfg.perms == workload.warmup_perms


_TINY_ER = """\
dataset.kind=gaussians
dataset.num_classes=8
dataset.classes_per_task=2
dataset.dim=3
dataset.samples_per_class=6
dataset.val_per_class=3
dataset.test_per_class=3
learner.kind=er
learner.epochs_per_task=1
learner.batch_size=4
learner.buffer_capacity=5
run.group_size=2
run.methods=seq,hier,fedavg,fedprox
run.perms=2
run.seeds=0
run.hidden=4
run.audit_draws=20
"""

_TINY_EWC = """\
dataset.kind=gaussians
dataset.num_classes=12
dataset.classes_per_task=2
dataset.dim=3
dataset.samples_per_class=6
dataset.val_per_class=3
dataset.test_per_class=3
learner.kind=ewc
learner.epochs_per_task=1
learner.batch_size=4
learner.buffer_capacity=5
run.group_size=3
run.methods=hier
run.perms=1
run.seeds=0
run.hidden=4
run.audit_draws=20
"""

_TINY_WIDE = """\
dataset.kind=gaussians
dataset.num_classes=4
dataset.classes_per_task=1
dataset.dim=3
dataset.samples_per_class=6
dataset.val_per_class=3
dataset.test_per_class=3
learner.kind=sgd
learner.epochs_per_task=1
learner.batch_size=4
learner.buffer_capacity=5
run.group_size=1
run.levels=3
run.catchup=2
run.methods=hier
run.perms=1
run.seeds=0
run.hidden=4,4
run.audit_draws=20
"""


# 4 tasks in groups of 2 over all 24 orders: the first cell of each method
# trains every order's trie, and the others only take their leaves
_TINY_SHARED = _TINY_ER.replace("run.perms=2\n", "run.perms=all\n")

# 6 tasks in groups of 3 over 3 sampled orders: the later explorations of
# group 0 take some of their ordering prefixes, (5,), (2, 3) and others,
# from the earlier ones and train only the rest of each stack
_TINY_EWC_SHARED = _TINY_EWC.replace("run.perms=1\n", "run.perms=3\n")


@pytest.mark.parametrize("config, like", [(_TINY_ER, "sweep-er-k2"),
                                          (_TINY_SHARED, "sweep-er-k2"),
                                          (_TINY_EWC, "explore-ewc-k4"),
                                          (_TINY_EWC_SHARED, "explore-ewc-k4"),
                                          (_TINY_WIDE, "consolidate-wide-k1")])
def test_traced_tiny_run_reaches_every_traced_name(monkeypatch, config, like):
    # A structural change can break a benchmark run only at bench time: a
    # traced function no longer called, or a stacked result reaching a
    # probe that unpacks a 2-D shape. Run the tracer with its probes over
    # a tiny config of the same shape as a benchmark workload.
    from hiercl.config import build_experiment_config, parse_config_text
    from hiercl.experiment import run_experiment

    tracer = _load(monkeypatch, "tracer")
    workloads = _load(monkeypatch, "workloads")
    expect_zero = workloads.WORKLOADS[like].expect_zero
    cfg = build_experiment_config(parse_config_text(config))
    with tracer.Tracer(workloads.TRACED) as tr:
        records, _ = run_experiment(cfg, csv_path="")
    orders = math.factorial(cfg.dataset.task_count) if cfg.perms == "all" else int(cfg.perms)
    assert len(records) == len(cfg.methods) * orders
    assert len(tr.cells()) == len(records)  # a cell served from a plan still opens its span
    summary = tr.layer_summary()
    silent = [name for name in workloads.TRACED
              if name not in expect_zero and summary["calls"][name] == 0]
    assert not silent, f"traced names with no calls: {silent}"
    silent = [site for site, name in workloads.REBOUND_SITES.items()
              if name not in expect_zero and site not in expect_zero
              and not summary["site_calls"].get(site)]
    assert not silent, f"bindings with no calls: {silent}"
    assert summary["counts"]["pipeline.orderings_scored"] > 0
    assert summary["counts"]["model.per_sample_grads.bytes_computed"] > 0
