#!/usr/bin/env python3
"""hiercl benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`. Each workload is a `hiercl run` config (see workloads.py) swept
with `hiercl.experiment.run_experiment`, one cell at a time (closed loop,
one client). A run repeats whole passes over the workload's cells until
`--seconds` would be exceeded (at least one pass), and checks every
pass's output.

Each run first makes one untimed warm-up pass over a few arrival orders.
--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics from passes that go untraced, traced, traced, then alternate;
its spans go to `.perfbench-out/` as gzipped JSON lines. The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics. `--workload all` runs every
workload in its own fresh process and prints them all.

BLAS is pinned to one thread so that runs on a shared machine stay
comparable. setup_s, and on workloads marked `host_scaled` every cell
timing (sweep_s, hier_cell_s_p50, the tail and the seq/fed cell
medians), is scaled by the host speed that a reference kernel measured
right after it (see hostspeed.py): it reads in seconds at the speed at
which one reference slice takes hostspeed.NOMINAL_SLICE_S. The raw
times are printed as facts. The per-layer self times are raw.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_REF_SLICES = 40
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))
from hostspeed import HostSpeed, slowdown  # noqa: E402
from tracer import CELL_ROOTS, Tracer  # noqa: E402
from workloads import REBOUND_SITES, TRACED, WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("hier_cell_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)

_CALLS_AND_SELF = (
    "model.loss_and_grad", "model.per_sample_grads", "model.accuracy_eval",
    "learners.train_seq", "learners.train_on_task", "learners.replay_sample",
    "learners.replay_insert_many", "learners.replay_clone",
    "curvature.estimate_gradient", "curvature.estimate_diag_curvature",
    "curvature.regularized_solve", "consolidation.multi_level_consolidate",
    "pipeline.run_pipeline", "pipeline.explore_group", "federated.fedavg_aggregate",
)
_SELF_ONLY = ("consolidation.catch_up", "pipeline.selection_audit",
              "federated.fed_compare_run", "tasks.make_tasks")
_COUNTS = (
    ("model.per_sample_grads.bytes_computed", "B"),
    ("learners.replay_insert_many.items", "count"),
    ("curvature.pool_builds_per_consolidation", "ratio"),
    ("pipeline.orderings_scored", "count"),
    ("pipeline.task_trainings", "count"),
    ("pipeline.trainings_over_trie_min", "ratio"),
)
PER_LAYER = (
    tuple((f"{n}.calls", "count") for n in _CALLS_AND_SELF)
    + tuple((f"{n}.self_s", "s") for n in _CALLS_AND_SELF + _SELF_ONLY)
    + _COUNTS
    + (("trace.overhead_frac", "ratio"),
       ("experiment.seq_cell_s_p50", "s"),
       ("experiment.fed_cell_s_p50", "s"),
       ("metrics.hier_mean_accuracy", "frac"),
       ("metrics.hier_avg_forgetting", "frac"),
       ("metrics.hier_perm_std", "frac"))
)


class BenchError(Exception):
    """The benchmark cannot run here (no program sources, set-up failed)."""


# ---- program import and set-up ----------------------------------------------

def require_sources() -> Path:
    init = SRC / "hiercl" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no hiercl sources at {init.relative_to(ROOT)}; "
                         "run from the root of a source checkout")
    return init


def import_hiercl():
    init = require_sources()
    sys.path.insert(0, str(SRC))
    import hiercl
    import hiercl.cli  # noqa: F401  (config and cli count toward set-up)
    if Path(hiercl.__file__).resolve() != init.resolve():
        raise BenchError(f"imported hiercl from {hiercl.__file__}, not from {SRC}")
    return hiercl


def build_config(workload, seed, warmup=False):
    from hiercl.config import build_experiment_config, parse_config_text
    return build_experiment_config(parse_config_text(workload.config_text(seed, warmup)))


def setup_probe(workload, seed) -> tuple[float, float]:
    """Import, config build, make_tasks and init_params, as a fresh process
    pays them before its first cell: (raw seconds, scaled seconds)."""
    start = time.perf_counter()
    import_hiercl()
    from hiercl.experiment import make_model_spec, make_tasks
    from hiercl.model import init_params
    from hiercl.pipeline import derive_seed
    cfg = build_config(workload, seed)
    spec = make_model_spec(cfg)
    for s in cfg.seeds:
        make_tasks(cfg.dataset, s)
        init_params(spec, derive_seed(s, 0))
    elapsed = time.perf_counter() - start
    host = HostSpeed()
    return elapsed, elapsed / slowdown([host.slice() for _ in range(SETUP_REF_SLICES)])


def measure_setup(workload, seed) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of SETUP_REPEATS fresh processes."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(result["setup_raw_s"])
        scaled.append(result["setup_s"])
    return raw, scaled


# ---- passes -------------------------------------------------------------------

def expected_cells(cfg) -> int:
    orders = math.factorial(cfg.dataset.task_count) if cfg.perms == "all" else int(cfg.perms)
    return len(cfg.seeds) * orders * len(cfg.methods)


def csv_rows(records) -> list[str]:
    """CSV rows as CsvSink writes them, without wall_time_seconds."""
    return [",".join((r.method, str(r.seed), r.permutation,
                      repr(float(r.mean_accuracy)), repr(float(r.avg_forgetting))))
            for r in records]


def _matrix_ok(values) -> bool:
    import numpy as np
    return bool(np.isfinite(values).all() and values.min() >= 0.0 and values.max() <= 1.0)


def cell_ok(kind, result) -> bool:
    """A cell fails if it raised (no result), if an accuracy is nonfinite or
    outside [0, 1], or if its selection audit reports violations."""
    if result is None:
        return False
    if kind == "hier":
        return result.audit.get("violations") == 0 and _matrix_ok(result.matrix.values)
    if kind == "fed":
        result = result[1]
    return _matrix_ok(result.values)


def run_pass(cfg, traced: bool, host_scaled: bool) -> dict:
    """One run_experiment call. With `host_scaled`, reference slices run
    after every cell and each cell's time is scaled by them."""
    from hiercl.experiment import run_experiment
    host = HostSpeed()
    ref: dict[int, list[float]] = {}

    def after_cell(cell, seconds):
        ref[cell] = host.sample(seconds)

    tracer = Tracer(TRACED if traced else tuple(CELL_ROOTS),
                    after_cell if host_scaled else None)
    records, error = None, None
    with tracer:
        start = time.perf_counter()
        try:
            records, _ = run_experiment(cfg, csv_path="")
        except Exception:  # a failing cell is reported, not fatal to the run
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    # (cell id, kind, raw seconds, scaled seconds)
    cells = [(cid, kind, secs, secs / slowdown(ref[cid]) if host_scaled else secs)
             for cid, kind, secs in tracer.cells()]
    slow = slowdown([t for times in ref.values() for t in times]) if ref else 1.0
    work = wall - host.busy_s
    # cells scaled one by one; the rest of the pass by the pass's slowdown
    outside = work - sum(c[2] for c in cells)
    failed = sum(not cell_ok(kind, tracer.cell_results[cid]) for cid, kind, _, _ in cells)
    problems = []
    if error:
        problems.append(f"run_experiment raised:\n{error}")
    if records is not None:
        if len(records) != expected_cells(cfg) or len(cells) != len(records):
            problems.append(f"{len(records)} records and {len(cells)} cells, "
                            f"want {expected_cells(cfg)}")
        for r in records:
            if not (0.0 <= r.mean_accuracy <= 1.0 and math.isfinite(r.avg_forgetting)):
                problems.append(f"bad record {r}")
    rows = csv_rows(records) if records is not None else []
    return {
        "traced": traced, "wall": wall, "work": work, "slowdown": slow,
        "scaled": sum(c[3] for c in cells) + outside / slow, "cells": cells, "failed": failed,
        "problems": problems, "records": records, "rows": rows,
        "digest": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
        "tracer": tracer if traced else None,
    }


def run_passes(cfg, seconds: float, trace: bool, host_scaled: bool) -> list[dict]:
    """Whole passes until the next one would end past `seconds`. With
    trace off every pass is untraced; with trace on the passes go
    untraced, traced, traced, then alternate, so that traced counts can
    be compared across two passes."""
    passes: list[dict] = []
    last: dict[bool, float] = {}
    start = time.perf_counter()
    while True:
        n_traced = sum(p["traced"] for p in passes)
        n_untraced = len(passes) - n_traced
        traced = trace and n_untraced > 0 and (n_traced < 2 or n_traced <= n_untraced)
        minimum_done = n_untraced > 0 and (not trace or n_traced >= 2)
        predicted = time.perf_counter() - start + last.get(traced, max(last.values(), default=0.0))
        if minimum_done and predicted > seconds:
            break
        p = run_pass(cfg, traced, host_scaled)
        passes.append(p)
        last[traced] = p["wall"]
        if p["problems"] or p["failed"]:
            break
    return passes


# ---- checks -------------------------------------------------------------------

def check_outputs(workload, passes) -> list[str]:
    problems = [msg for p in passes for msg in p["problems"]]
    digests = {p["digest"] for p in passes if p["records"] is not None}
    if len(digests) > 1:
        problems.append("CSV rows differ between passes (traced and untraced "
                        "passes, or reruns, disagree)")
    if passes and passes[0]["records"] is not None:
        for a, b in workload.equal_methods:
            rows_a = [r.split(",", 1)[1] for r in passes[0]["rows"] if r.startswith(a + ",")]
            rows_b = [r.split(",", 1)[1] for r in passes[0]["rows"] if r.startswith(b + ",")]
            if not rows_a or rows_a != rows_b:
                problems.append(f"{a} and {b} rows are not bitwise equal")
    return problems


def check_coverage(workload, summary) -> list[str]:
    problems = []
    calls, sites = summary["calls"], summary["site_calls"]
    for name in TRACED:
        zero = name in workload.expect_zero
        if zero != (calls[name] == 0):
            problems.append(f"coverage: {name} has {calls[name]} calls, "
                            f"predicted {'zero' if zero else 'nonzero'}")
    for site, name in REBOUND_SITES.items():
        zero = name in workload.expect_zero or site in workload.expect_zero
        n = sites.get(site)
        if n is None and not zero:
            problems.append(f"coverage: binding {site} not found")
        elif n is not None and zero != (n == 0):
            problems.append(f"coverage: binding {site} has {n} calls, "
                            f"predicted {'zero' if zero else 'nonzero'}")
    return problems


def exact_counts(summary) -> dict:
    out = {f"{k}.calls": v for k, v in summary["calls"].items()}
    out.update(summary["counts"])
    return out


def source_hash() -> str:
    """Digest of the program and benchmark sources, so that the ledger only
    compares runs of identical code."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "hiercl").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_ledger(workload, seed, digest, counts) -> list[str]:
    """Across runs of the same sources, workload and seed, the CSV digest
    and the exact counts must repeat. Kept in .perfbench-out/ledger.json."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    key = f"{source_hash()[:16]}/{workload.name}/{seed}"
    entry = ledger.setdefault(key, {})
    problems = []
    if entry.setdefault("digest", digest) != digest:
        problems.append(f"CSV digest {digest[:12]} differs from an earlier run's "
                        f"{entry['digest'][:12]}")
    if counts is not None:
        old = entry.setdefault("counts", counts)
        diff = sorted(k for k in set(old) | set(counts) if old.get(k) != counts.get(k))
        if diff:
            problems.append(f"exact counts differ from an earlier run: {diff}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


# ---- metrics ------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None below eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None
    return xs[n - 11], 100.0 * (n - 10) / n, n


def cell_times(passes, kind, raw=False) -> list[float]:
    return [r if raw else s for p in passes for _, k, r, s in p["cells"] if k == kind]


def end_to_end(passes, setup_raw, setup_scaled) -> tuple[dict, dict]:
    hier = cell_times(passes, "hier")
    t = tail(hier)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "sweep_s": statistics.median(p["scaled"] for p in passes),
        "hier_cell_s_p50": statistics.median(hier),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    facts = {
        "hier_cell_s_tail": {"value": t[0], "percentile": t[1], "samples": t[2]} if t
                            else {"value": None, "samples": len(hier)},
        "raw_setup_s": statistics.median(setup_raw),
        "raw_sweep_s": statistics.median(p["work"] for p in passes),
        "raw_hier_cell_s_p50": statistics.median(cell_times(passes, "hier", raw=True)),
        "host_slowdown": statistics.median(p["slowdown"] for p in passes),
    }
    return values, facts


def hier_quality(records) -> dict:
    from hiercl.metrics import summarize
    summary = summarize(records)
    row = next(v for k, v in summary.items() if k.endswith("+hier"))
    return {"metrics.hier_mean_accuracy": row["mean_accuracy"],
            "metrics.hier_avg_forgetting": row["avg_forgetting"],
            "metrics.hier_perm_std": row["perm_std"]}


def per_layer(workload, passes) -> tuple[dict, dict, list[str]]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    summaries = [p["tracer"].layer_summary() for p in traced]
    problems = check_coverage(workload, summaries[0])
    counts = [exact_counts(s) for s in summaries]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("exact counts differ between traced passes")
    s0, c0 = summaries[0], counts[0]
    values = {}
    for name in _CALLS_AND_SELF:
        values[f"{name}.calls"] = s0["calls"][name]
    for name in _CALLS_AND_SELF + _SELF_ONLY:
        values[f"{name}.self_s"] = statistics.median(s["self_s"][name] for s in summaries)
    consolidations = s0["calls"]["consolidation.multi_level_consolidate"]
    values.update({
        "model.per_sample_grads.bytes_computed": c0.get("model.per_sample_grads.bytes_computed", 0),
        "learners.replay_insert_many.items": c0.get("learners.replay_insert_many.items", 0),
        "curvature.pool_builds_per_consolidation":
            s0["calls"]["learners.replay_as_batch"] / consolidations if consolidations else 0.0,
        "pipeline.orderings_scored": c0.get("pipeline.orderings_scored", 0),
        "pipeline.task_trainings": c0["pipeline.task_trainings"],
        "pipeline.trainings_over_trie_min":
            c0["pipeline.task_trainings"] / c0["pipeline.trie_min_trainings"]
            if c0.get("pipeline.trie_min_trainings") else 0.0,
        "trace.overhead_frac": statistics.median(p["scaled"] for p in traced)
            / statistics.median(p["scaled"] for p in untraced) - 1.0,
    })
    for kind in ("seq", "fed"):
        times = cell_times(untraced, kind)
        values[f"experiment.{kind}_cell_s_p50"] = statistics.median(times) if times else 0.0
    values.update(hier_quality(passes[0]["records"]))
    return values, c0, problems


# ---- one workload -------------------------------------------------------------

def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    require_sources()
    setup_raw, setup_scaled = measure_setup(workload, seed)
    hiercl = import_hiercl()
    import numpy as np
    cfg = build_config(workload, seed)
    # untimed: the first pass in a process runs slower while lazy set-up,
    # caches and the allocator warm up
    warmup = run_pass(build_config(workload, seed, warmup=True), False, workload.host_scaled)
    passes = (run_passes(cfg, seconds, trace, workload.host_scaled)
              if not (warmup["problems"] or warmup["failed"]) else [])

    problems = warmup["problems"] + check_outputs(workload, passes)
    attempted = sum(len(p["cells"]) for p in [warmup, *passes])
    failed = sum(p["failed"] for p in [warmup, *passes])
    if not passes:
        passes = [warmup]
    metrics, facts, counts = {}, {}, None
    if not problems and not failed:
        metrics, facts = end_to_end([p for p in passes if not p["traced"]],
                                    setup_raw, setup_scaled)
        if trace:
            metrics, counts, more = per_layer(workload, passes)
            problems += more
            write_spans(workload, seed, passes)
        problems += check_ledger(workload, seed, passes[0]["digest"], counts)
        if not trace:
            facts["hier_quality"] = hier_quality(passes[0]["records"])
    if problems:
        metrics = {}

    facts.update({
        "workload": workload.name, "seed": seed, "data_seeds": list(cfg.seeds),
        "perm_sample_seed": cfg.perm_sample_seed, "trace": int(trace),
        "setup_raw_s_samples": setup_raw,
        "passes": [{"traced": p["traced"], "wall_s": p["wall"], "work_s": p["work"],
                    "host_slowdown": p["slowdown"], "cells": len(p["cells"])}
                   for p in passes],
        "csv_digest": passes[0]["digest"], "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "hiercl": hiercl.__version__,
        "cells_failed_frac": failed / attempted if attempted else 1.0,
    })
    correct = not problems and failed == 0 and attempted > 0
    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"workload {workload.name}: {workload.why}")
    for layers, e2e in workload.moves:
        print(f"  predicted: {layers} -> {e2e}")
    if workload.not_moved:
        print(f"  predicted no change: {workload.not_moved}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  cells_failed_frac = {facts['cells_failed_frac']:.6g} ({failed}/{attempted})")
    t = facts.get("hier_cell_s_tail")
    if t and t["value"] is None:
        print(f"  hier_cell_s_tail undefined: {t['samples']} hier cells, fewer than 11")
    elif t:
        print(f"  hier_cell_s_tail = {t['value']:.6g} s (p{t['percentile']:.1f} of "
              f"{t['samples']} hier cells, 10 beyond)")
    for msg in problems:
        print(f"  FAILED CHECK: {msg}")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def write_spans(workload, seed, passes):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for i, p in enumerate(passes):
            if p["traced"]:
                p["tracer"].write_spans(fh, i)


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + args.seconds)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
        code = code or proc.returncode
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


def main(argv=None) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        if args.setup_probe:
            raw, scaled = setup_probe(WORKLOADS[args.workload], args.seed)
            print(json.dumps({"setup_raw_s": raw, "setup_s": scaled}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
