"""Print the numbers that say whether a change moved the program's results.

- The seed-0 CSV digest of each perfbench workload config, hashed as
  `perfbench/run.py` hashes a pass: the sha256 of its `csv_rows` (every
  CSV column but wall_time_seconds) joined by newlines.
- The same hash of the acceptance sweep's rows (the config of
  `tests/test_acceptance.py`: 5 seeds x 120 orders x seq, hier, fedavg and
  fedprox at mu=0).
- That sweep's criterion-9 permutation stds, er / er+hier, per seed.

    PYTHONPATH=src python3 tests/numerics_report.py

pytest does not collect this file. A report took about 5 s on a 2-core
Xeon VM.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rows_hash(records) -> str:
    from run import csv_rows
    return hashlib.sha256("\n".join(csv_rows(records)).encode()).hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import build_config
    from workloads import WORKLOADS
    from test_acceptance import BENCH_DATASET, BENCH_SEEDS, _bench_pipeline

    from hiercl.config import ExperimentConfig
    from hiercl.experiment import run_experiment

    for name, workload in WORKLOADS.items():
        records, _ = run_experiment(build_config(workload, 0), csv_path="")
        print(f"{name} seed-0 csv digest {rows_hash(records)}")
    cfg = ExperimentConfig(dataset=BENCH_DATASET, pipeline=_bench_pipeline(), perms="all",
                           seeds=BENCH_SEEDS, methods=("seq", "hier", "fedavg", "fedprox"),
                           hidden=(16,), prox_mu=0.0)
    records, summary = run_experiment(cfg, csv_path="")
    print(f"acceptance sweep rows hash {rows_hash(records)} ({len(records)} rows)")
    er, hier = summary["er"]["perm_std_per_seed"], summary["er+hier"]["perm_std_per_seed"]
    print("er / er+hier perm std per seed: "
          + ", ".join(f"{er[s]:.6f}/{hier[s]:.6f}" for s in BENCH_SEEDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
