"""Accuracy-matrix metrics and the CSV record format.

The matrix entry A[i][j] is test accuracy on the j-th arrived task after
training stage i; every task is evaluated at every stage, seen or not.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

CSV_HEADER = ("method", "seed", "permutation", "mean_accuracy",
              "avg_forgetting", "wall_time_seconds")


@dataclass
class AccuracyMatrix:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("accuracy matrix must be square (stages x tasks)")
        # written so that NaN fails the test too
        if not np.all((v >= -1e-9) & (v <= 1 + 1e-9)):
            raise ValueError("accuracies must be finite and lie in [0, 1]")


@dataclass
class MetricsRecord:
    method: str
    seed: int
    permutation: str
    mean_accuracy: float
    avg_forgetting: float
    wall_time_seconds: float


def mean_accuracy(matrix: AccuracyMatrix) -> float:
    """Mean of the final row: accuracy over all tasks after the last stage."""
    return float(matrix.values[-1].mean())


def avg_forgetting(matrix: AccuracyMatrix) -> float:
    """Mean over the first T-1 tasks of peak-minus-final accuracy, the peak
    taken over stages before the last. The final task never enters."""
    a = matrix.values
    t = a.shape[0]
    if t < 2:
        return 0.0
    peaks = a[: t - 1, : t - 1].max(axis=0)
    return float(np.mean(peaks - a[-1, : t - 1]))


def std_across_permutations(records) -> float:
    """Population (1/P) standard deviation of final mean accuracy."""
    vals = np.array([r.mean_accuracy for r in records], dtype=np.float64)
    if vals.size == 0:
        raise ValueError("no records")
    return float(np.sqrt(np.mean((vals - vals.mean()) ** 2)))


class CsvSink:
    """Single-writer CSV stream in the fixed schema; rows flushed as written
    so deterministic ordering is the caller's only job.

    Rows go to a temporary file beside `path`, which close() moves onto
    `path`; discard() deletes it instead, so an existing file at `path` is
    replaced only by a finished one. A `path` that names a directory is
    refused at once, and a failed move deletes the temporary file. As a
    context manager it closes on a clean exit and discards on an
    exception."""

    def __init__(self, path: str):
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path}: is a directory, not a results CSV")
        self._path = path
        self._tmp = f"{path}.{os.getpid()}.tmp"
        self._fh = open(self._tmp, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(CSV_HEADER)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.discard()

    def write(self, rec: MetricsRecord):
        self._writer.writerow([
            rec.method, rec.seed, rec.permutation,
            repr(float(rec.mean_accuracy)), repr(float(rec.avg_forgetting)),
            repr(float(rec.wall_time_seconds)),
        ])
        self._fh.flush()

    def close(self):
        self._fh.close()
        try:
            os.replace(self._tmp, self._path)
        except OSError:
            os.remove(self._tmp)
            raise

    def discard(self):
        self._fh.close()
        os.remove(self._tmp)


def read_records(path: str) -> list[MetricsRecord]:
    """Parse a CSV in the fixed schema. A missing or wrong header, a row
    with the wrong number of fields, a field that does not parse, a
    nonfinite number or a mean accuracy outside [0, 1] raises ValueError
    naming the path and line."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"{path}: line 1: unexpected CSV header {header}")
        for row in reader:
            try:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                rec = MetricsRecord(row[0], int(row[1]), row[2],
                                    float(row[3]), float(row[4]), float(row[5]))
                for name in CSV_HEADER[3:]:
                    if not math.isfinite(getattr(rec, name)):
                        raise ValueError(f"{name} must be finite, got {getattr(rec, name)}")
                if not 0.0 <= rec.mean_accuracy <= 1.0:
                    raise ValueError(f"mean_accuracy must lie in [0, 1], got {rec.mean_accuracy}")
                out.append(rec)
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return out


def summarize(records) -> dict:
    """Per-method aggregates: mean accuracy and forgetting over all runs,
    and the permutation std computed within each seed then averaged."""
    methods = sorted({r.method for r in records})
    summary = {}
    for m in methods:
        recs = [r for r in records if r.method == m]
        seeds = sorted({r.seed for r in recs})
        stds = [std_across_permutations([r for r in recs if r.seed == s]) for s in seeds]
        summary[m] = {
            "runs": len(recs),
            "mean_accuracy": float(np.mean([r.mean_accuracy for r in recs])),
            "avg_forgetting": float(np.mean([r.avg_forgetting for r in recs])),
            "perm_std": float(np.mean(stds)),
            "perm_std_per_seed": {s: v for s, v in zip(seeds, stds)},
        }
    return summary


def headline_lines(summary: dict) -> list[str]:
    """The paper's headline comparison, one line per "X+hier" method whose
    base X is in the summary: relative change in mean accuracy and in
    permutation std, the seeds whose std is lower, and forgetting."""
    lines = []
    for m, row in summary.items():
        name = m.removesuffix("+hier")
        if name == m or name not in summary:
            continue
        base = summary[name]
        stds, base_stds = row["perm_std_per_seed"], base["perm_std_per_seed"]
        seeds = stds.keys() & base_stds.keys()
        lower = sum(stds[s] < base_stds[s] for s in seeds)
        lines.append(
            f"{m} vs {name}: "
            f"mean accuracy {_relative(row['mean_accuracy'], base['mean_accuracy'])}, "
            f"perm std {_relative(row['perm_std'], base['perm_std'])} "
            f"(lower in {lower}/{len(seeds)} seeds), "
            f"forgetting {base['avg_forgetting']:.4f} -> {row['avg_forgetting']:.4f}"
        )
    return lines


def _relative(value: float, base: float) -> str:
    return f"{value / base - 1.0:+.1%}" if base else "n/a"


def format_summary(summary: dict) -> str:
    lines = [f"{'method':<14} {'runs':>5} {'mean_acc':>9} {'forget':>8} {'perm_std':>9}"]
    for m, row in summary.items():
        lines.append(
            f"{m:<14} {row['runs']:>5d} {row['mean_accuracy']:>9.4f} "
            f"{row['avg_forgetting']:>8.4f} {row['perm_std']:>9.4f}"
        )
    return "\n".join(lines)
