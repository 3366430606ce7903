"""`load_tasks`, the reader for `hiercl.tasks.dump_tasks` text files.

Nothing in the program reads a dump back; the round-trip test uses this
reader to check that a dump keeps every value, dtype and shape.
"""

import numpy as np

from hiercl.model import Batch
from hiercl.tasks import TaskDataset


def load_tasks(path: str, task_kind: str = "classification") -> list[TaskDataset]:
    """Inverse of dump_tasks."""
    sections: dict[int, dict[str, tuple[list, list]]] = {}
    classes: dict[int, tuple[int, ...]] = {}
    current = None
    ydim = 1
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = dict(
                    kv.split("=", 1) for kv in line[1:].split()[3:] if "=" in kv
                )
                parts = line[1:].split()
                tid, split = int(parts[1]), parts[2]
                cls = fields.get("classes", "")
                ydim = int(fields.get("ydim", 1))
                classes[tid] = tuple(int(c) for c in cls.split(",") if c)
                current = sections.setdefault(tid, {}).setdefault(split, ([], []))
                continue
            vals = [float(v) for v in line.split()]
            current[0].append(vals[: len(vals) - ydim])
            if task_kind == "classification":
                current[1].append(int(vals[-1]))
            else:
                current[1].append(vals[len(vals) - ydim :])
    tasks = []
    for tid in sorted(sections):
        splits = {}
        for name in ("train", "val", "test"):
            xs, ys = sections[tid][name]
            targets = np.asarray(ys, dtype=np.intp if task_kind == "classification" else np.float64)
            splits[name] = Batch(np.asarray(xs), targets)
        tasks.append(TaskDataset(tid, splits["train"], splits["val"], splits["test"], classes[tid]))
    return tasks
