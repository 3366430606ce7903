"""Experiment configuration: a flat key=value text format with dotted
section prefixes, plus typed defaults. The keys are derived from the
dataclass fields: dataset.* from DatasetConfig, learner.* from
LearnerConfig, and run.* from PipelineConfig and ExperimentConfig
(`run.lambda` sets `lam`, `run.catchup` sets `n_catch`).

Example::

    dataset.kind=gaussians
    dataset.num_classes=10
    learner.kind=er
    run.group_size=2
    run.seeds=0,1,2,3,4
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .federated import FedConfig
from .learners import LearnerConfig
from .pipeline import PipelineConfig
from .tasks import MAX_GROUP_SIZE, partition_into_groups

DATASET_KINDS = ("gaussians", "permuted", "sine")


@dataclass
class DatasetConfig:
    kind: str = "gaussians"
    num_tasks: int = 5              # permuted / sine streams
    num_classes: int = 10           # gaussians (grouped classes_per_task at a time)
    classes_per_task: int = 2
    dim: int = 8
    samples_per_class: int = 40
    spread: float = 2.0
    val_per_class: int = 20
    test_per_class: int = 40
    samples_per_task: int = 100     # sine
    noise_std: float = 0.0          # sine

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        for name in ("num_tasks", "num_classes", "classes_per_task", "dim", "samples_per_class",
                     "val_per_class", "test_per_class", "samples_per_task"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"dataset.{name} must be at least 1, got {value}")
        for name in ("spread", "noise_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"dataset.{name} must be nonnegative and finite, got {value}")
        if self.task_count < 1:
            raise ValueError(f"dataset.num_classes={self.num_classes} is fewer than "
                             f"dataset.classes_per_task={self.classes_per_task}: no task")

    @property
    def task_count(self) -> int:
        if self.kind == "gaussians":
            return self.num_classes // self.classes_per_task
        return self.num_tasks


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    perms: str | int = "all"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    perm_sample_seed: int = 0
    methods: tuple[str, ...] = ("seq", "hier")
    hidden: tuple[int, ...] = (16,)
    prox_mu: float = 0.1
    fed_aggregate: str = "running"
    out: str = "results.csv"

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be one or more nonnegative ints, got {self.seeds}")
        if self.perm_sample_seed < 0:
            raise ValueError(f"run.perm_sample_seed must be nonnegative: {self.perm_sample_seed}")
        if min(self.hidden, default=1) < 1:
            raise ValueError(f"run.hidden widths must be positive, got {self.hidden}")
        if self.perms != "all" and (isinstance(self.perms, str) or self.perms < 1):
            raise ValueError(f"run.perms must be 'all' or a positive integer, got {self.perms!r}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        for key, values in (("run.seeds", self.seeds), ("run.methods", self.methods)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{key} lists {repeated[0]!r} more than once; "
                                 f"each entry would run its cells again")
        known = {"seq", "hier", "fedavg", "fedprox"}
        bad = set(self.methods) - known
        if bad:
            raise ValueError(f"unknown methods {sorted(bad)}; pick from {sorted(known)}")
        FedConfig("fedprox", self.prox_mu, self.fed_aggregate)  # checks both values
        if self.pipeline.group_size > self.dataset.task_count:
            raise ValueError(f"group_size {self.pipeline.group_size} exceeds task_count "
                             f"{self.dataset.task_count}")
        if "hier" in self.methods:  # the last group absorbs the remainder
            k, n = self.pipeline.group_size, self.dataset.task_count
            last = partition_into_groups(n, k)[-1].size
            if last > MAX_GROUP_SIZE:
                raise ValueError(f"run.group_size={k} with {n} tasks leaves a last group of "
                                 f"{last}, whose {math.factorial(last)} orderings hier would "
                                 f"explore; the cap is {MAX_GROUP_SIZE} tasks a group")


def _opt(conv):
    return lambda s: None if s.lower() in ("none", "off") else conv(s)


# field annotation -> converter from the config-file string
_CONVERTERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": _opt(float),
    "int | None": _opt(int),
    "tuple[int, ...]": lambda s: tuple(int(v) for v in s.split(",") if v.strip()),
    "tuple[str, ...]": lambda s: tuple(v.strip() for v in s.split(",") if v.strip()),
    "str | int": lambda s: "all" if s.strip().lower() == "all" else int(s),
}
_NOT_KEYS = {"dataset", "learner", "pipeline"}  # nested sections
_ALIASES = {"lam": "lambda", "n_catch": "catchup"}


def _keys(prefix: str, cls, section: str) -> dict:
    return {f"{prefix}.{_ALIASES.get(f.name, f.name)}": (section, f.name, _CONVERTERS[f.type])
            for f in fields(cls) if f.name not in _NOT_KEYS}


# key -> (section, attribute, converter)
_KEYMAP = {
    **_keys("dataset", DatasetConfig, "dataset"),
    **_keys("learner", LearnerConfig, "learner"),
    **_keys("run", PipelineConfig, "pipeline"),
    **_keys("run", ExperimentConfig, "run"),
}


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_experiment_config(kv: dict[str, str]) -> ExperimentConfig:
    sections: dict[str, dict] = {"dataset": {}, "learner": {}, "pipeline": {}, "run": {}}
    for key, value in kv.items():
        if key not in _KEYMAP:
            raise ValueError(f"unknown config key {key!r}")
        section, attr, conv = _KEYMAP[key]
        try:
            sections[section][attr] = conv(value)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None
    pipeline = PipelineConfig(learner=LearnerConfig(**sections["learner"]),
                              **sections["pipeline"])
    return ExperimentConfig(dataset=DatasetConfig(**sections["dataset"]),
                            pipeline=pipeline, **sections["run"])
