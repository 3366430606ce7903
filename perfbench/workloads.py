"""Workload definitions for the hiercl benchmark.

Each workload is a `hiercl run` config in the program's own key=value
format, with the data seed and the arrival-order sample seed filled in
from the benchmark seed. One pass of a workload is one `run_experiment`
call over all of its cells; a cell is one (seed, arrival order, method)
run.

This module imports nothing from hiercl, so a set-up probe can time the
package import itself.
"""

from __future__ import annotations

from dataclasses import dataclass

# Functions the tracer wraps, by metric name. Every name is expected to
# show calls on every workload unless the workload lists it in
# `expect_zero`.
TRACED = (
    "model.loss_and_grad",
    "model.per_sample_grads",
    "model.accuracy_eval",
    "learners.train_seq",
    "learners.train_on_task",
    "learners.replay_sample",
    "learners.replay_insert_many",
    "learners.replay_clone",
    "learners.replay_as_batch",
    "curvature.estimate_gradient",
    "curvature.estimate_diag_curvature",
    "curvature.regularized_solve",
    "consolidation.multi_level_consolidate",
    "consolidation.catch_up",
    "pipeline.run_pipeline",
    "pipeline.explore_group",
    "pipeline.selection_audit",
    "federated.fed_compare_run",
    "federated.fedavg_aggregate",
    "experiment.run_baseline_seq",
    "tasks.make_tasks",
)

# Bindings made by `from .x import y` (and methods patched on a class)
# that a tracer patching only the defining module would miss. Each must
# show calls wherever its function is expected to.
REBOUND_SITES = {
    "hiercl.pipeline.train_seq": "learners.train_seq",
    "hiercl.pipeline.estimate_gradient": "curvature.estimate_gradient",
    "hiercl.pipeline.estimate_diag_curvature": "curvature.estimate_diag_curvature",
    "hiercl.experiment.run_pipeline": "pipeline.run_pipeline",
    "hiercl.experiment.fed_compare_run": "federated.fed_compare_run",
    "hiercl.federated.train_on_task": "learners.train_on_task",
    "hiercl.learners.ReplayBuffer.sample": "learners.replay_sample",
    "hiercl.learners.ReplayBuffer.insert_many": "learners.replay_insert_many",
    "hiercl.learners.ReplayBuffer.clone": "learners.replay_clone",
    "hiercl.learners.ReplayBuffer.as_batch": "learners.replay_as_batch",
}

_FED_AND_SEQ = frozenset({
    "federated.fed_compare_run",
    "federated.fedavg_aggregate",
    "experiment.run_baseline_seq",
    "hiercl.federated.train_on_task",
})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str                 # key=value text without run.seeds / perm_sample_seed
    expect_zero: frozenset      # traced names and bindings predicted to have no calls
    warmup_perms: int           # arrival orders in the untimed warm-up pass
    # scale cell timings by the reference kernel (hostspeed.py); only where
    # the cells do the kind of work the kernel does, or the scaling adds noise
    host_scaled: bool = True
    equal_methods: tuple = ()   # method tags whose CSV rows must match bitwise
    moves: tuple = ()           # (layer metrics, end-to-end metric they should move)
    not_moved: str = ""

    def config_text(self, seed: int, warmup: bool = False) -> str:
        text = self.config + f"run.seeds={seed}\nrun.perm_sample_seed={seed}\n"
        if warmup:
            text += f"run.perms={self.warmup_perms}\n"
        return text


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-er-k2",
        why="The acceptance sweep (tier-1 and README): one data seed x all 120 "
            "arrival orders x seq/hier/fedavg/fedprox, replay learner, k=2.",
        config="""\
dataset.kind=gaussians
dataset.num_classes=10
dataset.classes_per_task=2
dataset.dim=8
dataset.samples_per_class=40
dataset.spread=2.0
dataset.val_per_class=20
dataset.test_per_class=40
learner.kind=er
learner.learning_rate=0.1
learner.epochs_per_task=2
learner.batch_size=32
learner.buffer_capacity=50
run.group_size=2
run.levels=2
run.lambda=0.3
run.lambda_factor=0.5
run.eta=1.0
run.clip=1.0
run.catchup=2
run.curvature=diag
run.perms=all
run.methods=seq,hier,fedavg,fedprox
run.hidden=16
run.prox_mu=0.0
run.audit_draws=1000
""",
        expect_zero=frozenset(),
        warmup_perms=8,
        equal_methods=(("fedavg", "fedprox"),),
        moves=(
            ("learners.replay_sample.*", "seq/hier cell p50, sweep_s"),
            ("learners.train_on_task + model.loss_and_grad", "every cell, sweep_s"),
            ("curvature.* (about 10% of the sweep)", "hier_cell_s_p50"),
            ("federated.*", "fed cell p50 only"),
            ("tasks.make_tasks", "setup_s"),
        ),
        not_moved="pipeline.trainings_over_trie_min is only 22/19 here (groups of "
                  "2 and 3), so a prefix trie moves hier cells little",
    ),
    Workload(
        name="explore-ewc-k4",
        why="The k!*k exploration: 8 tasks in groups of 4, EWC, hier only, "
            "16 sampled arrival orders; 192 task trainings per cell.",
        config="""\
dataset.kind=gaussians
dataset.num_classes=16
dataset.classes_per_task=2
dataset.dim=8
dataset.samples_per_class=40
dataset.spread=2.0
dataset.val_per_class=20
dataset.test_per_class=40
learner.kind=ewc
learner.learning_rate=0.1
learner.epochs_per_task=2
learner.batch_size=32
learner.buffer_capacity=50
run.group_size=4
run.levels=2
run.lambda=0.3
run.lambda_factor=0.5
run.eta=1.0
run.clip=1.0
run.catchup=2
run.curvature=diag
run.perms=16
run.methods=hier
run.hidden=16
run.audit_draws=1000
""",
        expect_zero=frozenset({"learners.replay_sample"}) | _FED_AND_SEQ,
        warmup_perms=2,
        moves=(
            ("learners.train_on_task + model.loss_and_grad (EWC penalty inside)",
             "hier_cell_s_p50, sweep_s"),
            ("learners.replay_insert_many / replay_clone", "hier_cell_s_p50"),
            ("pipeline.trainings_over_trie_min (192/128 = 1.5)", "hier_cell_s_p50"),
        ),
        not_moved="learners.replay_sample (0 calls) and federated.* (not run)",
    ),
    Workload(
        name="consolidate-wide-k1",
        why="Curvature and consolidation at p=26,122: 10 one-class tasks, "
            "k=1, L=3, 4 catch-up passes, buffer 200, hier only, 2 sampled orders.",
        config="""\
dataset.kind=gaussians
dataset.num_classes=10
dataset.classes_per_task=1
dataset.dim=64
dataset.samples_per_class=40
dataset.spread=2.0
dataset.val_per_class=20
dataset.test_per_class=40
learner.kind=sgd
learner.learning_rate=0.1
learner.epochs_per_task=1
learner.batch_size=32
learner.buffer_capacity=200
run.group_size=1
run.levels=3
run.lambda=0.3
run.lambda_factor=0.5
run.eta=1.0
run.clip=1.0
run.catchup=4
run.curvature=diag
run.perms=2
run.methods=hier
run.hidden=128,128
run.audit_draws=1000
""",
        expect_zero=frozenset({"learners.replay_sample"}) | _FED_AND_SEQ,
        warmup_perms=1,
        # its cells stream arrays of tens of MB, whose speed does not follow
        # the small-network reference: in one set of six seeds, scaling
        # widened its hier_cell_s_p50 spread from 6% to 14%, while on
        # explore-ewc-k4 it narrowed it from 21% to 6%
        host_scaled=False,
        moves=(
            ("curvature.*, model.per_sample_grads.bytes_computed, "
             "curvature.pool_builds_per_consolidation", "hier_cell_s_p50, peak_rss_mb"),
        ),
        not_moved="learners.train_on_task (<5%), pipeline.trainings_over_trie_min "
                  "(1.0 at k=1), learners.replay_sample and federated.* (not run)",
    ),
)}
