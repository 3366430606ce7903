"""hiercl: grouped continual learning with second-order consolidation.

A small numpy implementation of a hierarchical consolidation scheme:
tasks arrive in groups, every intra-group ordering is trained and the
best one is folded into a stack of progressively slower models via a
closed-form curvature-regularized update.
"""

from .config import DatasetConfig, ExperimentConfig
from .consolidation import (HierarchyState, catch_up, init_hierarchy,
                            multi_level_consolidate, taylor_consolidate)
from .curvature import (DiagFisher, LowRankFisher, estimate_diag_curvature, estimate_gradient,
                        estimate_lowrank_curvature, regularized_solve)
from .federated import fed_compare_run, fedavg_aggregate
from .learners import LearnerConfig, LearnerState, ReplayBuffer, settle, train_seq
from .metrics import (AccuracyMatrix, MetricsRecord, avg_forgetting, mean_accuracy,
                      read_records, std_across_permutations, summarize)
from .model import Batch, ModelSpec, accuracy_eval, init_params, loss_and_grad
from .pipeline import (GroupExplorationResult, PipelineConfig, RunResult,
                       explore_group, run_pipeline, selection_audit)
from .tasks import (Permutation, TaskDataset, TaskGroup, enumerate_intra_group_perms,
                    gen_permuted_features, gen_sine_tasks, gen_split_gaussians,
                    partition_into_groups, sample_full_permutations, task_accuracies)

__version__ = "0.1.0"
