import itertools
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from bits import lone_plan
from hypothesis import given, settings
from experiment_reference import sweep_init
from hypothesis import strategies as st

from hiercl import experiment, pipeline
from hiercl.cli import _build_parser, _config_from_args, main
from hiercl.config import (_KEYMAP, DatasetConfig, ExperimentConfig,
                           build_experiment_config, parse_config_text)
from hiercl.experiment import make_model_spec, make_tasks, run_baseline_seq, run_experiment
from hiercl.federated import fed_compare_run
from hiercl.learners import LearnerConfig
from hiercl.metrics import CSV_HEADER, read_records
from hiercl.pipeline import PipelineConfig, run_pipeline
from hiercl.tasks import Permutation
from tasks_reference import load_tasks

TINY = DatasetConfig(num_classes=4, classes_per_task=2, dim=4,
                     samples_per_class=10, spread=2.5,
                     val_per_class=6, test_per_class=8)


def _tiny_cfg(**kw):
    base = dict(
        dataset=TINY,
        pipeline=PipelineConfig(
            learner=LearnerConfig(kind="sgd", epochs_per_task=1, batch_size=16),
            group_size=2, levels=2, audit_draws=50),
        seeds=(0, 1), methods=("seq", "hier"), hidden=(8,),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_parse_config_text():
    kv = parse_config_text("# comment\n\n dataset.kind = sine \nrun.eta=0.5\n")
    assert kv == {"dataset.kind": "sine", "run.eta": "0.5"}
    with pytest.raises(ValueError, match="line 3"):
        parse_config_text("a=1\n# ok\nnot a pair\n")


def test_build_experiment_config_conversions():
    cfg = build_experiment_config({
        "dataset.kind": "sine",
        "dataset.num_tasks": "3",
        "learner.kind": "er",
        "run.lambda": "0.25",
        "run.catchup": "4",
        "run.clip": "off",
        "run.seeds": "0, 2, 5",
        "run.perms": "all",
        "run.methods": "seq,hier",
        "run.hidden": "8,4",
    })
    assert cfg.dataset.kind == "sine" and cfg.dataset.num_tasks == 3
    pipe = cfg.pipeline
    assert pipe.learner.kind == "er"
    assert pipe.lam == 0.25 and pipe.n_catch == 4 and pipe.clip is None
    assert cfg.seeds == (0, 2, 5)
    assert cfg.perms == "all"
    assert cfg.methods == ("seq", "hier") and cfg.hidden == (8, 4)
    assert build_experiment_config({"run.perms": "6"}).perms == 6


def test_config_key_set_is_pinned():
    # derived from the dataclass fields; per-run seed fields are not keys
    assert set(_KEYMAP) == {
        "dataset.kind", "dataset.num_tasks", "dataset.num_classes",
        "dataset.classes_per_task", "dataset.dim", "dataset.samples_per_class",
        "dataset.spread", "dataset.val_per_class", "dataset.test_per_class",
        "dataset.samples_per_task", "dataset.noise_std",
        "learner.kind", "learner.learning_rate", "learner.epochs_per_task",
        "learner.batch_size", "learner.momentum", "learner.weight_decay",
        "learner.buffer_capacity", "learner.ewc_strength",
        "run.group_size", "run.levels", "run.lambda", "run.lambda_factor",
        "run.eta", "run.clip", "run.catchup", "run.curvature", "run.perms",
        "run.seeds", "run.perm_sample_seed", "run.methods",
        "run.hidden", "run.prox_mu", "run.audit_draws", "run.out",
    }
    # per-run seeds, the fields behind aliases and four removed options
    for key in ("run.seed", "learner.seed", "run.lam", "run.n_catch",
                "run.eval_policy", "run.fed_aggregate", "learner.grad_clip", "run.sample_cap"):
        with pytest.raises(ValueError, match="unknown config key"):
            build_experiment_config({key: "1"})


_SECTIONS = {"dataset": DatasetConfig, "learner": LearnerConfig,
             "pipeline": PipelineConfig, "run": ExperimentConfig}
_INTS = st.integers(-2**16, 2**16)
_NONE = st.sampled_from(("none", "off", "None"))
_WORDS = ("gaussians", "permuted", "sine", "sgd", "er", "ewc", "diag", "dense", "lowrank:3",
          "lowrank:0", "lowrank5", "all", "results.csv", "")
_METHODS = ("seq", "hier", "fedavg", "fedprox", "central")
# field annotation -> text a config file could hold for it
_TEXT_FOR = {
    "int": _INTS.map(str),
    "float": st.one_of(st.floats().map(repr), _INTS.map(str)),
    "float | None": st.one_of(st.floats().map(repr), _INTS.map(str), _NONE),
    "str": st.sampled_from(_WORDS),
    "tuple[int, ...]": st.lists(_INTS, max_size=4).map(lambda v: ",".join(map(str, v))),
    "tuple[str, ...]": st.lists(st.sampled_from(_METHODS), max_size=4).map(",".join),
    "str | int": st.one_of(st.just("all"), _INTS.map(str)),
}


def _text_for(key):
    section, attr, _ = _KEYMAP[key]
    annotation = {f.name: f.type for f in fields(_SECTIONS[section])}[attr]
    return st.one_of(_TEXT_FOR[annotation], st.text(max_size=8))


def _attr(cfg, section, attr):
    owner = {"dataset": cfg.dataset, "learner": cfg.pipeline.learner,
             "pipeline": cfg.pipeline, "run": cfg}[section]
    return getattr(owner, attr)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(_KEYMAP)), data=st.data())
def test_every_key_builds_the_config_it_names_or_raises_value_error(key, data):
    text = data.draw(_text_for(key), label="text")
    try:
        cfg = build_experiment_config({key: text})
    except ValueError:
        return
    default = ExperimentConfig()
    for other, (section, attr, conv) in _KEYMAP.items():
        got = _attr(cfg, section, attr)
        want = conv(text) if other == key else _attr(default, section, attr)
        assert got == want or (got != got and want != want), other  # NaN matches NaN
    assert cfg.dataset.task_count >= 1


def _outcome(build):
    try:
        return repr(build())
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(sorted(_KEYMAP)), data=st.data())
def test_a_later_set_overrides_the_config_file(tmp_path_factory, key, data):
    # one ASCII line, so the file reads back the same under any locale
    in_file = data.draw(_text_for(key).filter(
        lambda t: t.isascii() and "".join(t.splitlines()) == t))
    on_cli = data.draw(_text_for(key))
    path = tmp_path_factory.getbasetemp() / "override.cfg"
    path.write_text(f"{key}={in_file}\n")
    args = _build_parser().parse_args(["run", "--config", str(path),
                                       "--set", f"{key}={on_cli}"])
    assert (_outcome(lambda: _config_from_args(args))
            == _outcome(lambda: build_experiment_config({key: on_cli.strip()})))


def test_bad_pipeline_values_fail_at_build_time_even_for_seq_only():
    for key, value in (("run.eta", "1.5"), ("run.levels", "0"),
                       ("run.curvature", "kfac"), ("run.audit_draws", "-1")):
        with pytest.raises(ValueError):
            build_experiment_config({"run.methods": "seq", key: value})
    with pytest.raises(ValueError, match="run.levels"):
        build_experiment_config({"run.levels": "two"})


def test_build_experiment_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="run.lamda"):
        build_experiment_config({"run.lamda": "1.0"})


def test_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(kind="images")
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(perms="some")
    with pytest.raises(ValueError, match="unknown methods"):
        ExperimentConfig(methods=("seq", "central"))
    assert DatasetConfig(num_classes=10, classes_per_task=3).task_count == 3
    assert DatasetConfig(kind="sine", num_tasks=7).task_count == 7


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("dataset.kind=gaussians\ndataset.num_classes=4\nrun.eta=0.7\n")
    cfg = build_experiment_config(parse_config_text(path.read_text()))
    assert cfg.dataset.num_classes == 4 and cfg.pipeline.eta == 0.7


def test_make_model_spec():
    cfg = _tiny_cfg()
    spec = make_model_spec(cfg)
    assert spec.layer_widths == (4, 8, 4) and spec.task_kind == "classification"
    sine = _tiny_cfg(dataset=DatasetConfig(kind="sine", num_tasks=3), hidden=(6,))
    spec = make_model_spec(sine)
    assert spec.layer_widths == (1, 6, 1) and spec.task_kind == "regression"


def test_make_tasks_all_kinds():
    assert len(make_tasks(TINY, 0)) == 2
    assert len(make_tasks(DatasetConfig(kind="permuted", num_tasks=3, num_classes=3,
                                        dim=4, samples_per_class=8), 0)) == 3
    sines = make_tasks(DatasetConfig(kind="sine", num_tasks=4, samples_per_task=20), 0)
    assert len(sines) == 4 and sines[0].train.targets.shape[1] == 1


def test_run_baseline_seq_shape_and_determinism():
    cfg = _tiny_cfg()
    tasks = make_tasks(cfg.dataset, 0)
    spec = make_model_spec(cfg)
    init = sweep_init(spec, 9)
    perm = Permutation((1, 0))
    m1, m2 = (run_baseline_seq(tasks, perm, cfg.pipeline.learner, spec, 3, init, lone_plan(perm))
              for _ in range(2))
    assert m1.values.shape == (2, 2)
    assert np.array_equal(m1.values, m2.values)
    # row i evaluates every task in arrival order, trained or not
    assert 0.0 <= m1.values.min() and m1.values.max() <= 1.0


_RUNNERS = {
    "seq": lambda tasks, perm, cfg, spec, init: run_baseline_seq(
        tasks, perm, cfg.pipeline.learner, spec, 0, init, lone_plan(perm)),
    "fed": lambda tasks, perm, cfg, spec, init: fed_compare_run(
        tasks, perm, 0.0, cfg.pipeline.learner, spec, 0, init, lone_plan(perm)),
    "hier": lambda tasks, perm, cfg, spec, init: run_pipeline(
        tasks, perm, cfg.pipeline, spec, init, 0, lone_plan(perm, cfg.pipeline.group_size)),
}


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
@pytest.mark.parametrize("order", [(0, 1), (0, 1, 3)], ids=["short", "past_end"])
def test_every_runner_rejects_an_order_that_is_not_the_whole_stream(runner, order):
    # a short order, and one with an id past the end of the 3-task stream
    cfg = _tiny_cfg(dataset=DatasetConfig(kind="permuted", num_tasks=3, num_classes=3,
                                          dim=4, samples_per_class=8))
    tasks, spec = make_tasks(cfg.dataset, 0), make_model_spec(cfg)
    with pytest.raises(ValueError, match="must cover every task of the 3-task stream"):
        _RUNNERS[runner](tasks, Permutation(order), cfg, spec, sweep_init(spec))


def test_run_experiment_sweep(tmp_path):
    csv_path = str(tmp_path / "out.csv")
    cfg = _tiny_cfg()
    records, summary = run_experiment(cfg, csv_path)
    # 2 seeds x 2 permutations of 2 tasks x 2 methods
    assert len(records) == 8
    assert {r.method for r in records} == {"sgd", "sgd+hier"}
    assert {r.permutation for r in records} == {"0-1", "1-0"}
    assert set(summary) == {"sgd", "sgd+hier"}
    assert summary["sgd"]["runs"] == 4

    back = read_records(csv_path)
    assert [
        (r.method, r.seed, r.permutation, r.mean_accuracy, r.avg_forgetting)
        for r in back
    ] == [
        (r.method, r.seed, r.permutation, r.mean_accuracy, r.avg_forgetting)
        for r in records
    ]


def test_run_experiment_rerun_bitwise_except_wall_time(tmp_path):
    cfg = _tiny_cfg(seeds=(0,))
    a, _ = run_experiment(cfg, str(tmp_path / "a.csv"))
    b, _ = run_experiment(cfg, str(tmp_path / "b.csv"))
    for ra, rb in zip(a, b):
        assert (ra.method, ra.seed, ra.permutation) == (rb.method, rb.seed, rb.permutation)
        assert ra.mean_accuracy == rb.mean_accuracy
        assert ra.avg_forgetting == rb.avg_forgetting


def test_run_experiment_federated_methods(tmp_path):
    cfg = _tiny_cfg(seeds=(0,), methods=("fedavg", "fedprox"), prox_mu=0.0)
    records, _ = run_experiment(cfg, str(tmp_path / "fed.csv"))
    assert {r.method for r in records} == {"fedavg", "fedprox"}
    by = {}
    for r in records:
        by.setdefault(r.method, {})[r.permutation] = r.mean_accuracy
    # mu=0 fedprox matches fedavg exactly, permutation by permutation
    assert by["fedavg"] == by["fedprox"]


def test_run_experiment_perm_budget(tmp_path):
    cfg = _tiny_cfg(seeds=(0,), methods=("seq",), perms=1)
    records, _ = run_experiment(cfg, str(tmp_path / "one.csv"))
    assert len(records) == 1


CFG_TEXT = """\
dataset.kind=gaussians
dataset.num_classes=4
dataset.classes_per_task=2
dataset.dim=4
dataset.samples_per_class=10
dataset.val_per_class=6
dataset.test_per_class=8
learner.kind=sgd
learner.epochs_per_task=1
run.group_size=2
run.levels=2
run.seeds=0
run.methods=seq,hier
run.hidden=8
run.audit_draws=50
"""


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_and_set_flags_build():
    # a key that is removed or renamed cannot linger in the docs
    text = README.read_text()
    after = text.split("\nExample:\n", 1)[1].lstrip("\n").splitlines()
    example = parse_config_text("\n".join(
        itertools.takewhile(lambda line: line.startswith("    "), after)))
    assert len(example) >= 10 and "run.out" in example
    build_experiment_config(example)
    sets = re.findall(r"--set ([a-z_]+\.[a-z_]+=\S*)", text)
    assert len(sets) >= 3
    for item in sets:
        key, _, value = item.partition("=")
        build_experiment_config({key: value})
    named = set(re.findall(r"`((?:dataset|learner|run)\.[a-z_]+)`", text))
    assert named and named <= set(_KEYMAP), named - set(_KEYMAP)


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CFG_TEXT)
    out_csv = tmp_path / "res.csv"
    rc = main(["run", "--config", str(cfg_path), "--set", f"run.out={out_csv}"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "wrote 4 records" in captured.out
    assert out_csv.exists() and len(read_records(str(out_csv))) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "res.csv"]

    rc = main(["report", str(out_csv)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "sgd+hier" in captured.out and "perm_std" in captured.out


_HEADER = ",".join(CSV_HEADER) + "\n"


def test_cli_report_prints_each_hier_method_against_its_base(tmp_path, capsys):
    # er stds are 0.125 in both seeds; er+hier's are 0.0625 and 0.125, so
    # its std is lower in seed 0 only. Means are 0.5 and 0.46875.
    rows = [("er", 0, 0.5), ("er", 0, 0.75), ("er", 1, 0.25), ("er", 1, 0.5),
            ("er+hier", 0, 0.5), ("er+hier", 0, 0.625),
            ("er+hier", 1, 0.25), ("er+hier", 1, 0.5),
            ("ewc+hier", 0, 0.5), ("sgd", 0, 0.5)]
    path = tmp_path / "res.csv"
    path.write_text(_HEADER + "".join(
        f"{m},{seed},0-1,{acc},{0.0625 if m.endswith('+hier') else 0.25},0.1\n"
        for m, seed, acc in rows))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == ("er+hier vs er: mean accuracy -6.2%, perm std -25.0% "
                       "(lower in 1/2 seeds), forgetting 0.2500 -> 0.0625")
    assert not any(" vs " in line for line in out[:-1])  # no base ewc; sgd has no hier
    # one order per seed: the base std is 0, so its relative change is undefined
    path.write_text(_HEADER + "er,0,0-1,0.5,0.25,0.1\ner+hier,0,0-1,0.5,0.25,0.1\n")
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "er+hier vs er: mean accuracy +0.0%, perm std n/a (lower in 0/1 seeds), "
        "forgetting 0.2500 -> 0.2500")


@pytest.mark.parametrize("text, line", [
    ("", 1),
    (_HEADER + "er,0,0-1-2\n", 2),
    (_HEADER + "er,0,0-1-2,0.5,0.1,0.2\ner,x,0-1-2,0.5,0.1,0.2\n", 3),
    (_HEADER + "er,0,0-1-2,nan,0.1,0.2\n", 2),
    (_HEADER + "er,0,0-1-2,0.5,0.1,0.2\ner,0,1-0-2,0.5,inf,0.2\n", 3),
    (_HEADER + "er,0,0-1-2,0.5,0.1,-inf\n", 2),
    (_HEADER + "er,0,0-1-2,1.5,0.1,0.2\n", 2),
    (_HEADER + "er,0,0-1-2,-0.25,0.1,0.2\n", 2),
], ids=["empty", "short_row", "bad_seed", "nan_accuracy", "inf_forgetting", "inf_wall_time",
        "accuracy_above_1", "accuracy_below_0"])
def test_cli_report_on_a_bad_csv_is_a_clean_error(tmp_path, capsys, text, line):
    path = tmp_path / "res.csv"
    path.write_text(text)
    rc = main(["report", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err.startswith(f"error: {path}: line {line}: ")
    assert captured.out == ""


def test_cli_report_on_a_csv_without_records_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "res.csv"
    path.write_text(_HEADER)
    rc = main(["report", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == f"error: {path}: no records\n" and captured.out == ""


def test_cli_run_flag_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CFG_TEXT)
    out_csv = tmp_path / "res.csv"
    rc = main(["run", "--config", str(cfg_path), "--set", "run.perms=1",
               "--set", "run.seeds=3", "--set", f"run.out={out_csv}"])
    assert rc == 0
    capsys.readouterr()
    recs = read_records(str(out_csv))
    assert len(recs) == 2 and all(r.seed == 3 for r in recs)


def test_cli_set_is_applied_after_config(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("dataset.kind=gaussians\ndataset.num_tasks=3\n")
    out = tmp_path / "tasks.txt"
    # --set wins whatever its position; among repeats the last one wins
    rc = main(["gen", "--set", "dataset.kind=permuted", "--set", "dataset.kind=sine",
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    tasks = load_tasks(str(out))
    assert len(tasks) == 3 and tasks[0].train.inputs.shape[1] == 1  # sine: 1-d inputs


def test_cli_malformed_set_is_a_clean_error(tmp_path, capsys):
    for item in ("run.perms", "=1"):
        rc = main(["run", "--set", item, "--set", f"run.out={tmp_path / 'x.csv'}"])
        captured = capsys.readouterr()
        assert rc == 2 and "KEY=VALUE" in captured.err and repr(item) in captured.err
    assert not (tmp_path / "x.csv").exists()


# each setting's error names its key and the value it got
_BAD_VALUES = [
    "dataset.kind=images",
    "run.lambda=0",
    "run.lambda_factor=0",
    "run.lambda=nan",
    "run.audit_draws=-1",
    "run.group_size=9",  # the default dataset has 5 tasks
    "run.group_size=0",
    "run.eta=0",
    "run.eta=nan",
    "run.prox_mu=-1",
    "run.prox_mu=inf",  # these three used to fail at the first nan loss
    "learner.weight_decay=inf",
    "learner.ewc_strength=inf",
    "learner.learning_rate=0",
    "learner.momentum=1",
    "learner.epochs_per_task=0",
    "learner.batch_size=0",
    "run.clip=0",  # would zero every consolidation step
    "run.clip=-1",  # would reverse every consolidation step
    "run.methods=",
    "run.out=",  # used to train the whole sweep and write no CSV
    "run.seeds=-1",
    "run.levels=0",
    "run.catchup=-1",
    "run.curvature=lowrank:abc",
    "run.curvature=lowrank5",  # not rank 5, nor the default 10
    "run.curvature=dense",  # runs estimate only the empirical Fisher
    "run.hidden=0",
    "run.perm_sample_seed=-1",
]


def test_cli_rejects_bad_learner_value_when_building_the_config(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    for setting in _BAD_VALUES:
        key, _, value = setting.partition("=")
        # the setting comes last, so an empty run.out is not overridden
        rc = main(["run", "--set", "run.perms=1", "--set", "run.seeds=0",
                   "--set", f"run.out={out_csv}", "--set", setting])
        captured = capsys.readouterr()
        assert rc == 2 and captured.err.startswith("error:") and not captured.out, setting
        assert key in captured.err and value in captured.err, setting
        assert not out_csv.exists(), setting
        with pytest.raises(ValueError, match=re.escape(key)) as info:
            build_experiment_config({key: value})
        assert value in str(info.value), setting


@pytest.mark.parametrize("settings, names", [
    # lambda_factor**399 overflows a float on its own
    (("run.lambda_factor=10", "run.levels=400"),
     ("run.lambda=", "run.lambda_factor=", "run.levels=")),
    # the level-1 lambda 1e300 * 1e10 is infinite
    (("run.lambda=1e300", "run.lambda_factor=1e10", "run.levels=3"),
     ("run.lambda=", "run.lambda_factor=", "run.levels=")),
    # the level-2 lambda 1e-300 * 1e-300**2 underflows to zero
    (("run.lambda=1e-300", "run.lambda_factor=1e-300", "run.levels=3"),
     ("run.lambda=", "run.lambda_factor=", "run.levels=")),
    (("run.perms=0",), ("run.perms",)),
    (("run.perms=-2",), ("run.perms",)),
    # 11 tasks in groups of 4: the last group of 7 has 5040 orderings, which
    # failed only in the first hier cell, after the seq cells had trained
    (("dataset.num_classes=22", "run.group_size=4"), ("run.group_size=4", "11 tasks")),
])
def test_bad_value_combinations_fail_at_build_time_naming_their_keys(
        tmp_path, capsys, settings, names):
    out_csv = tmp_path / "x.csv"
    sets = [a for s in settings for a in ("--set", s)]
    rc = main(["run", "--set", "run.seeds=0", *sets, "--set", f"run.out={out_csv}"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and "Traceback" not in err
    assert all(name in err for name in names), err
    assert not out_csv.exists()
    with pytest.raises(ValueError) as info:
        build_experiment_config(dict(s.split("=", 1) for s in settings))
    assert all(name in str(info.value) for name in names)


def test_an_over_cap_last_group_is_refused_only_when_hier_runs():
    settings = {"dataset.num_classes": "22", "run.group_size": "4"}
    for methods in ("seq", "fedavg,fedprox"):  # neither explores group orderings
        build_experiment_config({**settings, "run.methods": methods})
    with pytest.raises(ValueError, match="run.group_size=4 with 11 tasks"):
        build_experiment_config({**settings, "run.methods": "hier"})


@pytest.mark.parametrize("setting, shown", [("run.methods=seq,hier,seq", "'seq'"),
                                             ("run.seeds=3,1,3", "3")],
                         ids=["run.methods", "run.seeds"])
def test_a_repeated_list_entry_fails_at_build_time_naming_key_and_entry(
        tmp_path, capsys, setting, shown):
    # a repeated entry would run, and write, every one of its cells twice
    key, _, value = setting.partition("=")
    with pytest.raises(ValueError) as info:
        build_experiment_config({key: value})
    assert str(info.value).startswith(f"{key} lists {shown} more than once")
    out_csv = tmp_path / "x.csv"
    rc = main(["run", "--set", "run.perms=1", "--set", setting, "--set", f"run.out={out_csv}"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and key in err and "Traceback" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize("setting", [
    "run.hidden=0", "dataset.samples_per_class=0", "dataset.classes_per_task=0",
    "learner.buffer_capacity=0",
])
def test_failed_run_leaves_an_existing_out_file_untouched(tmp_path, capsys, setting):
    out_csv = tmp_path / "x.csv"
    out_csv.write_bytes(b"method,seed\nkept,0\n")
    rc = main(["run", "--set", "run.perms=1", "--set", "run.seeds=0", "--set", setting,
               "--set", f"run.out={out_csv}"])
    assert rc == 2 and "error:" in capsys.readouterr().err
    assert out_csv.read_bytes() == b"method,seed\nkept,0\n"


def test_a_run_that_diverges_after_its_first_record_leaves_the_out_file_untouched(
        tmp_path, capsys):
    # the fedavg rows are written before the seq trie diverges
    out_csv = tmp_path / "x.csv"
    out_csv.write_bytes(b"method,seed\nkept,0\n")
    with pytest.warns(RuntimeWarning, match="overflow"):  # the step that diverges
        rc = main(["run", "--set", "run.perms=2", "--set", "run.seeds=0",
                   "--set", "run.methods=fedavg,seq", "--set", "learner.learning_rate=6e10",
                   "--set", f"run.out={out_csv}"])
    assert rc == 2 and "training diverged" in capsys.readouterr().err
    assert out_csv.read_bytes() == b"method,seed\nkept,0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_a_run_out_that_names_a_directory_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    # it used to run the whole sweep, then fail to move its rows onto the
    # directory and leave <out>.<pid>.tmp beside it
    cells = []
    monkeypatch.setattr(experiment, "_run_method", lambda *args: cells.append(args))
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    rc = main(["run", "--set", "run.perms=1", "--set", "run.seeds=0",
               "--set", f"run.out={out_dir}"])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out and cells == []
    assert captured.err == f"error: {out_dir}: is a directory, not a results CSV\n"
    assert [p.name for p in tmp_path.iterdir()] == ["results"] and not any(out_dir.iterdir())


def test_a_failed_cell_names_its_seed_method_and_order(tmp_path, monkeypatch):
    # a nonfinite gradient fails the first consolidation of the first hier cell
    real = pipeline.estimate_gradient
    monkeypatch.setattr(pipeline, "estimate_gradient",
                        lambda params, pool, spec: real(params, pool, spec) * np.nan)
    cfg = build_experiment_config({
        "dataset.num_classes": "4", "dataset.classes_per_task": "2", "run.group_size": "1",
        "run.hidden": "3", "run.perms": "3", "run.seeds": "0"})
    out_csv = tmp_path / "x.csv"
    out_csv.write_bytes(b"method,seed\nkept,0\n")
    with pytest.raises(ValueError, match=r"^seed 0: sgd\+hier: order 0-1: group 1 \(tasks 1\): "
                                         r"level 0: nonfinite inputs to regularized_solve"):
        run_experiment(cfg, str(out_csv))
    assert out_csv.read_bytes() == b"method,seed\nkept,0\n"


@pytest.mark.parametrize("field, value", [
    *((field, value) for field in ("num_tasks", "num_classes", "classes_per_task", "dim",
                                   "samples_per_class", "val_per_class", "test_per_class",
                                   "samples_per_task") for value in (0, -1)),
    *((field, value) for field in ("spread", "noise_std")
      for value in (-1.0, float("nan"), float("inf"))),
])
def test_bad_dataset_values_fail_at_build_time_naming_their_key(field, value):
    # a count of 0 used to fall back to a default (val_per_class, test_per_class)
    # or fail deep in numpy, a nan spread only once a loss went nan, and a
    # negative sine noise_std ran as 0
    with pytest.raises(ValueError, match=f"^dataset.{field} must be "):
        build_experiment_config({f"dataset.{field}": str(value)})


def test_cli_config_and_set_routes_write_identical_rows(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CFG_TEXT)
    via_config, via_set = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg_path), "--set", f"run.out={via_config}"]) == 0
    sets = [a for line in CFG_TEXT.splitlines() for a in ("--set", line)]
    assert main(["run", *sets, "--set", f"run.out={via_set}"]) == 0
    capsys.readouterr()

    def rows(path):  # wall_time_seconds is the last column
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert len(rows(via_config)) == 5 and rows(via_config) == rows(via_set)


def test_cli_missing_config_is_a_clean_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err and "nope.cfg" in captured.err


def test_cli_bad_config_key_reported(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("run.wat=1\n")
    rc = main(["run", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 2 and "run.wat" in captured.err


def test_cli_gen(tmp_path, capsys):
    out = tmp_path / "tasks.txt"
    rc = main(["gen", "--set", "dataset.kind=sine", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0 and "wrote" in captured.out
    tasks = load_tasks(str(out))
    assert len(tasks) == 5  # default sine stream length


def test_cli_gen_rejects_a_negative_seed_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "tasks.txt"
    rc = main(["gen", "--seed", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert captured.err == "error: --seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_cli_rejects_the_removed_audit_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["audit", "--seed", "0"])
    assert info.value.code == 2 and "invalid choice: 'audit'" in capsys.readouterr().err
