from contextlib import closing

import numpy as np
import pytest

from hiercl.metrics import (CSV_HEADER, AccuracyMatrix, CsvSink, MetricsRecord,
                            avg_forgetting, format_summary, mean_accuracy,
                            read_records, std_across_permutations, summarize)


def test_matrix_validation():
    AccuracyMatrix(np.eye(3))
    with pytest.raises(ValueError):
        AccuracyMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        AccuracyMatrix(np.ones((3,)))
    with pytest.raises(ValueError):
        AccuracyMatrix(np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        AccuracyMatrix(np.full((2, 2), -0.1))
    assert AccuracyMatrix(np.eye(4)).values.shape == (4, 4)


def test_matrix_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            AccuracyMatrix([[bad, 0.5], [0.5, 0.5]])


def test_mean_accuracy_hand_values():
    m = AccuracyMatrix(np.array([
        [0.5, 0.0, 0.0],
        [0.6, 0.7, 0.0],
        [0.8, 0.9, 1.0],
    ]))
    assert mean_accuracy(m) == pytest.approx(0.9)
    m2 = AccuracyMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert mean_accuracy(m2) == pytest.approx(0.5)


def test_avg_forgetting_hand_values():
    # peaks over pre-final stages: task0 -> 0.9, task1 -> 0.8;
    # final row gives 0.7 and 0.8 -> mean(0.2, 0.0) = 0.1
    m = AccuracyMatrix(np.array([
        [0.9, 0.1, 0.0],
        [0.6, 0.8, 0.2],
        [0.7, 0.8, 0.95],
    ]))
    assert avg_forgetting(m) == pytest.approx(0.1)


def test_avg_forgetting_ignores_last_task_column():
    base = np.array([
        [0.9, 0.1, 0.3],
        [0.6, 0.8, 0.4],
        [0.7, 0.8, 0.95],
    ])
    other = base.copy()
    other[:, -1] = [0.0, 0.5, 0.1]
    f0 = avg_forgetting(AccuracyMatrix(base))
    f1 = avg_forgetting(AccuracyMatrix(other))
    assert f0 == f1


def test_avg_forgetting_small_matrices():
    assert avg_forgetting(AccuracyMatrix(np.array([[0.4]]))) == 0.0
    # two tasks: single peak is A[0,0]
    m = AccuracyMatrix(np.array([[0.9, 0.0], [0.5, 1.0]]))
    assert avg_forgetting(m) == pytest.approx(0.4)


def test_avg_forgetting_can_be_negative():
    # final accuracy above every earlier stage (backward transfer)
    m = AccuracyMatrix(np.array([[0.2, 0.0], [0.6, 1.0]]))
    assert avg_forgetting(m) == pytest.approx(-0.4)


def _rec(acc, method="m", seed=0, perm="0,1"):
    return MetricsRecord(method, seed, perm, acc, 0.0, 0.0)


def test_std_across_permutations_hand_values():
    assert std_across_permutations([_rec(0.0), _rec(2.0)]) == pytest.approx(1.0)
    recs = [_rec(v) for v in (1.0, 2.0, 3.0, 4.0)]
    assert std_across_permutations(recs) == pytest.approx(np.sqrt(1.25))
    assert std_across_permutations([_rec(0.7)] * 5) == 0.0
    with pytest.raises(ValueError):
        std_across_permutations([])


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "runs.csv")
    recs = [
        MetricsRecord("er", 0, "0,1,2", 0.8125, 0.0625, 1.5),
        MetricsRecord("hier", 3, "2,1,0", 1 / 3, -0.125, 0.03125),
    ]
    with closing(CsvSink(path)) as sink:
        for rec in recs:
            sink.write(rec)
    back = read_records(path)
    assert back == recs
    # repr round-trips doubles exactly, including the awkward 1/3
    assert back[1].mean_accuracy == 1 / 3


def test_csv_header_enforced(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("method,seed,acc\nm,0,1.0\n")
    with pytest.raises(ValueError):
        read_records(path)


@pytest.mark.parametrize("fields, message", [
    ("nan,0.1,0.2", "mean_accuracy must be finite, got nan"),
    ("0.5,-inf,0.2", "avg_forgetting must be finite, got -inf"),
    ("0.5,0.1,inf", "wall_time_seconds must be finite, got inf"),
    ("1.0000000000000002,0.1,0.2", "mean_accuracy must lie in [0, 1], got 1.0000000000000002"),
    ("-0.0625,0.1,0.2", "mean_accuracy must lie in [0, 1], got -0.0625"),
], ids=["nan_accuracy", "inf_forgetting", "inf_wall_time", "accuracy_above_1",
        "accuracy_below_0"])
def test_csv_rejects_nonfinite_numbers_and_accuracies_outside_the_unit_interval(
        tmp_path, fields, message):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(",".join(CSV_HEADER) + "\ner,0,0-1,1.0,-0.5,0.0\n" + f"er,1,1-0,{fields}\n")
    with pytest.raises(ValueError) as info:
        read_records(path)
    assert str(info.value) == f"{path}: line 3: {message}"


def test_csv_sink_context_manager(tmp_path):
    path = str(tmp_path / "sink.csv")
    with closing(CsvSink(path)) as sink:
        sink.write(MetricsRecord("a", 1, "0", 0.5, 0.1, 2.0))
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,seed,permutation,mean_accuracy,avg_forgetting,wall_time_seconds"
    assert len(lines) == 2


def test_csv_sink_refuses_a_directory_and_deletes_its_rows_when_the_move_fails(tmp_path):
    with pytest.raises(IsADirectoryError, match="is a directory"):
        CsvSink(str(tmp_path))
    # a directory made at `path` while the rows are written
    path = tmp_path / "late"
    sink = CsvSink(str(path))
    sink.write(MetricsRecord("a", 1, "0", 0.5, 0.1, 2.0))
    path.mkdir()
    with pytest.raises(OSError):
        sink.close()
    assert [p.name for p in tmp_path.iterdir()] == ["late"] and not any(path.iterdir())


def test_summarize_groups_by_method_and_seed():
    recs = [
        _rec(0.0, "a", seed=0), _rec(2.0, "a", seed=0),
        _rec(1.0, "a", seed=1), _rec(1.0, "a", seed=1),
        _rec(0.5, "b", seed=0),
    ]
    s = summarize(recs)
    assert set(s) == {"a", "b"}
    assert s["a"]["runs"] == 4
    assert s["a"]["mean_accuracy"] == pytest.approx(1.0)
    # seed 0 std 1.0, seed 1 std 0.0 -> averaged 0.5
    assert s["a"]["perm_std"] == pytest.approx(0.5)
    assert s["a"]["perm_std_per_seed"] == {0: pytest.approx(1.0), 1: 0.0}
    assert s["b"]["perm_std"] == 0.0
    text = format_summary(s)
    assert "method" in text and "a" in text.split() and "b" in text.split()
    assert len(text.splitlines()) == 3
