"""scripts/replay.py prints one digest per output of each replayed run."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from rxmflow import analytics, runner
from rxmflow.models import forest
from rxmflow.perception import inspect_frame, load_csv
from rxmflow.preprocess import pipeline
from rxmflow.synth import write_csv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "replay.py"


def load_replay():
    spec = importlib.util.spec_from_file_location("replay_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_case_prints_the_same_four_digests_twice(capsys):
    replay = load_replay()
    outputs = []
    for _ in range(2):
        assert replay.main(["classify_rule"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0].splitlines()]
    assert [line[:2] for line in lines] == [
        ["classify_rule", "audit"], ["classify_rule", "detailed_results"],
        ["classify_rule", "recommendations"], ["classify_rule", "summary"],
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[2]) for line in lines)


def test_an_unknown_case_is_refused(capsys):
    assert load_replay().main(["no_such_case"]) == 2
    assert "no_such_case" in capsys.readouterr().err


def test_wide_knn_imputes_over_eight_or_more_coordinates(monkeypatch):
    replay = load_replay()
    seen = []
    real = pipeline._knn_impute

    def spy(fitted, frame, rows, numeric):
        seen.append((len(fitted.knn_numeric_columns), sorted(
            fit.name for fit in fitted.column_fits if fit.imputation == "knn")))
        return real(fitted, frame, rows, numeric)

    monkeypatch.setattr(pipeline, "_knn_impute", spy)
    assert replay.main(["wide_knn"]) == 0
    assert seen and all(
        m >= 8 and knn == ["Network_Latency", "Production_Speed", "Temperature"]
        for m, knn in seen)


def test_tied_knn_ends_each_query_rows_prefix_in_a_tie(monkeypatch):
    replay = load_replay()
    sizes = []
    real = pipeline._sorted_prefix

    def spy(d2):
        near = real(d2)
        sizes.append(near.size)
        return near

    monkeypatch.setattr(pipeline, "_sorted_prefix", spy)
    assert replay.main(["tied_knn"]) == 0
    assert sizes and all(size > pipeline.PREFIX_ROWS for size in sizes)


def test_signed_zero_knn_means_all_negative_zero_neighbours_to_positive_zero(
        monkeypatch, capsys):
    replay = load_replay()
    means = []
    real = pipeline._neighbour_value

    def spy(fit, raw, chosen):
        value = real(fit, raw, chosen)
        if fit.name == "Downtime_Cost":
            means.append((np.signbit(raw[chosen]).tolist(), value))
        return value

    monkeypatch.setattr(pipeline, "_neighbour_value", spy)
    assert replay.main(["signed_zero_knn"]) == 0
    # every imputed value is a signed zero, and np.mean of three -0.0 is +0.0
    assert means and all(value == 0.0 for _, value in means)
    assert any(signs == [True] * 3 and not np.signbit(value) for signs, value in means)
    assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()] == [
        ["signed_zero_knn", output]
        for output in ("audit", "detailed_results", "recommendations", "summary")]


def test_regress_nonlinear_grows_the_analytics_and_advisory_regression_forests(monkeypatch):
    replay = load_replay()
    seen = []
    real = forest.RandomForestRegressor.fit

    def spy(self, X, y):
        seen.append((self.n_estimators, self.max_depth))
        return real(self, X, y)

    monkeypatch.setattr(forest.RandomForestRegressor, "fit", spy)
    assert replay.main(["regress_nonlinear"]) == 0
    assert seen == [(100, None), (analytics.IMPORTANCE_TREES, analytics.IMPORTANCE_DEPTH)]


def test_repeated_fields_keeps_texts_that_parse_alike_apart(tmp_path):
    path = tmp_path / "repeated.csv"
    write_csv(load_replay().repeated_fields(), path)
    metadata = inspect_frame(load_csv(path))
    # -0.0 and 0.0; merged, the column would be constant
    assert metadata.profile("zero_reading").unique_count == 2
    # the 40 exact copies, and the 4 sign-flipped rows whose zero field is blank
    assert metadata.duplicate_row_count == 44


def test_adjusted_review_edits_a_priority_and_prints_only_its_digests(monkeypatch, capsys):
    replay = load_replay()
    outcomes = []
    real = runner.review

    def spy(*args, **kwargs):
        outcomes.append(real(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(runner, "review", spy)
    assert replay.main(["adjusted_review"]) == 0
    [outcome] = outcomes
    assert outcome.status == "adjusted"
    assert [field for _, field, _ in outcome.adjustments] == ["priority"]
    # the review table and prompts stay off stdout
    assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()] == [
        ["adjusted_review", output]
        for output in ("audit", "detailed_results", "recommendations", "summary")]
