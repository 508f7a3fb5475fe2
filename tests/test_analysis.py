"""Tests for repro.analysis (metrics, reporting, experiment runners)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.metrics import (
    error_summary,
    max_error_over_all_substrings,
    mining_quality,
    query_errors,
)
from repro.analysis.reporting import format_table, format_value, save_results
from repro.core.baselines import ExactCountingOracle


class TestMetrics:
    def test_query_errors_against_exact_oracle(self, example_db):
        oracle = ExactCountingOracle(example_db)
        errors = query_errors(oracle, example_db, ["ab", "be", "zz"])
        assert np.allclose(errors, 0.0)

    def test_error_summary_statistics(self, example_db):
        class OffByOne:
            def query(self, pattern):
                return ExactCountingOracle(example_db).query(pattern) + 1.0

        summary = error_summary(OffByOne(), example_db, ["ab", "be"])
        assert summary.max_error == pytest.approx(1.0)
        assert summary.mean_error == pytest.approx(1.0)
        assert summary.num_patterns == 2
        assert summary.as_dict()["max_error"] == pytest.approx(1.0)

    def test_error_summary_empty_patterns(self, example_db):
        oracle = ExactCountingOracle(example_db)
        summary = error_summary(oracle, example_db, [])
        assert summary.max_error == 0.0 and summary.num_patterns == 0

    def test_max_error_over_all_substrings_zero_for_oracle(self, example_db):
        oracle = ExactCountingOracle(example_db)
        summary = max_error_over_all_substrings(
            oracle, example_db, max_pattern_length=3
        )
        assert summary.max_error == 0.0
        assert summary.num_patterns > 0

    def test_mining_quality_perfect(self):
        exact = {"aa": 10, "bb": 2}
        quality = mining_quality(["aa"], exact, threshold=5, alpha=1)
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.guarantee_recall == 1.0
        assert quality.guarantee_precision == 1.0

    def test_mining_quality_detects_misses_and_noise(self):
        exact = {"aa": 10, "bb": 9, "cc": 1}
        quality = mining_quality(["cc"], exact, threshold=5, alpha=2)
        assert quality.precision == 0.0
        assert quality.recall == 0.0
        assert quality.guarantee_recall == 0.0  # aa (>=7) missing
        assert quality.guarantee_precision == 0.0  # cc (<=3) reported

    def test_mining_quality_length_restriction(self):
        exact = {"aaa": 10, "bb": 10}
        quality = mining_quality(["bb"], exact, threshold=5, alpha=1, restrict_to_length=2)
        assert quality.recall == 1.0

    def test_mining_quality_empty_report(self):
        quality = mining_quality([], {"aa": 1}, threshold=5, alpha=1)
        assert quality.precision == 1.0
        assert quality.num_reported == 0


class TestReporting:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(3.14159) == "3.142"
        assert format_value(0.00001) == "1e-05"
        assert format_value(123456.0) == "1.23e+05"
        assert format_value(True) == "True"
        assert format_value("x") == "x"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        table = format_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert "22" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_explicit_columns(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_save_results_writes_json(self, tmp_path):
        path = save_results("E0", [{"x": 1}], directory=tmp_path)
        assert path.exists()
        assert path.name == "E0.json"


class TestExperimentRunners:
    """Light-weight sanity runs of the experiment functions (the benchmarks
    run them at full size)."""

    def test_example_database_matches_paper(self):
        database = experiments.example_database()
        assert database.substring_count("ab") == 4
        assert database.document_count("ab") == 3

    def test_e1_rows(self):
        rows = experiments.run_example_counts()
        by_pattern = {row["pattern"]: row for row in rows}
        assert by_pattern["ab"]["substring_count"] == 4
        assert by_pattern["ab"]["document_count"] == 3

    def test_e2_reproduces_example2(self):
        rows = experiments.run_candidate_figure()
        by_set = {row["set"]: row for row in rows}
        assert by_set["P_1"]["strings"] == "a b e s"
        assert by_set["P_4"]["size"] == 5
        assert "absab" in by_set["C_5"]["strings"]

    def test_e3_prefix_sums_consistent(self):
        rows = experiments.run_prefix_sum_figure()
        assert rows[0]["node"] == "(root)"
        # prefix sums reconstruct count(node) - count(root).
        root_count = rows[0]["count"]
        for row in rows[1:]:
            assert row["count"] - root_count == pytest.approx(row["prefix_sum"])

    def test_error_scaling_small(self):
        rows = experiments.run_error_scaling([4, 6], n=6, trials=1)
        assert len(rows) == 2
        for row in rows:
            assert row["max_error_worst"] <= row["analytic_bound"]

    def test_exact_candidate_structure_helper(self, example_db, rng):
        from repro.core.params import ConstructionParams

        structure = experiments.build_structure_with_exact_candidates(
            example_db, ConstructionParams.pure(1.0, beta=0.1, noiseless=True), rng
        )
        assert structure.query("ab") == pytest.approx(4)

    def test_prefix_sum_ablation_shapes(self):
        rows = experiments.run_prefix_sum_ablation([8, 16], trials=2)
        assert len(rows) == 2
        assert all(row["binary_tree_max_error"] >= 0 for row in rows)

    def test_tree_counting_experiment_rows(self):
        rows = experiments.run_tree_counting_experiment([8], num_items=30)
        assert rows[0]["max_error"] <= rows[0]["analytic_bound"]

    def test_query_time_experiment(self):
        rows = experiments.run_query_time_experiment([1, 2], n=4, ell=8, repetitions=10)
        assert len(rows) == 2

    def test_e23_concurrent_replays_are_bit_identical(self):
        rows = experiments.run_concurrent_serving(
            (1, 4), n=60, ell=6, num_operations=200, epsilon=20.0, threshold=5.0
        )
        assert [row["threads"] for row in rows] == [1, 4]
        for row in rows:
            assert row["bit_identical"] and row["counters_consistent"]
            assert row["mismatches"] == 0 and row["errors"] == 0


class TestCLI:
    def test_list_and_quickstart(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E17" in output
        assert main(["quickstart"]) == 0
        assert "error bound" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["run", "E99"]) == 2

    def test_run_e1(self, capsys):
        from repro.cli import main

        assert main(["run", "E1"]) == 0
        assert "substring_count" in capsys.readouterr().out

    def test_mine_command(self, capsys):
        from repro.cli import main

        assert main(["mine", "--n", "40", "--ell", "8", "--epsilon", "5"]) == 0
        output = capsys.readouterr().out
        assert "workload=genome" in output
