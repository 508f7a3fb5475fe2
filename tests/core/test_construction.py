"""Tests for repro.core.construction (Theorems 1 and 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.core.candidate_set import build_candidate_set
from repro.core.construction import (
    annotate_trie_with_exact_counts,
    build_private_counting_structure,
)
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.strings.naive import all_substrings, count_delta
from repro.strings.trie import Trie

DOCS = st.lists(st.text(alphabet="ab", min_size=1, max_size=6), min_size=1, max_size=4)


def noiseless_params(**kwargs) -> ConstructionParams:
    kwargs.setdefault("threshold", 1.0)
    return ConstructionParams.pure(epsilon=1.0, beta=0.1, noiseless=True, **kwargs)


class TestTrieAnnotation:
    def test_counts_on_example(self, example_db):
        trie = Trie(["a", "ab", "abe", "b", "be", "bee", "zz"])
        annotate_trie_with_exact_counts(trie, example_db, example_db.max_length)
        assert trie.find("ab").count == 4
        assert trie.find("be").count == 4
        assert trie.find("zz").count == 0
        assert trie.root.count == example_db.total_length

    def test_document_count_annotation(self, example_db):
        trie = Trie(["ab", "be"])
        annotate_trie_with_exact_counts(trie, example_db, 1)
        assert trie.find("ab").count == 3
        assert trie.find("be").count == 4

    @given(DOCS, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_annotation_matches_naive_counts(self, documents, delta):
        database = StringDatabase(documents)
        patterns = sorted(all_substrings(documents, max_length=4))[:20]
        trie = Trie(patterns)
        annotate_trie_with_exact_counts(trie, database, delta)
        for pattern in patterns:
            node = trie.find(pattern)
            assert node.count == count_delta(pattern, documents, delta)

    def test_counts_monotone_along_trie_paths(self, example_db):
        params = noiseless_params()
        candidates = build_candidate_set(example_db, params)
        trie = Trie(sorted(candidates.all_strings()))
        annotate_trie_with_exact_counts(trie, example_db, example_db.max_length)
        for node in trie.iter_nodes():
            if node.parent is not None and node.parent.count is not None:
                assert node.count <= node.parent.count


class TestNoiselessConstruction:
    """The noiseless pipeline must reproduce exact counts for every stored
    pattern, which validates the heavy-path + prefix-sum plumbing."""

    def test_exact_counts_recovered(self, example_db):
        structure = build_private_counting_structure(
            example_db, noiseless_params(), rng=np.random.default_rng(0)
        )
        for pattern in ["a", "ab", "abe", "absab", "be", "bee", "bees", "b"]:
            assert structure.query(pattern) == pytest.approx(
                example_db.substring_count(pattern)
            )

    def test_document_count_mode(self, example_db):
        params = noiseless_params(delta_cap=1)
        structure = build_private_counting_structure(
            example_db, params, rng=np.random.default_rng(0)
        )
        assert structure.query("ab") == pytest.approx(3)
        assert structure.query("be") == pytest.approx(4)

    def test_absent_patterns_return_zero(self, example_db):
        structure = build_private_counting_structure(
            example_db, noiseless_params(), rng=np.random.default_rng(0)
        )
        assert structure.query("zzz") == 0.0
        # The empty pattern is stored at the trie root and counts, following
        # the paper's convention, the total length of the database.
        assert structure.query("") == pytest.approx(example_db.total_length)

    def test_pruning_removes_zero_count_candidates(self, example_db):
        structure = build_private_counting_structure(
            example_db, noiseless_params(), rng=np.random.default_rng(0)
        )
        for pattern, count in structure.items():
            assert count >= 1.0
        assert structure.report["trie_nodes_after_pruning"] <= structure.report[
            "trie_nodes_before_pruning"
        ]

    @given(DOCS)
    @settings(max_examples=20, deadline=None)
    def test_noiseless_structure_is_exact_on_random_databases(self, documents):
        database = StringDatabase(documents)
        structure = build_private_counting_structure(
            database, noiseless_params(), rng=np.random.default_rng(1)
        )
        for pattern in all_substrings(documents, max_length=3):
            assert structure.query(pattern) == pytest.approx(
                database.substring_count(pattern)
            )


class TestPrivateConstruction:
    def test_budget_accounting_pure(self, small_db):
        params = ConstructionParams.pure(epsilon=2.0, beta=0.1)
        structure = build_private_counting_structure(
            small_db, params, rng=np.random.default_rng(3)
        )
        assert structure.report["privacy_spent_epsilon"] <= 2.0 + 1e-9
        assert structure.metadata.construction.startswith("theorem-1")

    def test_budget_accounting_approx(self, small_db):
        params = ConstructionParams.approximate(epsilon=2.0, delta=1e-5, beta=0.1)
        structure = build_private_counting_structure(
            small_db, params, rng=np.random.default_rng(3)
        )
        assert structure.report["privacy_spent_epsilon"] <= 2.0 + 1e-9
        assert structure.report["privacy_spent_delta"] <= 1e-5 + 1e-12
        assert structure.metadata.construction.startswith("theorem-2")

    def test_stored_counts_error_within_bound(self, small_db, rng):
        """With an exact candidate set and no pruning, every stored count's
        error must respect the counting-stage bound (w.h.p.)."""
        exact_candidates = build_candidate_set(small_db, noiseless_params())
        params = ConstructionParams.pure(
            epsilon=1.0, beta=0.05, threshold=-math.inf
        )
        structure = build_private_counting_structure(
            small_db, params, rng=rng, candidate_set=exact_candidates
        )
        for pattern, noisy in structure.items():
            exact = small_db.substring_count(pattern)
            assert abs(noisy - exact) <= structure.error_bound

    def test_stored_counts_error_within_bound_gaussian(self, small_db, rng):
        exact_candidates = build_candidate_set(small_db, noiseless_params())
        params = ConstructionParams.approximate(
            epsilon=1.0, delta=1e-6, beta=0.05, threshold=-math.inf, delta_cap=1
        )
        structure = build_private_counting_structure(
            small_db, params, rng=rng, candidate_set=exact_candidates
        )
        for pattern, noisy in structure.items():
            exact = small_db.document_count(pattern)
            assert abs(noisy - exact) <= structure.error_bound

    def test_default_threshold_prunes_toy_database(self, example_db):
        """On a six-document database the calibrated threshold exceeds every
        count, so the structure stores (almost surely) nothing — the
        documented behaviour for toy inputs."""
        params = ConstructionParams.pure(epsilon=1.0, beta=0.1)
        structure = build_private_counting_structure(
            example_db, params, rng=np.random.default_rng(5)
        )
        assert structure.metadata.threshold > example_db.total_length
        assert structure.query("zzzz") == 0.0

    def test_budget_selects_the_theorem(self, small_db):
        dataset = Dataset.from_database(small_db)
        pure = dataset.with_budget(1.0).build(
            "heavy-path", rng=np.random.default_rng(0)
        )
        assert pure.metadata.delta == 0.0
        assert pure.metadata.construction.startswith("theorem-1")
        approx = dataset.with_budget(1.0, 1e-5).build(
            "heavy-path", rng=np.random.default_rng(0)
        )
        assert approx.metadata.delta == 1e-5
        assert approx.metadata.construction.startswith("theorem-2")

    def test_report_fields_present(self, small_db):
        structure = build_private_counting_structure(
            small_db, ConstructionParams.pure(1.0), rng=np.random.default_rng(0)
        )
        for key in (
            "candidate_size",
            "trie_nodes_before_pruning",
            "trie_nodes_after_pruning",
            "num_heavy_paths",
            "roots_error_bound",
            "prefix_sums_error_bound",
            "absent_pattern_bound",
        ):
            assert key in structure.report

    def test_metadata_records_parameters(self, small_db):
        params = ConstructionParams.pure(epsilon=1.5, beta=0.2, delta_cap=1)
        structure = build_private_counting_structure(
            small_db, params, rng=np.random.default_rng(0)
        )
        metadata = structure.metadata
        assert metadata.epsilon == 1.5
        assert metadata.beta == 0.2
        assert metadata.delta_cap == 1
        assert metadata.num_documents == small_db.num_documents
        assert metadata.max_length == small_db.max_length
