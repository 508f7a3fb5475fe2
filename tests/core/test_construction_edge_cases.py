"""Edge cases and cross-cutting consistency checks for the construction
pipeline that are not covered by the per-module tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import ExactCountingOracle
from repro.core.construction import build_private_counting_structure
from repro.core.database import StringDatabase
from repro.core.params import DOCUMENT_COUNT, ConstructionParams
from repro.core.private_trie import PrivateCountingTrie
from repro.core.qgram_structure import qgram_counting_structure
from repro.exceptions import PrivacyParameterError
from repro.strings.naive import all_substrings


def noiseless_params(**kwargs) -> ConstructionParams:
    kwargs.setdefault("threshold", 1.0)
    return ConstructionParams.pure(epsilon=1.0, beta=0.1, noiseless=True, **kwargs)


class TestDegenerateDatabases:
    def test_single_document_single_character(self):
        database = StringDatabase(["a"])
        structure = build_private_counting_structure(database, noiseless_params())
        assert structure.query("a") == 1.0
        assert structure.query("b") == 0.0
        assert structure.metadata.max_length == 1

    def test_single_repeated_character_document(self):
        database = StringDatabase(["aaaaaaaa"])
        structure = build_private_counting_structure(database, noiseless_params())
        # count(a^k, a^8) = 8 - k + 1.
        for k in range(1, 9):
            assert structure.query("a" * k) == pytest.approx(9 - k)

    def test_identical_documents(self):
        database = StringDatabase(["abab"] * 5)
        structure = build_private_counting_structure(database, noiseless_params())
        assert structure.query("ab") == pytest.approx(10)
        doc_structure = build_private_counting_structure(
            database, noiseless_params(delta_cap=DOCUMENT_COUNT)
        )
        assert doc_structure.query("ab") == pytest.approx(5)

    def test_documents_of_mixed_lengths(self):
        database = StringDatabase(["a", "ab", "abc", "abcd"])
        structure = build_private_counting_structure(database, noiseless_params())
        oracle = ExactCountingOracle(database)
        for pattern in all_substrings(database.documents):
            assert structure.query(pattern) == pytest.approx(oracle.query(pattern))

    def test_alphabet_with_unicode_symbols(self):
        database = StringDatabase(["αβγ", "βγα", "γγγ"])
        structure = build_private_counting_structure(database, noiseless_params())
        assert structure.query("γγ") == pytest.approx(2)
        assert structure.query("βγ") == pytest.approx(2)
        assert structure.query("δ") == 0.0

    def test_declared_max_length_larger_than_observed(self):
        database = StringDatabase(["abc", "cab"], max_length=10)
        structure = build_private_counting_structure(database, noiseless_params())
        assert structure.metadata.max_length == 10
        assert structure.query("ab") == pytest.approx(2)


class TestParameterHandling:
    def test_delta_cap_larger_than_ell_is_clamped(self):
        database = StringDatabase(["abab", "baba"])
        params = noiseless_params(delta_cap=100)
        structure = build_private_counting_structure(database, params)
        assert structure.metadata.delta_cap == database.max_length

    def test_document_count_never_exceeds_substring_count(self, example_db):
        substring = build_private_counting_structure(example_db, noiseless_params())
        documents = build_private_counting_structure(
            example_db, noiseless_params(delta_cap=DOCUMENT_COUNT)
        )
        for pattern, _ in substring.items():
            assert documents.query(pattern) <= substring.query(pattern) + 1e-9

    def test_threshold_override_keeps_more_patterns(self, example_db, rng):
        params_low = ConstructionParams.pure(epsilon=5.0, beta=0.1, threshold=1.0)
        params_default = ConstructionParams.pure(epsilon=5.0, beta=0.1)
        low = build_private_counting_structure(
            example_db, params_low, rng=np.random.default_rng(7)
        )
        default = build_private_counting_structure(
            example_db, params_default, rng=np.random.default_rng(7)
        )
        assert low.num_stored_patterns >= default.num_stored_patterns

    def test_invalid_beta_rejected(self):
        with pytest.raises(PrivacyParameterError):
            ConstructionParams.pure(epsilon=1.0, beta=0.0)
        with pytest.raises(PrivacyParameterError):
            ConstructionParams.pure(epsilon=1.0, beta=1.0)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(PrivacyParameterError):
            ConstructionParams.pure(epsilon=0.0)
        with pytest.raises(PrivacyParameterError):
            ConstructionParams.pure(epsilon=-2.0)

    def test_qgram_q_equal_one(self, example_db):
        structure = qgram_counting_structure(example_db, 1, noiseless_params())
        for letter in "abes":
            assert structure.query(letter) == pytest.approx(
                example_db.substring_count(letter)
            )

    def test_qgram_q_equal_ell(self, example_db):
        q = example_db.max_length
        structure = qgram_counting_structure(example_db, q, noiseless_params())
        assert structure.query("absab") == pytest.approx(1)


class TestStructureConsistency:
    def test_query_of_prefix_at_least_query_of_extension_noiseless(self, example_db):
        structure = build_private_counting_structure(example_db, noiseless_params())
        for pattern, count in structure.items():
            if len(pattern) > 1:
                prefix_count = structure.query(pattern[:-1])
                if prefix_count > 0:
                    assert prefix_count + 1e-9 >= count

    def test_mining_and_items_consistent(self, example_db):
        structure = build_private_counting_structure(example_db, noiseless_params())
        mined = dict(structure.mine(threshold=2.0))
        for pattern, count in structure.items():
            assert (count >= 2.0) == (pattern in mined)

    def test_serialization_roundtrip_preserves_queries_and_mining(self, example_db):
        structure = build_private_counting_structure(example_db, noiseless_params())
        restored = PrivateCountingTrie.from_json(structure.to_json())
        assert restored.metadata == structure.metadata
        for pattern, count in structure.items():
            assert restored.query(pattern) == pytest.approx(count)
        assert restored.mine(threshold=3.0) == structure.mine(threshold=3.0)

    def test_structure_is_pure_post_processing(self, example_db, rng):
        """Querying and mining must not touch the database: deleting the
        database reference after construction changes nothing."""
        structure = build_private_counting_structure(
            example_db, ConstructionParams.pure(epsilon=2.0, beta=0.1), rng=rng
        )
        before = [structure.query(p) for p in ("ab", "be", "zzz")]
        del example_db
        after = [structure.query(p) for p in ("ab", "be", "zzz")]
        assert before == after

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=5), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_noiseless_structure_matches_oracle_on_random_databases(self, documents):
        database = StringDatabase(documents)
        structure = build_private_counting_structure(database, noiseless_params())
        oracle = ExactCountingOracle(database)
        for pattern in all_substrings(documents):
            assert structure.query(pattern) == pytest.approx(oracle.query(pattern))
        # Patterns absent from the database must be reported as 0.
        for absent in ("zzz", "caaab"):
            if database.substring_count(absent) == 0:
                assert structure.query(absent) == 0.0

    @given(
        st.lists(st.text(alphabet="ab", min_size=1, max_size=5), min_size=1, max_size=4),
        st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_noiseless_delta_cap_matches_naive(self, documents, delta_cap):
        database = StringDatabase(documents)
        structure = build_private_counting_structure(
            database, noiseless_params(delta_cap=delta_cap)
        )
        oracle = ExactCountingOracle(database, delta_cap=delta_cap)
        for pattern in all_substrings(documents):
            assert structure.query(pattern) == pytest.approx(oracle.query(pattern))
