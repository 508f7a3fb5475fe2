"""Registry behaviour: lookup, registration of custom kinds, required
keyword enforcement, and the error surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    Dataset,
    StructureRegistry,
    default_registry,
    register_structure_kind,
)
from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.core.qgram_structure import theorem3_qgram_structure, theorem4_qgram_structure
from repro.exceptions import ReproError, UnknownStructureKindError


@pytest.fixture
def params():
    return ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)


class TestDefaultRegistry:
    def test_registers_the_paper_kinds(self):
        assert default_registry().kinds() == [
            "heavy-path",
            "qgram-t3",
            "qgram-t4",
            "baseline",
            "heavy-path-continual",
        ]

    def test_unknown_kind_lists_the_registered_ones(self, example_db, params):
        with pytest.raises(UnknownStructureKindError, match="heavy-path"):
            default_registry().build("no-such-kind", example_db, params)

    def test_missing_required_keyword_is_reported(self, example_db, params):
        with pytest.raises(ReproError, match="'q'"):
            default_registry().build("qgram-t3", example_db, params)

    def test_describe_is_json_friendly(self):
        described = default_registry().describe()
        assert {entry["kind"] for entry in described} == set(
            default_registry().kinds()
        )
        assert all(entry["description"] for entry in described)

    def test_duplicate_registration_refused(self):
        registry = default_registry()
        with pytest.raises(ReproError, match="already registered"):
            registry.register("heavy-path", lambda *a, **k: None)


class TestKindsMatchTheirConstructions:
    """Each paper kind is exactly its construction function: the same
    released structure under the same rng."""

    def test_heavy_path_is_build_private_counting_structure(self, example_db):
        params = ConstructionParams.pure(2.0, beta=0.1)
        direct = build_private_counting_structure(
            example_db, params, rng=np.random.default_rng(0)
        )
        built = (
            Dataset.from_database(example_db)
            .with_params(params)
            .build("heavy-path", rng=np.random.default_rng(0))
        )
        assert direct.to_payload()["counts"] == built.to_payload()["counts"]
        assert direct.metadata == built.metadata

    def test_approximate_heavy_path_is_build_private_counting_structure(
        self, example_db
    ):
        # (epsilon, delta)-DP params select Theorem 2's construction.
        params = ConstructionParams.approximate(2.0, 1e-6, beta=0.1)
        direct = build_private_counting_structure(
            example_db, params, rng=np.random.default_rng(0)
        )
        built = (
            Dataset.from_database(example_db)
            .with_params(params)
            .build("heavy-path", rng=np.random.default_rng(0))
        )
        assert direct.to_payload()["counts"] == built.to_payload()["counts"]
        assert direct.metadata == built.metadata

    @pytest.mark.parametrize(
        "kind, construct, params",
        [
            (
                "qgram-t3",
                theorem3_qgram_structure,
                ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0),
            ),
            (
                "qgram-t4",
                theorem4_qgram_structure,
                ConstructionParams.approximate(
                    2.0, 1e-6, beta=0.1, noiseless=True, threshold=1.0
                ),
            ),
        ],
    )
    def test_qgram_kinds_are_their_theorem_functions(
        self, example_db, kind, construct, params
    ):
        direct = construct(example_db, 2, params, rng=np.random.default_rng(0))
        built = (
            Dataset.from_database(example_db)
            .with_params(params)
            .build(kind, rng=np.random.default_rng(0), q=2)
        )
        assert direct.to_payload()["counts"] == built.to_payload()["counts"]
        assert direct.metadata == built.metadata


class TestCustomKinds:
    def test_custom_kind_in_isolated_registry(self, example_db, params):
        registry = StructureRegistry()

        def document_counter(database, build_params, *, rng=None, **kwargs):
            return build_private_counting_structure(
                database, build_params.for_document_count(), rng=rng, **kwargs
            )

        registry.register(
            "doc-count", document_counter, description="Delta = 1 heavy-path"
        )
        counter = (
            Dataset.from_database(example_db)
            .with_params(params)
            .with_registry(registry)
            .build("doc-count", rng=np.random.default_rng(0))
        )
        assert counter.metadata.delta_cap == 1
        # The isolated registry does not know the default kinds...
        with pytest.raises(UnknownStructureKindError):
            registry.get("heavy-path")
        # ... and the default registry does not know the custom one.
        assert "doc-count" not in default_registry()

    def test_register_structure_kind_into_default(self, example_db, params):
        def trivial(database, build_params, *, rng=None, **kwargs):
            return build_private_counting_structure(database, build_params, rng=rng)

        try:
            register_structure_kind("tmp-kind", trivial, description="test kind")
            assert "tmp-kind" in default_registry()
            counter = (
                Dataset.from_database(example_db)
                .with_params(params)
                .build("tmp-kind", rng=np.random.default_rng(0))
            )
            assert counter.num_stored_patterns > 0
        finally:
            default_registry().unregister("tmp-kind")
        assert "tmp-kind" not in default_registry()

    def test_overwrite_requires_opt_in(self):
        registry = StructureRegistry()
        registry.register("kind", lambda *a, **k: None)
        with pytest.raises(ReproError):
            registry.register("kind", lambda *a, **k: None)
        registry.register("kind", lambda *a, **k: None, overwrite=True)
        assert len(registry) == 1

    def test_requires_are_enforced_for_custom_kinds(self, example_db, params):
        registry = StructureRegistry()
        registry.register(
            "needs-width",
            lambda db, p, *, rng=None, width: None,
            requires=("width",),
        )
        with pytest.raises(ReproError, match="'width'"):
            registry.build("needs-width", example_db, params)
