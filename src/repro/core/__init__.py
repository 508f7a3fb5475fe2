"""Core library: the paper's differentially private counting structures."""

from repro.core.baselines import ExactCountingOracle, build_simple_trie_baseline
from repro.core.candidate_growth import (
    build_onestep_candidate_set,
    onestep_candidate_alpha,
)
from repro.core.candidate_set import CandidateSet, build_candidate_set, candidate_alpha
from repro.core.construction import build_private_counting_structure
from repro.core.counts import count_delta, document_count, exact_count_table, substring_count
from repro.core.database import StringDatabase
from repro.core.lower_bounds import (
    MarginalsReduction,
    PackingInstance,
    exact_marginals,
    marginals_reduction,
    packing_database,
    packing_patterns,
    substring_lower_bound_pair,
)
from repro.core.mining import (
    GuaranteeViolations,
    MiningResult,
    check_mining_guarantee,
    mine_frequent_qgrams,
    mine_frequent_substrings,
)
from repro.core.params import DOCUMENT_COUNT, SUBSTRING_COUNT, ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.core.qgram_structure import (
    qgram_counting_structure,
    theorem3_qgram_structure,
    theorem4_qgram_structure,
)

__all__ = [
    "ExactCountingOracle",
    "build_simple_trie_baseline",
    "CandidateSet",
    "build_onestep_candidate_set",
    "onestep_candidate_alpha",
    "build_candidate_set",
    "candidate_alpha",
    "build_private_counting_structure",
    "count_delta",
    "document_count",
    "exact_count_table",
    "substring_count",
    "StringDatabase",
    "MarginalsReduction",
    "PackingInstance",
    "exact_marginals",
    "marginals_reduction",
    "packing_database",
    "packing_patterns",
    "substring_lower_bound_pair",
    "GuaranteeViolations",
    "MiningResult",
    "check_mining_guarantee",
    "mine_frequent_qgrams",
    "mine_frequent_substrings",
    "DOCUMENT_COUNT",
    "SUBSTRING_COUNT",
    "ConstructionParams",
    "PrivateCountingTrie",
    "StructureMetadata",
    "qgram_counting_structure",
    "theorem3_qgram_structure",
    "theorem4_qgram_structure",
]
