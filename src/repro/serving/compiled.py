"""Compiled, array-backed private counting tries for query serving.

A :class:`repro.core.private_trie.PrivateCountingTrie` is a linked structure
of Python objects — ideal for construction, slow to serve.  Since querying is
pure post-processing, we are free to *compile* the released structure into a
handful of contiguous numpy arrays without touching privacy at all:

* ``counts[v]`` — the stored noisy count of node ``v`` (``NaN`` when the node
  stores no count, e.g. internal candidate-trie nodes);
* ``child_start[v]:child_end[v]`` — the slice of ``edge_labels`` /
  ``edge_targets`` holding ``v``'s outgoing edges, sorted by label code;
* ``edge_keys[e] = source * |Sigma'| + label_code`` — a globally sorted key
  array that lets a *batch* of patterns advance one character per step with a
  single vectorized ``searchsorted``.

Single queries walk the arrays in ``O(|P| log sigma)``; batches of ``m``
patterns run in ``O(max|P|)`` vectorized rounds over all ``m`` patterns at
once, which is where the serving throughput comes from (see
``benchmarks/bench_serving.py``).  A small LRU cache short-circuits repeated
single-pattern queries, as real query traffic is heavily skewed.

Thread safety
-------------
A compiled trie is served concurrently by ``ThreadingHTTPServer`` handler
threads, so it guarantees an *immutable snapshot*: every shared numpy array
is marked read-only after construction (:meth:`CompiledTrie.assert_immutable`
verifies this), query paths only allocate thread-local scratch, and the
mutable members — the LRU result cache, the uniform-batch gather-index
cache and the lazily built query-acceleration views — are each guarded by
their own lock.  Any number of threads may call ``query`` / ``batch_query``
/ ``mine`` concurrently and observe exactly the serial results, with exact
hit/miss counters (``tests/serving/test_concurrency.py`` is the stress
suite).

Lazy views and mmap zero-copy loads
-----------------------------------
Construction keeps only the nine canonical arrays plus O(alphabet) tables:
the dense transition table and the NaN-folded count gathers are built on
the *first batch query*, and the zero-copy scalar views the single-query
walk reads are made on the *first single query* (both under a lock,
published read-only).  That makes ``__init__`` O(header) over the node count — which
is what lets :mod:`repro.serving.binfmt` construct a compiled trie straight
over ``mmap``-ed, page-cache-shared buffers of a binary release without
faulting in a single node page at load time.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.private_trie import (
    PrivateCountingTrie,
    StructureMetadata,
    payload_digest,
    payload_json,
    release_payload,
)

__all__ = ["CompiledTrie", "CacheInfo"]


#: "not built yet" marker for lazily constructed views (``None`` is a valid
#: built value: the dense transition table of an over-limit alphabet).
_UNSET = object()


class _LazyViews:
    """Query-acceleration structures derived from the canonical arrays.

    Built on first use so that loading an mmap'd release stays O(header):
    ``tables`` (the dense transition table + NaN-folded count gathers) on
    the first batch query, ``scalars`` (the zero-copy scalar views the
    stdlib ``bisect`` walk reads) on the first single query.  Shared between
    :meth:`CompiledTrie.with_cache_size` twins — the views are pure
    functions of the shared frozen arrays, so building them once serves
    every twin.
    """

    __slots__ = ("lock", "transitions", "counts_ext", "counts_zero", "scalars")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.transitions: object = _UNSET
        self.counts_ext: np.ndarray | None = None
        self.counts_zero: np.ndarray | None = None
        self.scalars: tuple | None = None


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss statistics of a :class:`CompiledTrie`'s LRU result cache."""

    hits: int
    misses: int
    size: int
    max_size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CompiledTrie:
    """A read-only, array-backed view of a :class:`PrivateCountingTrie`.

    Everything here is post-processing of the released noisy counts: the
    compiled form answers exactly the same queries as the source structure
    (see ``tests/serving/test_compiled.py`` for the parity property) with no
    additional privacy loss, only faster.
    """

    #: largest dense transition table (entries) built eagerly; ~256 MiB.
    DENSE_TRANSITION_LIMIT = 1 << 25

    def __init__(
        self,
        *,
        counts: np.ndarray,
        depths: np.ndarray,
        parents: np.ndarray,
        parent_codes: np.ndarray,
        child_start: np.ndarray,
        child_end: np.ndarray,
        edge_keys: np.ndarray,
        edge_labels: np.ndarray,
        edge_targets: np.ndarray,
        vocab: dict[str, int],
        metadata: StructureMetadata,
        report: dict | None = None,
        cache_size: int = 4096,
    ) -> None:
        self._counts = counts
        self._depths = depths
        self._parents = parents
        self._parent_codes = parent_codes
        self._child_start = child_start
        self._child_end = child_end
        self._edge_keys = edge_keys
        self._edge_labels = edge_labels
        self._edge_targets = edge_targets
        self._vocab = vocab
        self._chars = [""] * (len(vocab) + 1)
        for char, code in vocab.items():
            self._chars[code] = char
        self._vocab_size = len(vocab) + 1
        # Dense codepoint -> code table for vectorized pattern encoding.
        # Unknown characters (and the NUL separator) map to the reserved
        # code 0, whose transition column is entirely dead.  Covering the
        # whole BMP lets the common case skip bounds checks completely, and
        # the extra guard slot past every vocab character stays 0 so
        # ``take(..., mode="clip")`` maps astral-plane codepoints to
        # "unknown" without a per-batch bounds scan.
        max_point = max((ord(c) for c in vocab), default=0)
        table = np.zeros(max(0x10000, max_point + 2), dtype=np.int32)
        for char, code in vocab.items():
            table[ord(char)] = code
        self._code_table = table
        self._dead = int(counts.size)
        # Everything derived from the node/edge arrays — the dense
        # transition table, the NaN-folded count gathers, the scalar views
        # — is built lazily on first use (see _LazyViews), so
        # construction never touches a node page: an mmap'd release loads
        # in O(header) and N processes share one page-cache copy.
        self._lazy = _LazyViews()
        # (batch size, pattern length) -> code gather index; serving traffic
        # repeats batch shapes, so the uniform path's index arithmetic is
        # computed once per shape.  Guarded by _uniform_lock: concurrent
        # /batch handler threads share this dict.
        self._uniform_cache: dict[tuple[int, int], np.ndarray] = {}
        self._uniform_lock = threading.Lock()
        self.metadata = metadata
        self.report = dict(report or {})
        # The LRU cache (an OrderedDict whose move_to_end/popitem are not
        # atomic under concurrent callers) and its exact hit/miss counters
        # share one lock; the count lookup itself runs outside it.
        self._cache: OrderedDict[str, float] = OrderedDict()
        self._cache_max = max(0, int(cache_size))
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_lock = threading.Lock()
        # Immutable-snapshot guarantee: all shared arrays are frozen so a
        # rogue writer faults loudly instead of racing readers.
        for array in self._shared_arrays():
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_structure(
        cls, structure: PrivateCountingTrie, *, cache_size: int = 4096
    ) -> "CompiledTrie":
        """Flatten ``structure`` into contiguous arrays (BFS node order)."""
        root = structure.trie.root
        order = [root]
        index = {id(root): 0}
        for node in order:
            for child in node.children.values():
                index[id(child)] = len(order)
                order.append(child)
        num_nodes = len(order)

        vocab: dict[str, int] = {}
        for node in order[1:]:
            if node.char not in vocab:
                # Code 0 is reserved so that key 0 is never a valid edge key.
                vocab[node.char] = len(vocab) + 1
        vocab_size = len(vocab) + 1

        counts = np.full(num_nodes, np.nan, dtype=np.float64)
        depths = np.zeros(num_nodes, dtype=np.int64)
        parents = np.full(num_nodes, -1, dtype=np.int64)
        parent_codes = np.zeros(num_nodes, dtype=np.int64)
        for position, node in enumerate(order):
            if node.noisy_count is not None:
                counts[position] = float(node.noisy_count)
            depths[position] = node.depth
            if node.parent is not None:
                parents[position] = index[id(node.parent)]
                parent_codes[position] = vocab[node.char]

        num_edges = num_nodes - 1
        edge_keys = np.zeros(num_edges, dtype=np.int64)
        edge_targets = np.zeros(num_edges, dtype=np.int64)
        child_start = np.zeros(num_nodes, dtype=np.int64)
        child_end = np.zeros(num_nodes, dtype=np.int64)
        cursor = 0
        for position, node in enumerate(order):
            child_start[position] = cursor
            for char in sorted(node.children, key=vocab.__getitem__):
                edge_keys[cursor] = position * vocab_size + vocab[char]
                edge_targets[cursor] = index[id(node.children[char])]
                cursor += 1
            child_end[position] = cursor
        # BFS order plus per-node sorted children makes edge_keys globally
        # sorted, which batch_query's searchsorted relies on.
        edge_labels = edge_keys % vocab_size if num_edges else edge_keys.copy()

        return cls(
            counts=counts,
            depths=depths,
            parents=parents,
            parent_codes=parent_codes,
            child_start=child_start,
            child_end=child_end,
            edge_keys=edge_keys,
            edge_labels=edge_labels,
            edge_targets=edge_targets,
            vocab=vocab,
            metadata=structure.metadata,
            report=structure.report,
            cache_size=cache_size,
        )

    def with_cache_size(self, cache_size: int) -> "CompiledTrie":
        """A zero-copy twin of this compiled trie with a fresh LRU cache.

        Every shared (frozen, read-only) array — counts, CSR edges, the code
        and transition tables — is reused as-is; only the mutable state (the
        LRU cache, its counters and locks, the uniform gather-index cache)
        is created fresh.  This is how the array construction pipeline hands
        its already-array-shaped build to
        :meth:`repro.core.private_trie.PrivateCountingTrie.compiled` without
        re-flattening anything.
        """
        twin = object.__new__(CompiledTrie)
        twin.__dict__.update(self.__dict__)
        twin._uniform_cache = {}
        twin._uniform_lock = threading.Lock()
        twin._cache = OrderedDict()
        twin._cache_max = max(0, int(cache_size))
        twin._cache_hits = 0
        twin._cache_misses = 0
        twin._cache_lock = threading.Lock()
        return twin

    # ------------------------------------------------------------------
    # Lazily built query-acceleration views
    # ------------------------------------------------------------------
    def _batch_tables(
        self,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """``(transitions, counts_ext, counts_zero)``, built on first use.

        ``transitions`` is the dense, pre-scaled transition table (``None``
        when ``(nodes + 1) * vocab`` exceeds :attr:`DENSE_TRANSITION_LIMIT`
        — read at build time, so tests may monkeypatch it before the first
        batch); ``counts_ext`` appends a NaN sentinel so the dead state
        gathers to "no count"; ``counts_zero`` is the same array with NaN
        already folded to 0 for the uniform fast path.  Double-checked under
        the views lock; every view is frozen before publication.
        """
        lazy = self._lazy
        if lazy.transitions is not _UNSET:
            return lazy.transitions, lazy.counts_ext, lazy.counts_zero
        with lazy.lock:
            if lazy.transitions is not _UNSET:
                return lazy.transitions, lazy.counts_ext, lazy.counts_zero
            counts_ext = np.append(self._counts, np.nan)
            counts_zero = np.where(np.isnan(counts_ext), 0.0, counts_ext)
            counts_ext.setflags(write=False)
            counts_zero.setflags(write=False)
            num_nodes = self._dead
            entries = (num_nodes + 1) * self._vocab_size
            transitions: np.ndarray | None = None
            if entries <= self.DENSE_TRANSITION_LIMIT:
                transitions = np.full(entries, num_nodes, dtype=np.int32)
                transitions[self._edge_keys] = self._edge_targets
                # Pre-scaled by vocab_size: table values are *row offsets*,
                # so a batch round is one add and one gather.
                transitions *= self._vocab_size
                transitions.setflags(write=False)
            lazy.counts_ext = counts_ext
            lazy.counts_zero = counts_zero
            # Published last: the sentinel flipping is what tells lock-free
            # readers the other two views are already in place.
            lazy.transitions = transitions
            return transitions, counts_ext, counts_zero

    def _single_scalars(self) -> tuple[memoryview, ...]:
        """Views ``(edge_keys, edge_targets, child_start, child_end,
        counts)`` for the stdlib-``bisect`` single-query walk, built on the
        first single query.  Indexing a ``memoryview`` yields plain Python
        numbers, an order of magnitude cheaper than per-call numpy
        indexing, and unlike list mirrors the views copy nothing: every
        process serving an mmap'd release keeps sharing its pages."""
        lazy = self._lazy
        scalars = lazy.scalars
        if scalars is None:
            with lazy.lock:
                scalars = lazy.scalars
                if scalars is None:
                    scalars = tuple(
                        # native byte order, contiguous: what memoryview indexes
                        memoryview(np.ascontiguousarray(a, a.dtype.newbyteorder("=")))
                        for a in (
                            self._edge_keys,
                            self._edge_targets,
                            self._child_start,
                            self._child_end,
                            self._counts,
                        )
                    )
                    lazy.scalars = scalars
        return scalars

    @property
    def _transitions(self) -> np.ndarray | None:
        """The dense transition table (building it if necessary) — kept as
        a property so existing callers and tests observe the same
        ``None``-when-sparse contract as the old eager attribute."""
        return self._batch_tables()[0]

    # ------------------------------------------------------------------
    # Single-pattern queries
    # ------------------------------------------------------------------
    def lookup_node(self, pattern: str) -> int:
        """Index of the node spelling ``pattern``, or ``-1`` when absent."""
        node = 0
        vocab = self._vocab
        vocab_size = self._vocab_size
        keys, targets, child_start, child_end, _ = self._single_scalars()
        for char in pattern:
            code = vocab.get(char)
            if code is None:
                return -1
            key = node * vocab_size + code
            position = bisect_left(keys, key, child_start[node], child_end[node])
            if position >= child_end[node] or keys[position] != key:
                return -1
            node = targets[position]
        return node

    def query(self, pattern: str) -> float:
        """Noisy count of ``pattern`` (0 when absent), LRU-cached.

        Safe for any number of concurrent callers: the OrderedDict LRU is
        only touched under ``_cache_lock`` (``move_to_end``/``popitem`` are
        read-modify-write sequences that corrupt the dict when interleaved),
        while the array walk itself runs outside the lock.  Hit/miss
        counters are exact, not best-effort.
        """
        if self._cache_max:
            with self._cache_lock:
                cached = self._cache.get(pattern)
                if cached is not None:
                    self._cache_hits += 1
                    self._cache.move_to_end(pattern)
                    return cached
                self._cache_misses += 1
        result = self._query_uncached(pattern)
        if self._cache_max:
            with self._cache_lock:
                self._cache[pattern] = result
                while len(self._cache) > self._cache_max:
                    self._cache.popitem(last=False)
        return result

    def _query_uncached(self, pattern: str) -> float:
        node = self.lookup_node(pattern)
        if node < 0:
            return 0.0
        count = self._single_scalars()[4][node]
        return 0.0 if math.isnan(count) else count

    def __contains__(self, pattern: str) -> bool:
        node = self.lookup_node(pattern)
        return node >= 0 and not math.isnan(self._single_scalars()[4][node])

    # ------------------------------------------------------------------
    # Batch queries (vectorized)
    # ------------------------------------------------------------------
    #: separator used to split a joined batch in one vectorized pass; NUL is
    #: outside every data-universe alphabet (and guarded against anyway).
    _SEPARATOR = "\x00"

    def batch_query(self, patterns: Sequence[str]) -> np.ndarray:
        """Noisy counts for every pattern, advancing all of them through the
        trie one character per vectorized round.

        Patterns are joined with NUL separators so their codes and lengths
        come from one vectorized encode + separator scan (falling back to
        per-pattern ``len()`` when a pattern contains NUL itself; the guard
        slot of the code table absorbs astral-plane codepoints via a clipped
        gather).  Uniform-length batches take a dedicated fast path; mixed
        batches are sorted by length so each round operates on a contiguous
        suffix of still-running patterns — no per-round boolean compaction.
        A pattern that ends simply drops out of the next round's suffix with
        its node frozen; a pattern that mismatches moves to the dead state
        and stays there.  Total work is proportional to the number of
        characters consumed, in a few numpy kernels per round.
        """
        if not isinstance(patterns, list):
            patterns = list(patterns)
        m = len(patterns)
        if m == 0:
            return np.zeros(0, dtype=np.float64)
        joined = self._SEPARATOR.join(patterns)
        points = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        flat_codes = self._code_table.take(points, mode="clip")
        is_separator = points == 0
        transitions, counts_ext, counts_zero = self._batch_tables()
        if transitions is not None and m > 1:
            # Uniform-length fast path: q-gram releases serve fixed-length
            # traffic, where the length sort, per-step activity cuts and the
            # final unscramble are pure overhead.  Uniform lengths mean the
            # joined batch carries exactly m - 1 NULs, all at the expected
            # separator positions (which also rules out patterns containing
            # NUL themselves); then one (L, m) gather of the codes up front
            # and two kernels per round answer the batch.
            length = len(patterns[0])
            if points.size == m * (length + 1) - 1:
                at_separators = is_separator[length :: length + 1]
                if (
                    at_separators.size == m - 1
                    and bool(at_separators.all())
                    and int(np.count_nonzero(is_separator)) == m - 1
                ):
                    with self._uniform_lock:
                        gather_index = self._uniform_cache.get((m, length))
                    if gather_index is None:
                        gather_index = (
                            np.arange(m) * (length + 1)
                            + np.arange(length)[:, None]
                        )
                        # Frozen before publication: once in the dict the
                        # index is shared by every handler thread.
                        gather_index.setflags(write=False)
                        with self._uniform_lock:
                            if len(self._uniform_cache) >= 16:
                                self._uniform_cache.clear()
                            self._uniform_cache[(m, length)] = gather_index
                    return self._batch_query_uniform(
                        flat_codes, gather_index, length, m, transitions, counts_zero
                    )
        separators = np.flatnonzero(is_separator)
        if separators.size == m - 1:
            bounds = np.concatenate((separators, [points.size]))
            starts = np.concatenate(([0], separators + 1))
            lengths = bounds - starts
        else:  # some pattern contains NUL itself
            lengths = np.fromiter(map(len, patterns), dtype=np.int64, count=m)
            starts = np.concatenate(([0], np.cumsum(lengths + 1)))[:-1]
        # Grouping by length only needs buckets, not a stable order; uint16
        # keys keep the sort in numpy's radix path.
        if int(lengths.max()) < 0x10000:
            order = np.argsort(lengths.astype(np.uint16), kind="stable")
        else:  # patterns longer than 65535 characters
            order = np.argsort(lengths, kind="stable")
        sorted_lengths = lengths[order]
        positions = starts[order].astype(np.intp)
        max_len = int(sorted_lengths[-1])
        # First index whose pattern still has characters left at each step.
        cuts = np.searchsorted(
            sorted_lengths, np.arange(max_len + 1), side="right"
        ).tolist()
        nodes = np.zeros(m, dtype=np.int32)
        vocab_size = self._vocab_size
        for step in range(max_len):
            lo = cuts[step]
            active_positions = positions[lo:]
            codes = flat_codes.take(active_positions)
            if transitions is not None:
                # States are row offsets (node * vocab_size); unknown
                # characters carry code 0, whose transition column (like
                # the dead state's whole row) is entirely dead.
                nodes[lo:] = transitions.take(nodes[lo:] + codes)
            else:
                nodes[lo:] = self._advance_sparse(nodes[lo:], codes)
            active_positions += 1  # in place: ready for the next round
        if transitions is not None:
            nodes //= vocab_size  # row offsets back to node indices
        counts = counts_ext.take(nodes)
        results_sorted = np.where(np.isnan(counts), 0.0, counts)
        results = np.empty(m, dtype=np.float64)
        results[order] = results_sorted
        return results

    def _batch_query_uniform(
        self,
        flat_codes: np.ndarray,
        gather_index: np.ndarray,
        length: int,
        m: int,
        transitions: np.ndarray,
        counts_zero: np.ndarray,
    ) -> np.ndarray:
        """Dense-table batch walk for a batch whose patterns all have the
        same ``length`` — bit-for-bit the counts of the general path, minus
        its per-length bookkeeping.

        Pattern ``i`` starts at flat offset ``i * (length + 1)`` (one NUL
        separator apart); ``gather_index`` materializes the code matrix in
        one gather, in ``(length, m)`` layout so each round reads one
        contiguous row.  The two round kernels reuse preallocated buffers.
        """
        codes = flat_codes.take(gather_index)
        nodes = np.zeros(m, dtype=np.int32)
        scratch = np.empty(m, dtype=np.int32)
        for step in range(length):
            # Same row-offset arithmetic as the general path: table values
            # are pre-scaled node offsets, codes index columns.
            np.add(nodes, codes[step], out=scratch)
            transitions.take(scratch, out=nodes)
        if length:
            nodes //= self._vocab_size
        return counts_zero.take(nodes)

    def query_many(self, patterns: Sequence[str]) -> np.ndarray:
        """Alias of :meth:`batch_query` — the :class:`repro.api.PrivateCounter`
        spelling, so compiled and in-memory structures expose one batched
        query surface."""
        return self.batch_query(patterns)

    def _advance_sparse(self, nodes: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """One batch step by binary search on ``edge_keys`` — the fallback
        when the alphabet is too large for a dense transition table."""
        num_edges = self._edge_keys.size
        if num_edges == 0:
            return np.full(nodes.size, self._dead, dtype=np.int32)
        keys = nodes.astype(np.int64) * self._vocab_size + codes
        found_at = np.minimum(np.searchsorted(self._edge_keys, keys), num_edges - 1)
        # Code 0 (unknown character) never occurs among edge keys, and the
        # dead state's keys are past every real key, so misses stay dead.
        hit = self._edge_keys[found_at] == keys
        return np.where(hit, self._edge_targets[found_at], self._dead).astype(
            np.int32
        )

    # ------------------------------------------------------------------
    # Mining (post-processing, same contract as PrivateCountingTrie.mine)
    # ------------------------------------------------------------------
    def pattern_of(self, node: int) -> str:
        """The string spelled from the root to node ``node``."""
        chars: list[str] = []
        while node > 0:
            chars.append(self._chars[self._parent_codes[node]])
            node = int(self._parents[node])
        return "".join(reversed(chars))

    def mine(
        self,
        threshold: float,
        *,
        min_length: int = 1,
        max_length: int | None = None,
        exact_length: int | None = None,
    ) -> list[tuple[str, float]]:
        """All stored patterns whose noisy count reaches ``threshold``."""
        mask = ~np.isnan(self._counts)
        mask &= np.where(np.isnan(self._counts), -np.inf, self._counts) >= threshold
        mask &= self._depths >= max(1, min_length)
        if exact_length is not None:
            mask &= self._depths == exact_length
        if max_length is not None:
            mask &= self._depths <= max_length
        hits = np.flatnonzero(mask)
        results = [(self.pattern_of(int(v)), float(self._counts[v])) for v in hits]
        results.sort(key=lambda item: (-item[1], item[0]))
        return results

    def items(self) -> Iterator[tuple[str, float]]:
        """``(pattern, noisy count)`` pairs for every stored node."""
        for node in np.flatnonzero(~np.isnan(self._counts)):
            if node > 0:
                yield self.pattern_of(int(node)), float(self._counts[node])

    # ------------------------------------------------------------------
    # Payloads (repro.api.PrivateCounter)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The same payload :meth:`PrivateCountingTrie.to_dict` produces for
        the source structure (both assemble it through
        :func:`repro.core.private_trie.release_payload`) — compiling is
        lossless for everything a release carries (stored counts, metadata,
        report), so a compiled trie can be persisted and shipped through the
        same stores."""
        root_count = float(self._counts[0])
        return release_payload(
            {pattern: count for pattern, count in self.items()},
            None if math.isnan(root_count) else root_count,
            self.metadata,
            self.report,
        )

    def to_json(self) -> str:
        """Canonical JSON of :meth:`to_payload` — byte-identical to the
        source structure's :meth:`PrivateCountingTrie.to_json`, which is what
        lets :meth:`repro.serving.ReleaseStore.save` accept compiled tries
        directly."""
        return payload_json(self.to_payload())

    def content_digest(self) -> str:
        """SHA-256 of :meth:`to_json` (equal to the source structure's)."""
        return payload_digest(self.to_json())

    def release(self, store, name: str = "release", *, format: str | None = None):
        """Persist this compiled trie as the next version of release
        ``name`` in ``store`` (same contract as
        :meth:`PrivateCountingTrie.release`; binary saves serialize the
        arrays directly, with no object-trie detour)."""
        if format is not None:
            return store.save(name, self, format=format)
        return store.save(name, self)

    @classmethod
    def from_payload(cls, payload: dict, *, cache_size: int = 4096) -> "CompiledTrie":
        """Compile a structure straight from a :meth:`to_payload` /
        ``PrivateCountingTrie.to_dict`` payload."""
        return cls.from_structure(
            PrivateCountingTrie.from_dict(payload), cache_size=cache_size
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self._counts.size)

    @property
    def num_stored_patterns(self) -> int:
        stored = ~np.isnan(self._counts)
        stored[0] = False
        return int(stored.sum())

    @property
    def error_bound(self) -> float:
        return self.metadata.error_bound

    def arrays(self) -> dict[str, np.ndarray]:
        """The nine canonical flat arrays by name, in the fixed column order
        the binary release format (:mod:`repro.serving.binfmt`) serializes
        them in.  These — plus vocab, metadata and report — fully determine
        the compiled trie; every other array is a derived view."""
        return {
            "counts": self._counts,
            "depths": self._depths,
            "parents": self._parents,
            "parent_codes": self._parent_codes,
            "child_start": self._child_start,
            "child_end": self._child_end,
            "edge_keys": self._edge_keys,
            "edge_labels": self._edge_labels,
            "edge_targets": self._edge_targets,
        }

    def _shared_arrays(self) -> tuple[np.ndarray, ...]:
        """Every numpy array reachable by more than one serving thread.

        Lazily built views are included only once built — checking a fresh
        (e.g. just-mmap'd) instance must not force their construction.
        """
        arrays = list(self.arrays().values())
        arrays.append(self._code_table)
        lazy = self._lazy
        if lazy.counts_ext is not None:
            arrays.append(lazy.counts_ext)
        if lazy.counts_zero is not None:
            arrays.append(lazy.counts_zero)
        if lazy.transitions is not _UNSET and lazy.transitions is not None:
            arrays.append(lazy.transitions)
        return tuple(arrays)

    def assert_immutable(self) -> None:
        """Raise :class:`AssertionError` unless every shared array (and
        every published uniform gather index) is read-only — the snapshot
        guarantee concurrent query paths rely on.  Raised explicitly (not
        via ``assert``) so the check survives ``python -O``."""
        for array in self._shared_arrays():
            if array.flags.writeable:
                raise AssertionError("shared compiled array is writable")
        with self._uniform_lock:
            cached = list(self._uniform_cache.values())
        for index in cached:
            if index.flags.writeable:
                raise AssertionError("published gather index is writable")

    @property
    def nbytes(self) -> int:
        """Total array storage of the compiled form."""
        total = sum(array.nbytes for array in self._shared_arrays())
        with self._uniform_lock:
            total += sum(index.nbytes for index in self._uniform_cache.values())
        return int(total)

    def cache_info(self) -> CacheInfo:
        with self._cache_lock:
            return CacheInfo(
                hits=self._cache_hits,
                misses=self._cache_misses,
                size=len(self._cache),
                max_size=self._cache_max,
            )

    def cache_clear(self) -> None:
        with self._cache_lock:
            self._cache.clear()
            self._cache_hits = 0
            self._cache_misses = 0
