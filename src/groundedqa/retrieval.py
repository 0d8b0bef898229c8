"""Dense pruning of the query subgraph to axiom-relevant triples.

Relevance is the union of two selectors: the k nearest triple verbalizations
to the axiom text by Euclidean distance, and an LLM pick over a bounded
candidate window. The embedder interface is ``embed_many(texts)``, one
row per text (the axiom), and ``embed_triples(kg, ids)``, one row per
triple's verbalization. The reference embedder is a hashed bag of tokens so
offline runs and tests are fully deterministic; it keeps each scored
triple's bucket counts per KG, because pruning scores the same subgraphs
again and again, and from those counts it shortlists the candidates that
can reach the top k, so only they are scored exactly. Any other embedder
can be dropped in behind the same interface.
"""

from __future__ import annotations

import functools
import mmap
import re
import threading
import weakref
from typing import Collection, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .axioms import Axiom, serialize_axiom
from .kg import KnowledgeGraph, Subgraph, Triple, drop_ids, id_array
from .llm import ask, parse_select
from .prompts import number_lines, render_prompt
from .trace import Audit

DEFAULT_DIMENSION = 256
DEFAULT_LLM_WINDOW = 40

# Rows embedded and scored at once by top_k_similar. This bounds the memory a
# call holds, and past it the per-chunk numpy overhead is already small, so it
# is a constant rather than a tuning knob (see README "Retrieval scoring").
SCORE_CHUNK = 256

# δ, a bound on the float error of a shortlist distance. _TripleRows.sq_distances
# approximates each candidate's squared distance to the query, a_i, within δ
# of the square of the distance top_k_similar computes, d_i (the error is
# about 1e-15). That holds in any summation order: r·q sums one non-negative
# term per non-zero query bucket, so any order errs by at most about
# (terms × 2⁻⁵³) of r·q <= 1. Let A_k be the k-th smallest a_i. At least k
# candidates then have d² <= A_k + δ, so every triple of the true top k has
# d² <= A_k + δ and a_i <= A_k + 2δ: keeping every candidate with
# a_i <= A_k + 2δ keeps the whole true top k. The exact pass orders any such
# subset by (distance, id) as it orders the full set, so it returns the same
# k ids in the same order.
SHORTLIST_DELTA = 1e-9

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 2**64


class Embedder(Protocol):
    dimension: int

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One float64 row per text, shape ``(len(texts), dimension)``."""
        ...

    def embed_triples(self, kg: KnowledgeGraph, triple_ids: Sequence[int]) -> np.ndarray:
        """A new float64 array, shape ``(len(triple_ids), dimension)``.

        Row i is ``embed_many([verbalize(kg, kg.triple(triple_ids[i]))])[0]``;
        the caller may modify the array. ``top_k_similar`` passes the ids as
        an ``np.intp`` array.
        """
        ...


@functools.lru_cache(maxsize=1 << 16)
def _fnv1a_64(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) % _U64
    return h


def _bucket_indices(text: str, dimension: int) -> list[int]:
    """The bucket of each token of ``text``, in token order."""
    return [
        _fnv1a_64(token) % dimension
        for token in _TOKEN_SPLIT.split(text.lower())
        if token
    ]


def _bucket_counts(texts: Sequence[str], dimension: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer bucket counts, shape ``(len(texts), dimension)``, row norms and token total.

    A zero row's norm is 1.0, so dividing by the norms leaves it zero. The
    sums of squares are exact integers, so ``counts / norms[:, None]`` equals
    a one-text-at-a-time float embedding bit for bit. No count exceeds the
    token total.
    """
    flat = [
        row * dimension + bucket
        for row, text in enumerate(texts)
        for bucket in _bucket_indices(text, dimension)
    ]
    n = len(texts)
    counts = np.bincount(
        np.asarray(flat, dtype=np.intp), minlength=n * dimension,
    ).reshape(n, dimension)
    # a nonzero row's sum of squares is at least 1, so only zero rows change
    norms = np.sqrt(np.maximum(np.vecdot(counts, counts), 1))
    return counts, norms, len(flat)


class _TripleRows:
    """Bucket counts of one KG's scored triples, one column per distinct triple.

    ``slots[tid]`` is the column of triple ``tid``, or -1 until it is first
    scored. ``counts`` is bucket-major, shape ``(dimension, capacity)``, so
    the shortlist reads the query's few buckets as whole rows. ``counts``,
    ``norms`` and ``sq_norms`` grow by doubling; columns below ``size`` are
    never rewritten, so a reader that sees a published slot finds its column
    in whichever array it reads.
    """

    def __init__(self, n_triples: int, dimension: int):
        self.slots = np.full(n_triples, -1, dtype=np.int32)
        self.counts = np.empty((dimension, 0), dtype=np.uint8)
        self.norms = np.empty(0)
        self.sq_norms = np.empty(0)  # a row's squared length: 1.0, or 0.0 for a zero row
        self.size = 0

    def rows(self, slots: np.ndarray) -> np.ndarray:
        """The embedding rows of ``slots``, C-contiguous, as ``np.vecdot`` needs them."""
        rows = np.empty((len(slots), self.counts.shape[0]))
        np.divide(self.counts.take(slots, axis=1).T, self.norms[slots, None], out=rows)
        return rows

    def fill(self, kg: KnowledgeGraph, triple_ids: np.ndarray) -> None:
        """Store the rows of ``triple_ids`` not stored yet; the caller holds the lock.

        A miss is mostly a handful of ids, so the bookkeeping runs on Python
        ints: each numpy call it saves is dearer than the loop it replaces.
        """
        slots = self.slots[triple_ids].tolist()
        missing = list(dict.fromkeys(
            tid for tid, slot in zip(triple_ids.tolist(), slots) if slot < 0
        ))
        if not missing:
            return
        dimension = self.counts.shape[0]
        counts, norms, top = _bucket_counts(_verbalized(kg.labels, kg.rows(missing)), dimension)
        bits = 8 * self.counts.itemsize
        if top >> bits:  # the token total bounds the counts; find the real top
            top = int(counts.max())
        start, end = self.size, self.size + len(missing)
        if end > self.counts.shape[1] or top >> bits:
            dtype = np.promote_types(self.counts.dtype, np.min_scalar_type(top))
            capacity = max(end, 2 * self.counts.shape[1])
            grown = _bucket_major(dimension, capacity, dtype)
            grown[:, :start] = self.counts[:, :start]
            self.counts = grown
            self.norms = _grown(self.norms, start, capacity)
            self.sq_norms = _grown(self.sq_norms, start, capacity)
        self.counts[:, start:end] = counts.T
        self.norms[start:end] = norms
        self.sq_norms[start:end] = counts.any(axis=1)
        # publish the slots only once their rows, norms and squared lengths are written
        for slot, tid in enumerate(missing, start):
            self.slots[tid] = slot
        self.size = end

    def sq_distances(self, slots: np.ndarray, query_vec: np.ndarray) -> np.ndarray:
        """Squared distances of the stored rows to ``query_vec``, within ``SHORTLIST_DELTA``.

        Rows have length 1 or 0, so |r - q|² = |r|² + |q|² - 2 r·q, and r·q
        reads only the query's non-zero buckets: a few rows of ``counts``.
        """
        nz = np.flatnonzero(query_vec)
        dots = query_vec[nz] @ self.counts[nz].take(slots, axis=1) / self.norms[slots]
        return self.sq_norms[slots] + np.vecdot(query_vec, query_vec) - 2 * dots


def _grown(values: np.ndarray, keep: int, capacity: int) -> np.ndarray:
    """A ``capacity``-long float64 copy of ``values``' first ``keep`` entries."""
    grown = np.empty(capacity)
    grown[:keep] = values[:keep]
    return grown


# numpy advises huge pages for an array of this many bytes or more
_HUGE_PAGE_ARRAY_BYTES = 4 << 20


def _bucket_major(dimension: int, capacity: int, dtype) -> np.ndarray:
    """An uninitialised ``(dimension, capacity)`` array for the store's counts.

    Each bucket row spans the whole capacity, so filling the first columns
    touches every row. With huge pages that makes the whole buffer resident;
    with small pages only about ``dimension`` × the filled columns' bytes
    are. A large buffer therefore comes from an anonymous mapping advised
    against huge pages, where the platform allows it; an untouched page of
    a mapping costs no memory.
    """
    nbytes = dimension * capacity * np.dtype(dtype).itemsize
    if nbytes < _HUGE_PAGE_ARRAY_BYTES or not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.empty((dimension, capacity), dtype=dtype)
    buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=dtype).reshape(dimension, capacity)


class HashedEmbedder:
    """Hashed bag-of-tokens embedding: deterministic and dependency-free.

    Tokens are lowercased alphanumeric runs; each token's FNV-1a 64-bit hash
    mod the dimension increments a bucket, then the vector is L2-normalized.
    Empty text embeds to the zero vector.

    The embedder holds state: for each KG object it has scored triples of, the
    bucket counts of those triples (``embed_triples``). The store is keyed by
    the KG object, not by its content, so a KG built with other labels (say by
    ``KnowledgeGraph.extended``) starts empty and is never served another
    KG's rows, and it is freed together with its KG. One embedder may be
    shared by concurrent evaluations: ``_stored`` is the one place that
    creates or fills a store, under the embedder's lock.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._stores: weakref.WeakKeyDictionary[KnowledgeGraph, _TripleRows] = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.Lock()

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, shape ``(len(texts), dimension)``."""
        counts, norms, _ = _bucket_counts(texts, self.dimension)
        return counts / norms[:, None]

    def embed_triples(self, kg: KnowledgeGraph, triple_ids: Sequence[int]) -> np.ndarray:
        """Rows of ``embed_many`` over the triples' verbalizations, from the KG's store.

        Ids must lie in ``[0, len(kg))``. Triples not scored before are
        stored first (see ``_stored``).
        """
        store, slots = self._stored(kg, np.asarray(triple_ids, dtype=np.intp))
        return store.rows(slots)

    def _stored(
        self, kg: KnowledgeGraph, triple_ids: np.ndarray,
    ) -> tuple[_TripleRows, np.ndarray]:
        """The KG's store and the slots of ``triple_ids``, each of them filled.

        The one writer of the stores: slots are read without the lock; a miss
        creates the store if needed and fills it, ``SCORE_CHUNK`` ids at a
        time, under the lock.
        """
        store = self._stores.get(kg)
        if store is not None:
            slots = store.slots[triple_ids]
            if slots.min(initial=0) >= 0:
                return store, slots
        with self._lock:
            store = self._stores.get(kg)
            if store is None:
                store = self._stores[kg] = _TripleRows(len(kg), self.dimension)
            for start in range(0, len(triple_ids), SCORE_CHUNK):
                store.fill(kg, triple_ids[start:start + SCORE_CHUNK])
        return store, store.slots[triple_ids]


def _verbalized(labels: Mapping[str, str], rows: Iterable[tuple[str, str, str]]) -> list[str]:
    """The one formatter: each (head, relation, tail) row as one readable line.

    ``labels.get(x, x)`` is ``KnowledgeGraph.label_of``, and a tail that is
    a known entity is exactly a tail with a label, so the tail reads as its
    label or, failing that, as the literal it is.
    """
    get = labels.get
    return [f"{get(h, h)} {r} {get(t, t)}" for h, r, t in rows]


def verbalize(kg: KnowledgeGraph, triple: Triple) -> str:
    """Readable one-line form: head label, relation, tail label or literal."""
    return _verbalized(kg.labels, [(triple.head, triple.relation, triple.tail)])[0]


def numbered_triples(kg: KnowledgeGraph, triple_ids: Sequence[int]) -> str:
    """The triples as the LLM sees them: a 1-based numbered list of verbalizations."""
    return number_lines(_verbalized(kg.labels, kg.rows(triple_ids)))


def top_k_similar(
    embedder: Embedder,
    axiom_text: str,
    kg: KnowledgeGraph,
    triple_ids: Iterable[int],
    k: int,
    exclude: Collection[int] = frozenset(),
) -> list[int]:
    """The k candidate triples nearest to the axiom text.

    Ascending Euclidean distance between embeddings, ties broken by smaller
    triple id; excluded ids never appear. Any iterable of ids works; a
    sorted, distinct ``np.intp`` array such as ``Subgraph.ids`` is used as
    it is. When the rows come from a ``HashedEmbedder``'s own store, one
    lookup of the candidates' slots serves a shortlist of those that can
    reach the top k (see ``SHORTLIST_DELTA``) and the exact pass over it.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    candidates = drop_ids(id_array(triple_ids), exclude)
    if k == 0 or not len(candidates):
        return []
    if candidates[0] < 0 or candidates[-1] >= len(kg):
        raise ValueError(f"triple ids must lie in [0, {len(kg)})")
    query_vec = embedder.embed_many([axiom_text])[0]
    rows_of, keys = functools.partial(embedder.embed_triples, kg), candidates
    # the shortlist bounds the distances of the store's rows, so an embedder
    # that gives other rows keeps the full candidate list
    if getattr(embedder.embed_triples, "__func__", None) is HashedEmbedder.embed_triples:
        store, slots = embedder._stored(kg, candidates)
        if len(candidates) > k:
            approx = store.sq_distances(slots, query_vec)
            keep = approx <= np.partition(approx, k - 1)[k - 1] + 2 * SHORTLIST_DELTA
            candidates, slots = candidates[keep], slots[keep]
        rows_of, keys = store.rows, slots
    dists = np.empty(len(candidates))
    for start in range(0, len(candidates), SCORE_CHUNK):
        diff = rows_of(keys[start:start + SCORE_CHUNK])
        diff -= query_vec
        # vecdot reduces each C-contiguous row like the BLAS ddot behind
        # np.linalg.norm on one vector; einsum, (d*d).sum(1) or a strided row
        # differ in the last bit on some rows, which reorders equal-looking
        # distances and changes the picks.
        np.sqrt(np.vecdot(diff, diff), out=dists[start:start + SCORE_CHUNK])
    # candidates ascend by id, so a stable sort breaks ties by smaller id
    order = np.argsort(dists, kind="stable")[:k]
    return candidates[order].tolist()


def llm_select_triples(
    backend,
    kg: KnowledgeGraph,
    axiom: Axiom,
    candidate_ids: Sequence[int],
    audit: Audit,
) -> set[int]:
    """LLM pick over a 1-based numbered candidate list; invalid indices dropped."""
    candidates = list(candidate_ids)
    prompt = render_prompt(
        "triple_select",
        {"axiom_text": serialize_axiom(axiom),
         "numbered_triples": numbered_triples(kg, candidates)},
    )
    parsed = ask(backend, "triple_select", prompt,
                 lambda r: parse_select(r, len(candidates)), audit)
    if parsed is None:
        return set()
    indices, dropped = parsed
    for token in dropped:
        audit.event(f"triple_select: dropped invalid index {token!r}")
    return {candidates[i - 1] for i in indices}


def prune_subgraph(
    embedder: Embedder,
    backend,
    kg: KnowledgeGraph,
    axiom: Axiom,
    subgraph: Subgraph,
    k: int,
    consumed: set[int],
    audit: Audit,
    llm_window: int = DEFAULT_LLM_WINDOW,
) -> list[int]:
    """Union of embedding top-k and LLM selection, skipping consumed triples.

    The picked ids, ascending, are also added to ``consumed``.
    """
    available = drop_ids(subgraph.ids, consumed)
    top_ids = top_k_similar(
        embedder, serialize_axiom(axiom), kg, available, k,
    )
    window = available[:llm_window].tolist()
    llm_ids = llm_select_triples(backend, kg, axiom, window, audit) if window else set()
    picked = sorted(set(top_ids) | llm_ids)
    consumed.update(picked)
    return picked
