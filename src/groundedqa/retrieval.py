"""Dense pruning of the query subgraph to axiom-relevant triples.

Relevance is the union of two selectors: the k nearest triple verbalizations
to the axiom text by Euclidean distance, and an LLM pick over a bounded
candidate window. The embedder interface is ``embed_many(texts)``, one
row per text; the reference embedder is a hashed bag of tokens so offline
runs and tests are fully deterministic, and any other embedder can be
dropped in behind the same interface.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Protocol, Sequence

import numpy as np

from .axioms import Axiom, serialize_axiom
from .kg import KnowledgeGraph, Subgraph, Triple
from .llm import LlmRequest, parse_select
from .prompts import number_lines, render_prompt
from .trace import Audit

DEFAULT_DIMENSION = 256
DEFAULT_LLM_WINDOW = 40

# Rows embedded and scored at once by top_k_similar. This bounds the memory a
# call holds (larger chunks raised peak RSS on whole-KG retrieval), so it is
# a constant rather than a tuning knob.
SCORE_CHUNK = 64

# Texts whose bucket indices embed_many remembers, per (text, dimension).
# Retrieval verbalizes the same triples again and again, so most lookups hit;
# the bound keeps whole-KG retrieval from holding every text it ever saw.
BUCKET_MEMO_SIZE = 1 << 15

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 2**64


class Embedder(Protocol):
    dimension: int

    def embed_many(self, texts: Sequence[str]) -> np.ndarray: ...


@functools.lru_cache(maxsize=1 << 16)
def _fnv1a_64(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) % _U64
    return h


@functools.lru_cache(maxsize=BUCKET_MEMO_SIZE)
def _bucket_indices(text: str, dimension: int) -> tuple[int, ...]:
    """The bucket of each token of ``text``, in token order.

    Keyed by the text, not by a triple id, so a KG whose labels change how a
    triple verbalizes can never be served another KG's buckets.
    """
    return tuple(
        _fnv1a_64(token) % dimension
        for token in _TOKEN_SPLIT.split(text.lower())
        if token
    )


class HashedEmbedder:
    """Hashed bag-of-tokens embedding: deterministic and dependency-free.

    Tokens are lowercased alphanumeric runs; each token's FNV-1a 64-bit hash
    mod the dimension increments a bucket, then the vector is L2-normalized.
    Empty text embeds to the zero vector.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, shape ``(len(texts), dimension)``.

        Bucket counts are small integers, so each row's sum of squares is
        exact whatever the summation order and every row equals what a
        one-text-at-a-time embedding would give, bit for bit.
        """
        dim = self.dimension
        flat = [
            row * dim + bucket
            for row, text in enumerate(texts)
            for bucket in _bucket_indices(text, dim)
        ]
        n = len(texts)
        m = np.bincount(
            np.asarray(flat, dtype=np.intp), minlength=n * dim,
        ).reshape(n, dim).astype(float)
        norms = np.sqrt(np.vecdot(m, m))
        nonzero = norms > 0
        m[nonzero] /= norms[nonzero, None]
        return m


def verbalize(kg: KnowledgeGraph, triple: Triple) -> str:
    """Readable one-line form: head label, relation, tail label or literal."""
    tail_entity = kg.tail_entity(triple)
    tail = kg.label_of(tail_entity) if tail_entity is not None else triple.tail
    return f"{kg.label_of(triple.head)} {triple.relation} {tail}"


def numbered_triples(kg: KnowledgeGraph, triple_ids: Iterable[int]) -> str:
    """The triples as the LLM sees them: a 1-based numbered list of verbalizations."""
    return number_lines([verbalize(kg, kg.triple(tid)) for tid in triple_ids])


def top_k_similar(
    embedder: Embedder,
    axiom_text: str,
    kg: KnowledgeGraph,
    triple_ids: Iterable[int],
    k: int,
    exclude: set[int] = frozenset(),
) -> list[int]:
    """The k candidate triples nearest to the axiom text.

    Ascending Euclidean distance between embeddings, ties broken by smaller
    triple id; excluded ids never appear.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    candidates = sorted(set(triple_ids) - set(exclude))
    if k == 0 or not candidates:
        return []
    query_vec = embedder.embed_many([axiom_text])[0]
    dists = []
    for start in range(0, len(candidates), SCORE_CHUNK):
        diff = embedder.embed_many([verbalize(kg, kg.triple(tid))
                                    for tid in candidates[start:start + SCORE_CHUNK]])
        diff -= query_vec
        # vecdot reduces each row like the BLAS ddot behind np.linalg.norm on
        # one vector; einsum or (d*d).sum(1) differ in the last bit on some
        # rows, which reorders equal-looking distances and changes the picks.
        dists.append(np.sqrt(np.vecdot(diff, diff)))
    # candidates ascend by id, so a stable sort breaks ties by smaller id
    order = np.argsort(np.concatenate(dists), kind="stable")[:k]
    return [candidates[i] for i in order]


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
    response = backend.complete(LlmRequest(role="triple_select", rendered_prompt=prompt))
    parsed = parse_select(response, len(candidates))
    if parsed is None:
        audit.parse_failures += 1
        audit.event("triple_select: unparseable response")
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
    available = sorted(set(subgraph.triple_ids) - consumed)
    top_ids = top_k_similar(
        embedder, serialize_axiom(axiom), kg, available, k,
    )
    window = available[:llm_window]
    llm_ids = llm_select_triples(backend, kg, axiom, window, audit) if window else set()
    picked = sorted(set(top_ids) | llm_ids)
    consumed.update(picked)
    return picked
