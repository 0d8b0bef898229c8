"""Batched embedding and top-k scoring against one-at-a-time references.

The references below are the per-text embedding and per-row distance loop
that the batched code replaced. Results must match them bit for bit,
because equal distances are common and a last-bit difference reorders them.
"""

import random
import re

import numpy as np
import pytest

from groundedqa import HashedEmbedder, KnowledgeGraph
from groundedqa.retrieval import SCORE_CHUNK, _bucket_indices, _fnv1a_64, top_k_similar, verbalize

WORDS = ["rome", "mayor", "age", "spouse", "fate", "blue", "45", "x", "née"]
TEXTS = [
    "",
    "   ",
    "Rome",
    "rome rome rome mayor",
    "x x x x x x x x x x x x",
    "née",
    "Née Bérénice, 東京 2024!",
    "age 45 -- spouse of the mayor of Rome",
    "!!!",
]


def _ref_fnv1a_64(token):
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def _ref_embed(text, dimension):
    vec = np.zeros(dimension)
    for token in re.split(r"[^a-z0-9]+", text.lower()):
        if token:
            vec[_ref_fnv1a_64(token) % dimension] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def _ref_top_k(dimension, axiom_text, kg, ids, k, exclude=frozenset()):
    qv = _ref_embed(axiom_text, dimension)
    scored = sorted(
        (float(np.linalg.norm(_ref_embed(verbalize(kg, kg.triple(t)), dimension) - qv)), t)
        for t in set(ids) - set(exclude)
    )
    return [tid for _, tid in scored[:k]]


def test_fnv_cache_returns_uncached_values():
    tokens = ["", "a", "rome", "née", "東京", "45", "x" * 300] + [f"t{i}" for i in range(500)]
    for _ in range(2):  # second pass is served from the cache
        assert [_fnv1a_64(t) for t in tokens] == [_ref_fnv1a_64(t) for t in tokens]


@pytest.mark.parametrize("dimension", [256, 7])
def test_embed_many_rows_equal_per_text_reference_bit_for_bit(dimension):
    e = HashedEmbedder(dimension)
    m = e.embed_many(TEXTS)
    assert m.shape == (len(TEXTS), dimension) and m.dtype == np.float64
    for i, text in enumerate(TEXTS):
        ref = _ref_embed(text, dimension)
        assert m[i].tobytes() == ref.tobytes(), text
        assert e.embed(text).tobytes() == ref.tobytes(), text
    assert not m[0].any() and not m[1].any()  # empty text embeds to zero
    assert e.embed_many([]).shape == (0, dimension)



@pytest.mark.parametrize("dimension", [256, 7])
def test_embed_many_rows_equal_with_cold_and_warm_memo(dimension):
    e = HashedEmbedder(dimension)
    ref = np.stack([_ref_embed(text, dimension) for text in TEXTS])
    _bucket_indices.cache_clear()
    cold = e.embed_many(TEXTS)
    assert _bucket_indices.cache_info().currsize == len(set(TEXTS))
    warm = e.embed_many(TEXTS)
    assert _bucket_indices.cache_info().hits == len(TEXTS)
    assert cold.tobytes() == warm.tobytes() == ref.tobytes()


def test_bucket_memo_is_keyed_by_dimension():
    text = TEXTS[-2]
    _bucket_indices.cache_clear()
    HashedEmbedder(7).embed_many([text])
    row = HashedEmbedder(256).embed_many([text])[0]
    assert row.tobytes() == _ref_embed(text, 256).tobytes()

def _tie_heavy_kg(seed, n=2000):
    rng = random.Random(seed)
    return KnowledgeGraph([
        (
            f"E{rng.randrange(20)}",
            rng.choice(WORDS),
            " ".join(rng.choices(WORDS, k=rng.randrange(1, 4))),
        )
        for _ in range(n)
    ])


def _cases(kg, seed):
    """(query, ids, k, exclude) around the chunk boundary, with and without exclude."""
    rng = random.Random(seed)
    all_ids = [t.id for t in kg.triples]
    for n in (1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 1000):
        for with_exclude in (False, True):
            extra = n // 3 + 1 if with_exclude else 0
            ids = rng.sample(all_ids, n + extra)
            # n ids remain: the excluded ones are passed ids plus a few never passed
            exclude = (set(ids[n:]) | (set(rng.sample(all_ids, 5)) - set(ids[:n]))
                       if with_exclude else set())
            for k in (0, 1, 10, n + 5):
                yield " ".join(rng.choices(WORDS, k=3)), ids, k, exclude


@pytest.mark.parametrize("embedder", [HashedEmbedder()], ids=["embed_many"])
def test_top_k_equals_per_row_norm_brute_force(embedder):
    kg = _tie_heavy_kg(11)
    checked = 0
    for text, ids, k, exclude in _cases(kg, 12):
        got = top_k_similar(embedder, text, kg, ids, k, exclude=exclude)
        want = _ref_top_k(256, text, kg, ids, k, exclude)
        assert got == want, (len(ids), k, len(exclude))
        assert not set(got) & exclude
        checked += 1
    assert checked == 5 * 2 * 4


def test_tie_heavy_kg_has_equal_distances():
    """The brute-force check above is only sharp if equal distances occur."""
    kg = _tie_heavy_kg(11)
    qv = _ref_embed("rome mayor age", 256)
    dists = [
        float(np.linalg.norm(_ref_embed(verbalize(kg, t), 256) - qv)) for t in kg.triples
    ]
    assert len(set(dists)) < len(dists) // 10
