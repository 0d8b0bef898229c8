import random

import numpy as np
import pytest

from groundedqa import (
    HashedEmbedder,
    KnowledgeGraph,
    ScriptedBackend,
    parse_axiom,
    prune_subgraph,
    top_k_similar,
    verbalize,
)
from groundedqa.prompts import number_lines
from groundedqa.retrieval import _verbalized, llm_select_triples, numbered_triples
from groundedqa.trace import Audit

from fixture_data import PREFERENCE_KG, PREFERENCE_SHARED_KG, TWO_HOP_KG

AXIOM = parse_axiom("age(Q1) < 20")


def random_kg(rng, n):
    words = ["rome", "paris", "age", "mayor", "spouse", "fate", "blue", "45", "x"]
    triples = [
        (
            f"E{rng.randrange(8)}",
            rng.choice(words),
            " ".join(rng.choices(words, k=rng.randrange(1, 4))),
        )
        for _ in range(n)
    ]
    return KnowledgeGraph(triples)


def brute_force_top_k(embedder, text, kg, triple_ids, k, exclude=frozenset()):
    qv = embedder.embed(text)
    scored = sorted(
        (float(np.linalg.norm(embedder.embed(verbalize(kg, kg.triple(t))) - qv)), t)
        for t in set(triple_ids) - set(exclude)
    )
    return [t for _, t in scored[:k]]


def test_verbalize_uses_labels(small_kg):
    assert verbalize(small_kg, small_kg.triple(0)) == "Alan Turing r Abraham Lincoln"
    assert verbalize(small_kg, small_kg.triple(3)) == "Alan Turing age 45"


def test_verbalize_missing_label_uses_raw_id():
    kg = KnowledgeGraph(triples=[("Q1", "r", "Qx")])
    assert verbalize(kg, kg.triple(0)) == "Q1 r Qx"


def _verbalize_by_lookups(kg, triple):
    """The reference: ``label_of`` for the head, ``tail_entity`` then ``label_of`` for the tail."""
    tail_entity = kg.tail_entity(triple)
    tail = kg.label_of(tail_entity) if tail_entity is not None else triple.tail
    return f"{kg.label_of(triple.head)} {triple.relation} {tail}"


_JAZZ_BASE = KnowledgeGraph(
    [("Sam", "likes", "jazz"), ("Sam", "knows", "Bo"), ("Bo", "age", "29"), ("Sam", "r", "Kim")],
    [("Sam", "Sam Smith"), ("Bo", "Bo Bell")],
)
# the overlay's labels turn the base's literal tail "jazz" into an entity
_JAZZ_OVERLAY = _JAZZ_BASE.extended([("Kim", "likes", "jazz")], [("jazz", "Jazz music")])


@pytest.mark.parametrize("kg", [
    PREFERENCE_SHARED_KG, PREFERENCE_KG, TWO_HOP_KG, _JAZZ_BASE, _JAZZ_OVERLAY,
], ids=["shared", "personal_overlay", "two_hop", "jazz_base", "jazz_overlay"])
def test_the_formatter_equals_label_lookups_on_every_triple(kg):
    ids = list(range(len(kg)))
    want = [_verbalize_by_lookups(kg, kg.triple(i)) for i in ids]
    assert [verbalize(kg, kg.triple(i)) for i in ids] == want
    assert _verbalized(kg.labels, kg.rows(ids)) == want
    assert numbered_triples(kg, ids[::-1]) == number_lines(want[::-1])


def test_an_overlay_label_turns_a_literal_tail_into_an_entity():
    assert verbalize(_JAZZ_BASE, _JAZZ_BASE.triple(0)) == "Sam Smith likes jazz"
    assert verbalize(_JAZZ_OVERLAY, _JAZZ_OVERLAY.triple(0)) == "Sam Smith likes Jazz music"
    assert verbalize(_JAZZ_OVERLAY, _JAZZ_OVERLAY.triple(-1)) == "Kim likes Jazz music"


def test_prompts_and_a_cold_store_fill_build_no_triple(monkeypatch):
    kg = _JAZZ_OVERLAY
    ids = list(range(len(kg)))
    want_lines = numbered_triples(kg, ids)
    want_rows = HashedEmbedder().embed_triples(kg, ids)
    calls = []
    real = KnowledgeGraph.triple
    monkeypatch.setattr(KnowledgeGraph, "triple", lambda self, i: calls.append(i) or real(self, i))
    assert numbered_triples(kg, ids) == want_lines
    assert np.array_equal(HashedEmbedder().embed_triples(kg, ids), want_rows)
    assert calls == []
    kg.triple(0)
    assert calls == [0]  # the guard sees a call


def test_hashed_embedder_is_deterministic_and_normalized():
    e = HashedEmbedder()
    v1 = e.embed("Alan Turing age 45")
    v2 = e.embed("Alan Turing age 45")
    assert np.array_equal(v1, v2)
    assert np.isclose(np.linalg.norm(v1), 1.0)
    assert np.array_equal(e.embed(""), np.zeros(e.dimension))


def test_top_k_zero(small_kg):
    e = HashedEmbedder()
    assert top_k_similar(e, "anything", small_kg, [0, 1, 2, 3], 0) == []


def test_top_k_tie_break_by_smaller_id():
    kg = KnowledgeGraph(triples=[("A", "r", "x"), ("A", "r", "x"), ("A", "r", "x")])

    class ConstantEmbedder:
        dimension = 4

        def embed_many(self, texts):
            return np.ones((len(texts), 4))

        def embed_triples(self, kg, triple_ids):
            return np.ones((len(triple_ids), 4))

    assert top_k_similar(ConstantEmbedder(), "q", kg, [0, 1, 2], 2) == [0, 1]


def test_top_k_excludes(small_kg):
    e = HashedEmbedder()
    out = top_k_similar(e, "Alan Turing age", small_kg, [0, 1, 2, 3], 10, exclude={3})
    assert 3 not in out


def test_top_k_matches_brute_force_random():
    rng = random.Random(7)
    e = HashedEmbedder()
    kg = random_kg(rng, 50)
    ids = [t.id for t in kg.triples]
    assert top_k_similar(e, "mayor of rome age", kg, ids, 10) == brute_force_top_k(
        e, "mayor of rome age", kg, ids, 10
    )


def test_top_k_distances_non_decreasing():
    rng = random.Random(3)
    e = HashedEmbedder()
    kg = random_kg(rng, 40)
    out = top_k_similar(e, "spouse of paris", kg, [t.id for t in kg.triples], 15)
    qv = e.embed("spouse of paris")
    dists = [float(np.linalg.norm(e.embed(verbalize(kg, kg.triple(t))) - qv)) for t in out]
    assert dists == sorted(dists)


def test_llm_select_parses_indices(small_kg):
    backend = ScriptedBackend({"triple_select": ["SELECT: 1,3"]})
    out = llm_select_triples(backend, small_kg, AXIOM, [0, 1, 2], Audit())
    assert out == {0, 2}


def test_llm_select_empty(small_kg):
    backend = ScriptedBackend({"triple_select": ["SELECT:"]})
    assert llm_select_triples(backend, small_kg, AXIOM, [0, 1], Audit()) == set()


def test_llm_select_out_of_range_dropped_with_audit(small_kg):
    backend = ScriptedBackend({"triple_select": ["SELECT: 1,9"]})
    audit = Audit()
    out = llm_select_triples(backend, small_kg, AXIOM, [0, 1, 2], audit)
    assert out == {0}
    assert any("9" in e for e in audit.events)


def test_llm_select_unparseable_audits(small_kg):
    backend = ScriptedBackend({"triple_select": ["whatever"]})
    audit = Audit()
    assert llm_select_triples(backend, small_kg, AXIOM, [0], audit) == set()
    assert audit.parse_failures == 1


def test_prune_is_union_of_both_selectors(small_kg):
    backend = ScriptedBackend({"triple_select": ["SELECT: 2"]})
    e = HashedEmbedder()
    sg = small_kg.one_hop_subgraph(["A", "B", "C"])
    consumed = set()
    pruned = prune_subgraph(e, backend, small_kg, AXIOM, sg, 2, consumed, Audit())
    top2 = top_k_similar(e, "age(Q1) < 20", small_kg, sorted(sg.triple_ids), 2)
    assert set(top2) <= set(pruned)
    assert 1 in pruned  # LLM pick: 2nd candidate by triple id
    assert consumed == set(pruned)


def test_prune_empty_subgraph(small_kg):
    backend = ScriptedBackend({})
    sg = small_kg.one_hop_subgraph([])
    pruned = prune_subgraph(HashedEmbedder(), backend, small_kg, AXIOM, sg, 5, set(), Audit())
    assert pruned == []
    assert backend.call_log == []


def test_prune_second_call_draws_from_remaining(small_kg):
    backend = ScriptedBackend({"triple_select": ["SELECT:", "SELECT:"]})
    e = HashedEmbedder()
    sg = small_kg.one_hop_subgraph(["A", "B", "C"])
    consumed = set()
    first = prune_subgraph(e, backend, small_kg, AXIOM, sg, 2, consumed, Audit())
    second = prune_subgraph(e, backend, small_kg, AXIOM, sg, 2, consumed, Audit())
    assert not set(first) & set(second)
    assert set(first) | set(second) == consumed


def test_llm_window_caps_candidates():
    kg = KnowledgeGraph([("A", "r", f"t{i}") for i in range(10)])
    backend = ScriptedBackend({"triple_select": ["SELECT: 3"]})
    sg = kg.one_hop_subgraph(["A"])
    pruned = prune_subgraph(
        HashedEmbedder(), backend, kg, AXIOM, sg, 1, set(), Audit(), llm_window=3,
    )
    prompt = backend.call_log[0][1]
    assert "3. " in prompt and "4. " not in prompt
    assert 2 in pruned
