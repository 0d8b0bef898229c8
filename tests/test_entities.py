import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groundedqa import KnowledgeGraph, Query, ScriptedBackend, anchor_entities, link_lexical, normalize
from groundedqa.entities import extract_entities_llm
from groundedqa.trace import Audit


def test_query_invariants():
    with pytest.raises(ValueError):
        Query(text="")
    with pytest.raises(ValueError):
        Query(text="x", task="multiple_choice")  # options required
    with pytest.raises(ValueError):
        Query(text="x", options=("a",), task="qa_yes_no")


def test_link_lexical_finds_both_names(small_kg):
    found = link_lexical(small_kg, "Did Alan Turing suffer from the same fate as Abraham Lincoln?")
    assert found == ["A", "B"]


def test_link_lexical_no_match(small_kg):
    assert link_lexical(small_kg, "nothing relevant here") == []


def test_link_lexical_longest_match_wins():
    kg = KnowledgeGraph(
        triples=[("NY", "r", "x"), ("Y", "r", "x")],
        labels=[("NY", "New York"), ("Y", "York")],
    )
    assert link_lexical(kg, "I arrived in New York yesterday") == ["NY"]


def test_link_lexical_word_boundaries():
    kg = KnowledgeGraph(triples=[("Y", "r", "x")], labels=[("Y", "York")])
    assert link_lexical(kg, "in New Yorkshire") == []



def full_scan_link(kg, query_text):
    """The linker as it was before span lookup: sort every alias, scan for each."""
    nq = normalize(query_text)
    claimed = []
    hits = []
    surfaces = sorted(kg.alias_index().items(), key=lambda kv: (-len(kv[0]), kv[0]))
    for surface, ids in surfaces:
        if not surface:
            continue
        start = 0
        while True:
            i = nq.find(surface, start)
            if i < 0:
                break
            j = i + len(surface)
            boundary = (i == 0 or not nq[i - 1].isalnum()) and (
                j == len(nq) or not nq[j].isalnum()
            )
            overlaps = any(i < ce and cs < j for cs, ce in claimed)
            if boundary and not overlaps:
                claimed.append((i, j))
                hits.append((i, ids))
            start = i + 1
    result = []
    for _, ids in sorted(hits, key=lambda h: h[0]):
        for entity_id in ids:
            if entity_id not in result:
                result.append(entity_id)
    return result


# Few letters, so surfaces overlap and collide; punctuation and spaces at any
# position; non-ASCII letters, including one whose lowercase is longer.
_ALPHABET = "abéßİ -.,'"
_surfaces = st.text(alphabet=_ALPHABET, min_size=1, max_size=7)


@st.composite
def kg_and_query(draw):
    surfaces = draw(st.lists(_surfaces, min_size=1, max_size=8))
    # several entities may share a surface, and an entity may have several
    labels = [(f"E{draw(st.integers(0, 4))}", surface) for surface in surfaces]
    kg = KnowledgeGraph(triples=[(f"E{n}", "r", "x") for n in range(5)], labels=labels)
    pieces = draw(st.lists(
        st.one_of(st.sampled_from(surfaces), st.text(alphabet=_ALPHABET, max_size=4)),
        max_size=6,
    ))
    separator = draw(st.sampled_from(["", " ", "-", ", ", "a"]))
    query = separator.join(pieces) or draw(_surfaces)
    return kg, query


@settings(max_examples=400, deadline=None)
@given(kg_and_query())
@example((KnowledgeGraph([("E0", "r", "x")], [("E0", "a long alias")]), "a"))
@example((KnowledgeGraph([("E0", "r", "x")], [("E0", "-ab"), ("E1", "ab.")]), "x -ab. y -ab."))
@example((KnowledgeGraph([("E0", "r", "x")], [("E0", "ab a"), ("E1", "a ab")]), "ab a ab"))
def test_span_lookup_matches_full_scan(case):
    kg, query = case
    assert link_lexical(kg, query) == full_scan_link(kg, query)


def test_extended_kg_links_a_delta_alias_longer_than_every_base_alias():
    base = KnowledgeGraph(triples=[("R", "in", "Italy")], labels=[("R", "Rome")])
    longer = "the grand duchy of somewhere far away"
    kg = base.extended([("P", "near", "R")], [("P", longer)])
    assert kg.max_alias_len() == len(longer) > base.max_alias_len()
    assert link_lexical(kg, f"Is {longer.title()} near Rome?") == ["P", "R"]
    assert link_lexical(base, f"Is {longer} near Rome?") == ["R"]


def test_extract_entities_parses_semicolon_list():
    backend = ScriptedBackend(
        {"entity_extract": ["ENTITIES: Venus of Willendorf; 2024 Summer Olympics"]}
    )
    names = extract_entities_llm(backend, "whatever", Audit())
    assert names == ["Venus of Willendorf", "2024 Summer Olympics"]


def test_extract_entities_empty_list():
    backend = ScriptedBackend({"entity_extract": ["ENTITIES:"]})
    assert extract_entities_llm(backend, "q", Audit()) == []


def test_extract_entities_garbage_audits():
    backend = ScriptedBackend({"entity_extract": ["no entities line at all"]})
    audit = Audit()
    assert extract_entities_llm(backend, "q", audit) == []
    assert audit.parse_failures == 1


def test_anchor_entities_union_and_provenance(small_kg):
    backend = ScriptedBackend(
        {"entity_extract": ["ENTITIES: Alan Turing; New York"]}
    )
    query = Query(text="Did Alan Turing visit anywhere?")
    anchors, lexical, llm_names, unresolved = anchor_entities(small_kg, backend, query, Audit())
    assert lexical == ["A"]
    assert anchors.entities == ["A", "C"]
    assert anchors.provenance == {"A": "lexical", "C": "llm"}
    assert unresolved == []


def test_anchor_entities_drops_unresolvable_names(small_kg):
    backend = ScriptedBackend({"entity_extract": ["ENTITIES: Atlantis; Nowhere"]})
    audit = Audit()
    query = Query(text="anything about nothing")
    anchors, _, _, unresolved = anchor_entities(small_kg, backend, query, audit)
    assert anchors.entities == []
    assert unresolved == ["Atlantis", "Nowhere"]
    assert audit.unresolved_names == 2


def test_anchor_entities_superset_of_lexical(small_kg):
    backend = ScriptedBackend({"entity_extract": ["ENTITIES:"]})
    query = Query(text="Alan Turing and Abraham Lincoln")
    anchors, lexical, _, _ = anchor_entities(small_kg, backend, query, Audit())
    assert set(lexical) <= set(anchors.entities)
    assert anchors.entities == ["A", "B"]


def test_anchor_entities_deterministic(small_kg):
    def run():
        backend = ScriptedBackend({"entity_extract": ["ENTITIES: New York"]})
        query = Query(text="Alan Turing in New York")
        anchors, *_ = anchor_entities(small_kg, backend, query, Audit())
        return anchors.entities, anchors.provenance

    assert run() == run()
