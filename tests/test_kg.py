import copy
import gc
import re
import sys
import threading
import tracemalloc
import unicodedata
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundedqa import (
    Audit,
    HashedEmbedder,
    KgParseError,
    KnowledgeGraph,
    Query,
    ScriptedBackend,
    anchor_entities,
    answer_multiple_choice,
    link_lexical,
    normalize,
)
from groundedqa import kg as kg_module
from groundedqa.kg import Triple, parse_number

from fixture_data import (
    PERSONAL_KG_TRIPLES,
    PREFERENCE_OPTIONS,
    PREFERENCE_QUERY,
    PREFERENCE_SCRIPT,
    PREFERENCE_SHARED_KG,
)


def test_load_two_lines(tmp_path):
    f = tmp_path / "kg.tsv"
    f.write_text("Q1\tage\t45\nQ1\tcitizenship\tItaly\n", encoding="utf-8")
    kg = KnowledgeGraph.load(f)
    assert len(kg) == 2
    assert kg.head_index["Q1"] == [0, 1]
    assert kg.triple(0).tail == "45"


def test_load_empty_file(tmp_path):
    f = tmp_path / "kg.tsv"
    f.write_text("", encoding="utf-8")
    kg = KnowledgeGraph.load(f)
    assert len(kg) == 0
    assert kg.resolve_label("anything") == []
    assert kg.one_hop_subgraph(["X"]).triple_ids == frozenset()


def test_load_wrong_column_count(tmp_path):
    f = tmp_path / "kg.tsv"
    f.write_text("Q1\tage\n", encoding="utf-8")
    with pytest.raises(KgParseError) as exc:
        KnowledgeGraph.load(f)
    assert exc.value.line_no == 1



def test_load_interns_columns_and_triples_are_immutable(tmp_path):
    f = tmp_path / "kg.tsv"
    f.write_text("Q1\tage\t45\nQ1\tage\t46\n", encoding="utf-8")
    first, second = KnowledgeGraph.load(f).triples
    assert first.head is second.head
    assert first.relation is second.relation
    with pytest.raises(AttributeError):
        first.tail = "47"
    assert first == (0, "Q1", "age", "45")

def test_labels_first_is_primary_rest_aliases(tmp_path):
    triples = tmp_path / "kg.tsv"
    triples.write_text("Q7\tr\tx\n", encoding="utf-8")
    labels = tmp_path / "labels.tsv"
    labels.write_text("Q7\tAlan Turing\nQ7\tA. M. Turing\n", encoding="utf-8")
    kg = KnowledgeGraph.load(triples, labels)
    assert kg.label_of("Q7") == "Alan Turing"
    assert kg.resolve_label("alan turing") == ["Q7"]
    assert kg.resolve_label("a. m. turing") == ["Q7"]


def test_duplicate_alias_maps_to_both_ids():
    kg = KnowledgeGraph(
        triples=[("Q1", "r", "x"), ("Q2", "r", "y")],
        labels=[("Q1", "One"), ("Q2", "Two"), ("Q1", "Shared"), ("Q2", "Shared")],
    )
    assert kg.resolve_label("shared") == ["Q1", "Q2"]


def test_resolve_label_unknown():
    kg = KnowledgeGraph(triples=[("Q1", "r", "x")])
    assert kg.resolve_label("nobody") == []


def test_resolve_label_normalizes():
    kg = KnowledgeGraph(triples=[("Q1", "r", "x")], labels=[("Q1", "Alan  Turing")])
    assert kg.resolve_label("  alan turing ") == ["Q1"]


def test_one_hop_subgraph_basic(small_kg):
    sg = small_kg.one_hop_subgraph(["A"])
    assert sg.triple_ids == frozenset({0, 3})
    assert {small_kg.triple(t).head for t in sg.triple_ids} == {"A"}


def test_one_hop_subgraph_empty_anchors(small_kg):
    assert small_kg.one_hop_subgraph([]).triple_ids == frozenset()


def test_one_hop_matches_brute_force(small_kg):
    anchors = {"A", "B"}
    expected = {t.id for t in small_kg.triples if t.head in anchors}
    assert small_kg.one_hop_subgraph(anchors).triple_ids == expected


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_one_hop_subgraph_oracle_property(data):
    entities = [f"E{i}" for i in range(8)]
    triples = data.draw(
        st.lists(
            st.tuples(st.sampled_from(entities), st.just("r"), st.sampled_from(entities)),
            max_size=60,
        )
    )
    anchors = data.draw(st.lists(st.sampled_from(entities + ["absent"]), max_size=6))
    more = data.draw(st.lists(st.sampled_from(entities), max_size=3))
    kg = KnowledgeGraph(triples)
    brute = {t.id for t in kg.triples if t.head in anchors}
    sg = kg.one_hop_subgraph(anchors)
    assert sg.triple_ids == brute
    grown = sg.union(kg.one_hop_subgraph(more))
    assert grown.triple_ids == brute | {t.id for t in kg.triples if t.head in more}
    for ids, want in ((sg.ids, brute), (grown.ids, grown.triple_ids)):
        # one sorted, distinct, read-only intp array
        assert ids.dtype == np.intp and not ids.flags.writeable
        assert ids.tolist() == sorted(want)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_one_hop_monotone_in_anchors(data):
    entities = [f"E{i}" for i in range(6)]
    triples = data.draw(
        st.lists(
            st.tuples(st.sampled_from(entities), st.just("r"), st.sampled_from(entities)),
            max_size=40,
        )
    )
    a1 = set(data.draw(st.lists(st.sampled_from(entities), max_size=4)))
    a2 = a1 | set(data.draw(st.lists(st.sampled_from(entities), max_size=4)))
    kg = KnowledgeGraph(triples)
    assert kg.one_hop_subgraph(a1).triple_ids <= kg.one_hop_subgraph(a2).triple_ids


# -- the hub cache ----------------------------------------------------------------

def _hub_kg(hub_ids=kg_module.HUB_MIN_IDS + 1):
    """Head "hub" with ``hub_ids`` triples, interleaved with "leaf", which has ``HUB_MIN_IDS``."""
    rows = []
    for i in range(max(hub_ids, kg_module.HUB_MIN_IDS)):
        if i < hub_ids:
            rows.append(("hub", "r", f"t{i}"))
        if i < kg_module.HUB_MIN_IDS:
            rows.append(("leaf", "r", f"t{i}"))
    return KnowledgeGraph(rows)


def test_a_hub_subgraph_is_one_cached_read_only_array():
    kg = _hub_kg()
    assert not kg._head_arrays  # nothing is built at load
    first = kg.one_hop_subgraph(["hub"]).ids
    assert kg.one_hop_subgraph(["hub", "absent"]).ids is first
    assert first.tolist() == kg.head_index["hub"] and first.dtype == np.intp
    with pytest.raises(ValueError):
        first[0] = 1
    both = kg.one_hop_subgraph(["leaf", "hub"]).ids
    assert both.tolist() == list(range(len(kg))) and not both.flags.writeable


def test_a_head_at_the_bound_is_not_cached():
    kg = _hub_kg()
    first, second = (kg.one_hop_subgraph(["leaf"]).ids for _ in range(2))
    assert len(first) == kg_module.HUB_MIN_IDS and first is not second
    assert first.tolist() == second.tolist() == kg.head_index["leaf"]
    assert not first.flags.writeable and not kg._head_arrays


def test_an_overlay_never_serves_the_base_array_of_a_head_its_delta_grew():
    base = _hub_kg()
    cached = base.one_hop_subgraph(["hub"]).ids
    before = list(base.head_index["hub"])
    grown = base.extended([("hub", "r", "new"), ("leaf", "r", "x"), ("hub", "r", "newer")])
    n = len(base)
    assert grown.one_hop_subgraph(["hub"]).ids.tolist() == before + [n, n + 2]
    assert grown.one_hop_subgraph(["hub"]).ids is grown.one_hop_subgraph(["hub"]).ids
    assert base.one_hop_subgraph(["hub"]).ids is cached
    assert cached.tolist() == before and base.head_index["hub"] == before
    untouched = base.extended([("other", "r", "x")])
    assert untouched.one_hop_subgraph(["hub"]).ids.tolist() == before


def test_threads_on_a_fresh_kg_get_equal_hub_arrays():
    kg = _hub_kg(4000)
    n = 8
    got = [None] * n
    start = threading.Barrier(n, timeout=30)

    def work(i):
        start.wait()
        got[i] = kg.one_hop_subgraph(["hub"]).ids

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert all(ids.tolist() == kg.head_index["hub"] for ids in got)
    kept = kg.one_hop_subgraph(["hub"]).ids
    assert any(ids is kept for ids in got) and kg.one_hop_subgraph(["hub"]).ids is kept


def test_save_load_round_trip(tmp_path, small_kg):
    out = tmp_path / "out.tsv"
    small_kg.save(out)
    reloaded = KnowledgeGraph.load(out)
    assert [(t.head, t.relation, t.tail) for t in reloaded.triples] == [
        (t.head, t.relation, t.tail) for t in small_kg.triples
    ]


def test_duplicate_content_lines_get_distinct_ids(tmp_path):
    f = tmp_path / "kg.tsv"
    f.write_text("Q1\tr\tx\nQ1\tr\tx\n", encoding="utf-8")
    kg = KnowledgeGraph.load(f)
    assert len(kg) == 2
    assert kg.triple(0).id == 0 and kg.triple(1).id == 1


def test_extended_keeps_original_untouched(small_kg):
    grown = small_kg.extended([("Sam", "age", "29")])
    assert len(grown) == len(small_kg) + 1
    assert "Sam" not in small_kg.entities
    assert grown.triple(len(small_kg)).head == "Sam"


@pytest.mark.parametrize(
    "token,expected",
    [
        ("45", True), ("-3.5", True), ("+7", True), ("0.0", True),
        ("45 years", False), ("1.2.3", False), ("", False), (".5", False),
        ("1e3", False),
    ],
)
def test_parse_number(token, expected):
    assert (parse_number(token) is not None) is expected


def test_normalize():
    import unicodedata

    assert normalize("  Alan\t Turing ") == "alan turing"
    nfd = unicodedata.normalize("NFD", "caf\u00e9")
    assert normalize(nfd) == "caf\u00e9"


# -- extended: an overlay on a shared base --------------------------------------


def _shared_label_kg():
    return KnowledgeGraph(
        [("e1", "r", "x"), ("e2", "r", "y"), ("e3", "r", "z")],
        [("e1", "Alpha"), ("e1", "Foo"), ("e2", "Foo")],
    )


def test_extended_keeps_the_order_of_an_alias_list():
    base = _shared_label_kg()
    assert base.resolve_label("foo") == ["e1", "e2"]
    assert base.extended([]).resolve_label("foo") == ["e1", "e2"]
    grown = base.extended([("e4", "r", "w")], [("e4", "Foo")])
    assert grown.resolve_label("foo") == ["e1", "e2", "e4"]
    assert base.resolve_label("foo") == ["e1", "e2"]


def test_linking_picks_the_same_entity_on_a_shared_label_after_extended():
    base = _shared_label_kg()
    grown = base.extended([("Sam", "likes", "x")])
    query = Query(text="Does Foo like x?")
    assert link_lexical(base, query.text) == link_lexical(grown, query.text) == ["e1", "e2"]
    picks = []
    for kg in (base, grown):
        backend = ScriptedBackend({"entity_extract": ["ENTITIES: Foo"]})
        anchors, *_ = anchor_entities(kg, backend, query, Audit())
        picks.append(anchors.entities)
    assert picks[0] == picks[1] == ["e1", "e2"]


def test_extended_label_for_an_unlabelled_base_head_is_an_alias_only():
    base = KnowledgeGraph([("H", "r", "x")])
    grown = base.extended([], [("H", "Harold")])
    assert grown.label_of("H") == "H"
    assert grown.resolve_label("harold") == ["H"]
    assert base.resolve_label("harold") == []


def _rebuild(base, extra_triples, extra_labels):
    """The whole-KG rebuild ``extended`` replaced: a fresh KG of the same rows.

    It re-adds every primary label before any alias row, so its alias lists
    hold the overlay's ids but not always in the overlay's order.
    """
    triples = [(t.head, t.relation, t.tail) for t in base.triples] + list(extra_triples)
    labels = list(base.labels.items())
    for surface, ids in base.alias_index().items():
        for entity_id in ids:
            if normalize(base.labels.get(entity_id, "")) != surface:
                labels.append((entity_id, surface))
    labels.extend(extra_labels)
    return KnowledgeGraph(triples, labels)


def _snapshot(kg):
    return copy.deepcopy((
        kg.triples, kg.labels, kg.alias_index(), kg.head_index, set(kg.entities), kg.max_alias_len(),
    ))


def _assert_overlay(base, grown, extra_triples, extra_labels, entities):
    want = _rebuild(base, extra_triples, extra_labels)
    assert grown.triples == want.triples
    assert list(grown.labels.items()) == list(want.labels.items())
    assert grown.entities == want.entities
    assert grown.head_index == want.head_index
    assert grown.max_alias_len() == want.max_alias_len()
    for anchor in entities:
        assert grown.one_hop_subgraph([anchor]) == want.one_hop_subgraph([anchor])
    got, rebuilt, before = grown.alias_index(), want.alias_index(), base.alias_index()
    assert {k: set(v) for k, v in got.items()} == {k: set(v) for k, v in rebuilt.items()}
    for key, ids in got.items():
        old = before.get(key, [])
        assert ids == old + [e for e in rebuilt[key] if e not in old]
    _assert_same_lookups(grown, want, entities, [s for _, s in extra_labels])


def _assert_same_lookups(grown, want, entities, surfaces):
    """Every lookup method of the overlay answers as the rebuild does.

    Alias lists are compared in the overlay's order, which the caller has
    checked, through a KG whose alias index holds exactly those lists.
    """
    assert set(grown.entities) == set(grown.labels)
    assert len(grown) == len(want)
    for i in range(-len(want), len(want)):  # a negative id counts from the end, as on a list
        assert grown.triple(i) == want.triple(i)
        assert grown.tail_entity(grown.triple(i)) == want.tail_entity(want.triple(i))
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            grown.triple(i)
    for i in (-1, 0, len(want) - 1, len(want), True):
        assert grown.has_triple(i) == want.has_triple(i)
    for entity_id in [*entities, "text", "nobody"]:
        assert grown.label_of(entity_id) == want.label_of(entity_id)
        assert (entity_id in grown.entities) == (entity_id in want.entities)
    ordered = KnowledgeGraph((), [(e, key) for key, ids in grown.alias_index().items() for e in ids])
    joined = " or ".join(surfaces)
    for surface in [*_SURFACES, *entities, *surfaces, "text", "nobody"]:
        assert grown.resolve_label(surface) == ordered.resolve_label(surface)
        query = f"Is {surface} the one, or {joined}?"
        assert link_lexical(grown, query) == link_lexical(ordered, query)


_IDS = [f"e{i}" for i in range(5)]
_SURFACES = ["Foo", "foo ", "Bar", "e1", "E2", "Baz  Qux", "a much longer alias"]
_TRIPLES = st.lists(
    st.tuples(st.sampled_from(_IDS), st.just("r"), st.sampled_from(_IDS + ["text"])), max_size=6,
)
_LABELS = st.lists(st.tuples(st.sampled_from(_IDS), st.sampled_from(_SURFACES)), max_size=6)


@given(_TRIPLES, _LABELS, _TRIPLES, _LABELS, _TRIPLES, _LABELS)
@settings(max_examples=200, deadline=None)
def test_extended_overlay_equals_a_rebuild_and_never_touches_its_base(
    triples, labels, d1, l1, d2, l2,
):
    base = KnowledgeGraph(triples, labels)
    assert set(base.entities) == set(base.labels)
    before = _snapshot(base)
    first = base.extended(d1, l1)
    second = base.extended(iter(d2), iter(l2))
    assert _snapshot(base) == before
    _assert_overlay(base, first, d1, l1, _IDS)
    _assert_overlay(base, second, d2, l2, _IDS)
    # an overlay of an overlay, and one overlay never sees the other's delta
    chained = first.extended(d2, l2)
    _assert_overlay(first, chained, d2, l2, _IDS)
    _assert_overlay(base, first, d1, l1, _IDS)
    assert _snapshot(base) == before


def test_extended_normalizes_only_its_delta(monkeypatch):
    base = KnowledgeGraph(
        [(f"e{i}", "r", f"e{i + 1}") for i in range(500)],
        [(f"e{i}", f"Name {i}") for i in range(0, 500, 2)],
    )
    assert len(base.alias_index()) == 500
    calls = []
    real = kg_module.normalize

    def counting(surface):
        calls.append(surface)
        return real(surface)

    monkeypatch.setattr(kg_module, "normalize", counting)
    delta = [("e1", "r", "new"), ("p1", "r", "e3"), ("p2", "r", "e5")]
    labels = [("p1", "Person One"), ("e7", "Name 8")]
    grown = base.extended(delta, labels)
    assert len(calls) <= 2 * (len(delta) + len(labels))
    assert grown.resolve_label("name 8") == ["e8", "e7"]
    assert grown.resolve_label("p2") == ["p2"]


# -- extended: cost guards on a large base ---------------------------------------

_DELTA = [("e1", "likes", "e3"), ("p1", "r", "e5"), ("p1", "age", "29"), ("p2", "r", "p1"),
          ("e2", "r", "x")]
_DELTA_LABELS = [("p1", "Person One"), ("e7", "Name 8")]


@pytest.fixture(scope="module")
def large_kg():
    """1e5 triples over 2e4 heads, half of them labelled."""
    return KnowledgeGraph(
        [(f"e{i % 20_000}", "r", f"e{i * 7 % 20_000}") for i in range(100_000)],
        [(f"e{i}", f"Name {i}") for i in range(0, 20_000, 2)],
    )


def test_extended_allocates_for_its_delta_not_for_its_base(large_kg):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        copied = list(large_kg.triples)
        copy_bytes = tracemalloc.get_traced_memory()[1] - start
        del copied
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        grown = large_kg.extended(_DELTA, _DELTA_LABELS)
        overlay_bytes = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert copy_bytes > 512 * 1024  # the tracer sees a copy of the base's triples
    assert overlay_bytes < 64 * 1024
    assert len(grown) == len(large_kg) + len(_DELTA)
    assert grown.resolve_label("name 8") == ["e8", "e7"]


def test_a_freed_overlay_leaves_its_base_as_it_was(large_kg):
    before = _snapshot(large_kg)
    grown = large_kg.extended(_DELTA, _DELTA_LABELS)
    assert grown.one_hop_subgraph(["p1"]).triple_ids == {len(large_kg) + 1, len(large_kg) + 2}
    freed = weakref.ref(grown)
    del grown
    gc.collect()
    assert freed() is None
    assert _snapshot(large_kg) == before


def test_threads_answering_on_overlays_of_one_base_give_the_serial_traces():
    base = PREFERENCE_SHARED_KG
    before = _snapshot(base)
    query = Query(PREFERENCE_QUERY, PREFERENCE_OPTIONS, "multiple_choice")
    alias = "Shredded barbecued pork shoulder"  # normalizes to a base alias

    def run(i, embedder):
        # the personal rows, a row on a base head, and a label on a base alias
        kg = base.extended([*PERSONAL_KG_TRIPLES, ("R2", "cuisine", f"style {i}")],
                           [(f"P{i}", alias)])
        backend = ScriptedBackend(copy.deepcopy(PREFERENCE_SCRIPT))
        trace = answer_multiple_choice(kg, embedder, backend, query).trace.to_json()
        return trace, kg.head_index["R2"], kg.resolve_label(alias), backend.remaining()

    n = 8
    serial = [run(i, HashedEmbedder()) for i in range(n)]
    assert [s[1:] for s in serial] == [
        ([3, 4, len(base) + 2], ["R2", f"P{i}"], {}) for i in range(n)
    ]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = HashedEmbedder()
            got = [None] * n

            def work(i):
                got[i] = run(i, shared)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == serial
    finally:
        sys.setswitchinterval(old_interval)
    assert _snapshot(base) == before


# -- the columnar store: loader parity, save, normalize, layout -----------------


def _assert_same_kg(got, want):
    """Equal triples, labels, alias lists (keys and ids in order) and head index."""
    assert got.triples == want.triples
    assert list(got.labels.items()) == list(want.labels.items())
    assert list(got.alias_index().items()) == list(want.alias_index().items())
    assert list(got.head_index.items()) == list(want.head_index.items())
    assert got.max_alias_len() == want.max_alias_len()


_NFD_CAFE = unicodedata.normalize("NFD", "Caf\u00e9")


@pytest.mark.parametrize(
    "triples_bytes,labels_bytes,rows,labels",
    [
        (b"Q1\tr\tx\r\nQ2\tr\tQ1\r\n", b"Q1\tOne\r\n",
         [("Q1", "r", "x"), ("Q2", "r", "Q1")], [("Q1", "One")]),
        (b"Q1\tr\tx\rQ2\tr\ty\r", b"Q2\tTwo\rQ2\tDeux",
         [("Q1", "r", "x"), ("Q2", "r", "y")], [("Q2", "Two"), ("Q2", "Deux")]),
        (b"Q1\tr\tx\nQ2\tr\t45", b"Q1\tOne",
         [("Q1", "r", "x"), ("Q2", "r", "45")], [("Q1", "One")]),
        (b"", b"", [], []),
        (b"Q1\tr\tx\n", b"", [("Q1", "r", "x")], []),
        (b"", b"Q1\tOne\n", [], [("Q1", "One")]),
        ("Q1\tborn in\tZ\u00fcrich\nQ2\tr\t\u6771\u4eac\n".encode(),
         f"Q1\t{_NFD_CAFE}\nQ2\tCaf\u00e9\nQ2\t  Caf\u00e9  Bar \n".encode(),
         [("Q1", "born in", "Z\u00fcrich"), ("Q2", "r", "\u6771\u4eac")],
         [("Q1", _NFD_CAFE), ("Q2", "Caf\u00e9"), ("Q2", "  Caf\u00e9  Bar ")]),
        (b"Q1\tr\tx\nQ1\tr\tx\nQ2\tr\tQ1\nQ1\tr\tx\n", b"Q1\tOne\nQ1\tOne\n",
         [("Q1", "r", "x"), ("Q1", "r", "x"), ("Q2", "r", "Q1"), ("Q1", "r", "x")],
         [("Q1", "One"), ("Q1", "One")]),
        (b"Q1\t\t\n\t\t\n", b"", [("Q1", "", ""), ("", "", "")], []),
    ],
    ids=["crlf", "lone-cr", "no-final-newline", "empty", "empty-labels", "labels-only",
         "non-ascii-and-nfd", "repeated-lines", "empty-fields"],
)
def test_load_equals_the_constructor_on_the_same_rows(
    tmp_path, triples_bytes, labels_bytes, rows, labels,
):
    triples_file, labels_file = tmp_path / "kg.tsv", tmp_path / "labels.tsv"
    triples_file.write_bytes(triples_bytes)
    labels_file.write_bytes(labels_bytes)
    loaded = KnowledgeGraph.load(triples_file, labels_file)
    _assert_same_kg(loaded, KnowledgeGraph(rows, labels))
    if not labels:
        _assert_same_kg(KnowledgeGraph.load(triples_file), KnowledgeGraph(rows))


def test_load_keeps_an_nfd_label_and_resolves_it_in_nfc(tmp_path):
    triples, labels = tmp_path / "kg.tsv", tmp_path / "labels.tsv"
    triples.write_text("Q1\tr\tx\n", encoding="utf-8")
    labels.write_text(f"Q1\t{_NFD_CAFE}\nQ2\tCaf\u00e9\n", encoding="utf-8")
    kg = KnowledgeGraph.load(triples, labels)
    assert kg.label_of("Q1") == _NFD_CAFE
    assert kg.resolve_label("CAF\u00c9") == ["Q1", "Q2"]


def _big_rows():
    """Rows whose TSV is more than two read chunks long."""
    n = 2 * kg_module._CHUNK_CHARS // 10
    return [(f"e{i % 997}", "r", f"t{i}") for i in range(n)]


def _tsv(rows):
    return "".join("\t".join(row) + "\n" for row in rows)


def test_load_equals_the_constructor_across_read_chunks(tmp_path):
    rows = _big_rows()
    f = tmp_path / "kg.tsv"
    f.write_text(_tsv(rows), encoding="utf-8")
    assert f.stat().st_size > 2 * kg_module._CHUNK_CHARS
    _assert_same_kg(KnowledgeGraph.load(f), KnowledgeGraph(rows))


@pytest.mark.parametrize("where,bad,columns", [
    (where, bad, columns)
    for where in ("first", "middle", "last", "last-no-newline", "past-first-chunk")
    for bad, columns in (("Q9\tr", 2), ("Q9\tr\tx\ty", 4), ("", 1))
    if (where, bad) != ("last-no-newline", "")  # an empty last line needs its line break
])
def test_load_names_the_malformed_line(tmp_path, where, bad, columns):
    rows = ["\t".join(row) for row in _big_rows()] if where == "past-first-chunk" else [
        "Q1\tr\tx", "Q2\tr\ty", "Q3\tr\tz",
    ]
    index = {"first": 0, "middle": 1, "last": len(rows), "last-no-newline": len(rows),
             "past-first-chunk": len(rows) - 7}[where]
    rows.insert(index, bad)
    text = "\n".join(rows) + ("" if where == "last-no-newline" else "\n")
    if where == "past-first-chunk":
        assert len("\n".join(rows[:index])) > kg_module._CHUNK_CHARS
    f = tmp_path / "kg.tsv"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(KgParseError) as exc:
        KnowledgeGraph.load(f)
    assert exc.value.line_no == index + 1
    assert str(exc.value) == (
        f"{f}:{index + 1}: expected 3 tab-separated columns, got {columns}"
    )


def test_load_names_the_malformed_labels_line(tmp_path):
    triples, labels = tmp_path / "kg.tsv", tmp_path / "labels.tsv"
    triples.write_text("Q1\tr\tx\n", encoding="utf-8")
    labels.write_bytes(b"Q1\tOne\r\nQ1\tUno\tEins\r\n")
    with pytest.raises(KgParseError) as exc:
        KnowledgeGraph.load(triples, labels)
    assert str(exc.value) == f"{labels}:2: expected 2 tab-separated columns, got 3"


def test_load_counts_a_lone_carriage_return_as_a_line_break(tmp_path):
    f = tmp_path / "kg.tsv"
    f.write_bytes(b"Q1\tr\tx\rQ2\tr\n")
    with pytest.raises(KgParseError) as exc:
        KnowledgeGraph.load(f)
    assert exc.value.line_no == 2


def test_triples_is_a_read_only_view_that_behaves_as_the_list_did(small_kg):
    rows = [(t.head, t.relation, t.tail) for t in small_kg.triples]
    want = [Triple(i, *row) for i, row in enumerate(rows)]
    for kg, expected in ((small_kg, want),
                         (small_kg.extended([("Sam", "age", "29")]),
                          want + [Triple(len(want), "Sam", "age", "29")])):
        view = kg.triples
        assert len(view) == len(expected)
        assert view == expected and expected == view and list(view) == expected
        assert [view[i] for i in range(-len(expected), len(expected))] == expected + expected
        assert view[-1].id == len(expected) - 1
        for i in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                view[i]
        assert view != expected[:-1]
        with pytest.raises(AttributeError):
            kg.triples = []


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("separator", ["\t", "\n", "\r", "\r\n"])
def test_save_refuses_a_field_the_tsv_cannot_hold(tmp_path, column, separator):
    row = ["a", "r", "b"]
    row[column] = f"x{separator}y"
    kg = KnowledgeGraph([("a", "r", "b"), tuple(row)])
    out = tmp_path / "out.tsv"
    with pytest.raises(ValueError, match="triple 1 "):
        kg.save(out)
    assert not out.exists()


def test_save_load_round_trip_of_an_overlay(tmp_path):
    base = KnowledgeGraph([("Q1", "r", "x"), ("Q2", "r", "Q1")], [("Q1", "One")])
    grown = base.extended([("p1", "likes", "Q2"), ("Q1", "r", "z")])
    out = tmp_path / "out.tsv"
    grown.save(out)
    assert out.read_text(encoding="utf-8") == "Q1\tr\tx\nQ2\tr\tQ1\np1\tlikes\tQ2\nQ1\tr\tz\n"
    assert KnowledgeGraph.load(out).triples == grown.triples


_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def _normalize_by_regex(surface):
    """The regex form ``normalize`` replaced, kept as its reference."""
    return re.sub(r"\s+", " ", unicodedata.normalize("NFC", surface)).strip().lower()


def test_normalize_folds_every_whitespace_character():
    assert len(_WHITESPACE) > 20  # the Unicode spaces, not just ASCII ones
    for c in _WHITESPACE:
        assert normalize(c) == ""
        assert normalize(f"A{c}b") == "a b"
        assert normalize(f"{c}a{c}{c}B{c}") == "a b"
        assert normalize(f"a {c} b") == _normalize_by_regex(f"a {c} b") == "a b"


@given(st.text(st.one_of(st.sampled_from(_WHITESPACE), st.characters())))
@settings(max_examples=500, deadline=None)
def test_normalize_matches_the_regex_form(surface):
    assert normalize(surface) == _normalize_by_regex(surface)


def test_load_builds_no_object_per_row(tmp_path):
    """A loaded KG holds columns, not one GC-tracked tuple per triple."""
    triples, labels = tmp_path / "kg.tsv", tmp_path / "labels.tsv"
    triples.write_text(
        "".join(f"e{i % 20_000}\tr\te{i * 7 % 20_000}\n" for i in range(100_000)), encoding="utf-8",
    )
    labels.write_text("".join(f"e{i}\tName {i}\n" for i in range(0, 20_000, 2)), encoding="utf-8")
    gc.collect()
    before = len(gc.get_objects())
    kg = KnowledgeGraph.load(triples, labels)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(kg) == 100_000 and kg.triple(-1) == (99_999, "e19999", "r", "e19993")
    assert added < 60_000  # one list per head and per alias, 40,000 here
    del kg
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kg = KnowledgeGraph.load(triples, labels)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 24 * 1024 * 1024
