import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundedqa import KgParseError, KnowledgeGraph, normalize
from groundedqa.kg import parse_number


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
    anchors = set(data.draw(st.lists(st.sampled_from(entities), max_size=6)))
    kg = KnowledgeGraph(triples)
    brute = {t.id for t in kg.triples if t.head in anchors}
    assert kg.one_hop_subgraph(anchors).triple_ids == brute


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
