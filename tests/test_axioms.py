from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundedqa import Axiom, AxiomSyntaxError, Premise, parse_axiom, serialize_axiom
from groundedqa.axioms import serialize_premise


def test_parse_conjunction_of_predicate_and_function():
    a = parse_axiom(
        "is_a_girl_from_Latin_America(Virginia_Raggi) AND age(Virginia_Raggi) < 20"
    )
    assert len(a.clauses) == 1
    p1, p2 = a.clauses[0]
    assert p1.kind == "predicate" and p1.name == "is_a_girl_from_Latin_America"
    assert p2.kind == "function" and p2.op == "<"
    assert p2.comparand_kind == "number" and p2.comparand == Decimal("20")


def test_and_binds_tighter_than_or():
    a = parse_axiom("p(A) OR q(A) AND r(A)")
    assert [len(c) for c in a.clauses] == [1, 2]
    assert a.clauses[0][0].name == "p"
    assert [p.name for p in a.clauses[1]] == ["q", "r"]


def test_missing_comparand_is_syntax_error():
    with pytest.raises(AxiomSyntaxError):
        parse_axiom("age(A) <")


def test_empty_clause_is_syntax_error():
    with pytest.raises(AxiomSyntaxError):
        parse_axiom("p(A) OR OR q(A)")
    with pytest.raises(AxiomSyntaxError):
        parse_axiom("p(A) AND")


def test_unknown_operator_token():
    with pytest.raises(AxiomSyntaxError):
        parse_axiom("age(A) ~ 20")


def test_string_and_entity_comparands():
    a = parse_axiom('country(A) = "New Zealand" AND spouse(A) != Carla_Dalloglio')
    p1, p2 = a.clauses[0]
    assert p1.comparand_kind == "string" and p1.comparand == "New Zealand"
    assert p2.comparand_kind == "entity" and p2.comparand == "Carla_Dalloglio"


def test_unicode_operators_accepted_and_canonicalized():
    a = parse_axiom("age(A) ≤ 17 OR age(A) ≠ 45 OR age(A) ≥ 99")
    assert [c[0].op for c in a.clauses] == ["<=", "!=", ">="]
    assert "≤" not in serialize_axiom(a)


def test_whitespace_insensitive():
    a = parse_axiom("p(A)AND q(A)   OR   r(B)")
    b = parse_axiom("p(A) AND q(A) OR r(B)")
    assert a.clauses == b.clauses


def test_serialize_single_predicate():
    a = Axiom(clauses=((Premise(kind="predicate", name="p", subject="A"),),))
    assert serialize_axiom(a) == "p(A)"


def test_serialize_joins_clauses_with_or():
    a = parse_axiom("p(A) OR q(B)")
    assert serialize_axiom(a) == "p(A) OR q(B)"


def test_round_trip_quinceanera_axiom():
    text = "is_a_girl_from_Latin_America(Virginia_Raggi) AND age(Virginia_Raggi) < 20"
    a = parse_axiom(text)
    assert parse_axiom(serialize_axiom(a)).clauses == a.clauses


def test_axiom_invariants():
    with pytest.raises(ValueError):
        Axiom(clauses=())
    with pytest.raises(ValueError):
        Axiom(clauses=((),))
    with pytest.raises(ValueError):
        Premise(kind="function", name="age", subject="A")  # missing op/comparand


def test_premise_rejects_unknown_operator():
    # An unknown op used to be accepted and then grounded as >=.
    with pytest.raises(ValueError, match="unknown operator"):
        Premise("function", "age", "A", "~", "number", Decimal(18))


# -- generated round-trip and precedence properties --------------------------

_names = st.sampled_from(["p", "q", "age", "has_fate", "born_in_2"])
_refs = st.sampled_from(["A", "Virginia_Raggi", "Q1", "New_York"])
_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def premises(draw):
    name = draw(_names)
    ref = draw(_refs)
    if draw(st.booleans()):
        return Premise(kind="predicate", name=name, subject=ref)
    op = draw(_ops)
    kind = draw(st.sampled_from(["number", "string", "entity"]))
    if kind == "number":
        comparand = Decimal(draw(st.integers(-1000, 1000)))
    elif kind == "string":
        comparand = draw(st.text(alphabet="abc XYZ'-,.", min_size=0, max_size=8))
    else:
        comparand = draw(_refs)
    return Premise(kind="function", name=name, subject=ref, op=op,
                   comparand_kind=kind, comparand=comparand)


axioms = st.builds(
    lambda clauses: Axiom(clauses=tuple(tuple(c) for c in clauses)),
    st.lists(st.lists(premises(), min_size=1, max_size=5), min_size=1, max_size=5),
)


@given(axioms)
@settings(max_examples=100, deadline=None)
def test_parse_serialize_round_trip(axiom):
    assert parse_axiom(serialize_axiom(axiom)).clauses == axiom.clauses


@given(axioms)
@settings(max_examples=100, deadline=None)
def test_precedence_against_split_oracle(axiom):
    # Independent oracle: the flat grammar admits plain string splitting.
    text = serialize_axiom(axiom)
    oracle_clauses = [clause.split(" AND ") for clause in text.split(" OR ")]
    parsed = parse_axiom(text)
    assert [
        [serialize_premise(p) for p in clause] for clause in parsed.clauses
    ] == oracle_clauses
