import itertools

import pytest

from groundedqa import (
    GroundingStatus,
    KnowledgeGraph,
    PremiseGrounding,
    ScriptedBackend,
    evaluate_axiom,
    ground_premise,
    parse_axiom,
)
from groundedqa.axioms import Axiom, Premise
from groundedqa.grounding import (
    ground_premise_judge,
    ground_premise_symbolic,
    resolve_subject,
)
from groundedqa.trace import Audit

S, V, U = GroundingStatus.SATISFIED, GroundingStatus.VIOLATED, GroundingStatus.UNKNOWN


def make_grounding(premise, status):
    evidence = frozenset() if status is U else frozenset({0})
    return PremiseGrounding(premise, status, evidence, "symbolic")


@pytest.fixture
def age_kg():
    return KnowledgeGraph(
        triples=[
            ("Q1", "age", "45"),
            ("Q1", "citizenship", "Italy"),
            ("Q1", "spouse", "Q2"),
        ],
        labels=[("Q1", "Virginia Raggi"), ("Q2", "Some Spouse")],
    )


def prem(text):
    return parse_axiom(text).clauses[0][0]


# -- symbolic path -----------------------------------------------------------

def test_symbolic_violated_with_citation(age_kg):
    g = ground_premise_symbolic(age_kg, prem("age(Q1) < 20"), "Q1", [0, 1, 2])
    assert g.status is V
    assert g.evidence == frozenset({0})


def test_symbolic_satisfied_numeric():
    kg = KnowledgeGraph(triples=[("Q1", "age", "14")])
    g = ground_premise_symbolic(kg, prem("age(Q1) < 20"), "Q1", [0])
    assert g.status is S and g.evidence == frozenset({0})


@pytest.mark.parametrize("op, tail, status", [
    ("=", "18", S), ("=", "20", V), ("!=", "20", S), ("!=", "18", V),
    ("<", "17", S), ("<", "18", V), ("<=", "18", S), ("<=", "19", V),
    (">", "19", S), (">", "18", V), (">=", "18", S), (">=", "17", V),
])
def test_symbolic_numeric_operator_table(op, tail, status):
    kg = KnowledgeGraph(triples=[("Q1", "age", tail)])
    g = ground_premise_symbolic(kg, prem(f"age(Q1) {op} 18"), "Q1", [0])
    assert g.status is status and g.evidence == frozenset({0})


def test_symbolic_not_applicable_without_matching_relation(age_kg):
    g = ground_premise_symbolic(age_kg, prem("is_from_Latin_America(Q1)"), "Q1", [0, 1, 2])
    assert g is None


def test_symbolic_predicate_satisfied(age_kg):
    g = ground_premise_symbolic(age_kg, prem("citizenship(Q1)"), "Q1", [0, 1, 2])
    assert g.status is S and g.evidence == frozenset({1})


def test_symbolic_string_equality(age_kg):
    g = ground_premise_symbolic(age_kg, prem("citizenship(Q1) = Italy"), "Q1", [0, 1])
    assert g.status is S
    g2 = ground_premise_symbolic(age_kg, prem("citizenship(Q1) != Italy"), "Q1", [0, 1])
    assert g2.status is V


def test_symbolic_entity_comparand_matches_by_label(age_kg):
    g = ground_premise_symbolic(age_kg, prem("spouse(Q1) = Some_Spouse"), "Q1", [2])
    assert g.status is S


def test_symbolic_order_op_on_non_numeric_not_applicable(age_kg):
    g = ground_premise_symbolic(age_kg, prem("citizenship(Q1) < 5"), "Q1", [1])
    assert g is None


def test_symbolic_only_scans_presented_triples(age_kg):
    g = ground_premise_symbolic(age_kg, prem("age(Q1) < 20"), "Q1", [1, 2])
    assert g is None  # triple 0 exists in the KG but was not presented


def test_resolve_subject(age_kg):
    assert resolve_subject(age_kg, "Q1") == "Q1"
    assert resolve_subject(age_kg, "Virginia_Raggi") == "Q1"
    assert resolve_subject(age_kg, "Nobody_Here") is None


# -- judge path --------------------------------------------------------------

def test_judge_satisfied_with_evidence(age_kg):
    backend = ScriptedBackend({"judge": ["STATUS: SATISFIED\nEVIDENCE: 2"]})
    g = ground_premise_judge(age_kg, backend, prem("p(Q1)"), [0, 1, 2], Audit())
    assert g.status is S
    assert g.evidence == frozenset({1})  # 2nd presented triple
    assert g.method == "llm_judge"


def test_judge_verdict_without_evidence_demoted(age_kg):
    backend = ScriptedBackend({"judge": ["STATUS: VIOLATED\nEVIDENCE:"]})
    audit = Audit()
    g = ground_premise_judge(age_kg, backend, prem("p(Q1)"), [0, 1], audit)
    assert g.status is U and g.evidence == frozenset()
    assert audit.rejected_citations == 1


def test_judge_unknown(age_kg):
    backend = ScriptedBackend({"judge": ["STATUS: UNKNOWN"]})
    g = ground_premise_judge(age_kg, backend, prem("p(Q1)"), [0], Audit())
    assert g.status is U and g.evidence == frozenset()


def test_judge_unparseable_is_unknown_plus_audit(age_kg):
    backend = ScriptedBackend({"judge": ["garbage"]})
    audit = Audit()
    g = ground_premise_judge(age_kg, backend, prem("p(Q1)"), [0], audit)
    assert g.status is U
    assert audit.parse_failures == 1


def test_judge_invalid_index_demotes_and_audits(age_kg):
    backend = ScriptedBackend({"judge": ["STATUS: SATISFIED\nEVIDENCE: 9"]})
    audit = Audit()
    g = ground_premise_judge(age_kg, backend, prem("p(Q1)"), [0, 1], audit)
    assert g.status is U
    assert audit.rejected_citations == 1


# -- dispatch ----------------------------------------------------------------

def test_dispatch_prefers_symbolic(age_kg):
    backend = ScriptedBackend({})  # any judge call would raise
    g = ground_premise(age_kg, backend, prem("age(Q1) < 20"), [0, 1, 2], Audit())
    assert g.method == "symbolic" and g.status is V
    assert backend.call_log == []


def test_dispatch_falls_back_to_judge(age_kg):
    backend = ScriptedBackend({"judge": ["STATUS: UNKNOWN"]})
    g = ground_premise(age_kg, backend, prem("p(Q1)"), [0], Audit())
    assert g.method == "llm_judge"


def test_dispatch_unresolved_subject_uses_judge_with_raw_name(age_kg):
    backend = ScriptedBackend({"judge": ["STATUS: UNKNOWN"]})
    g = ground_premise(age_kg, backend, prem("age(Mystery_Person) < 20"), [0], Audit())
    assert g.method == "llm_judge"
    assert "Mystery_Person" in backend.call_log[0][1]


# -- aggregation -------------------------------------------------------------

def eval_statuses(shape):
    """Build an axiom matching the status shape and aggregate it."""
    clauses = []
    groundings = {}
    for ci, clause in enumerate(shape):
        premises = []
        for pi, status in enumerate(clause):
            p = Premise(kind="predicate", name=f"p{ci}_{pi}", subject="A")
            premises.append(p)
            groundings[(ci, pi)] = make_grounding(p, status)
        clauses.append(tuple(premises))
    axiom = Axiom(clauses=tuple(clauses))
    return evaluate_axiom(axiom, groundings)


def test_evaluate_conjunction_true():
    assert eval_statuses([[S, S]]) == "True"


def test_evaluate_violated_makes_false():
    assert eval_statuses([[S, V]]) == "False"


def test_evaluate_unknown_propagates():
    assert eval_statuses([[S, U]]) == "Unknown"


def test_evaluate_disjunction_any_true():
    assert eval_statuses([[V], [S]]) == "True"


def test_evaluate_missing_grounding_is_contract_error():
    axiom = parse_axiom("p(A) AND q(A)")
    with pytest.raises(ValueError):
        evaluate_axiom(axiom, {})


def brute_force_truth_table(shape):
    # Independent oracle: explicit truth tables over the three values.
    def clause_val(statuses):
        vals = set(statuses)
        if V in vals:
            return "False"
        if vals == {S} or not statuses:
            return "True"
        return "Unknown"

    clause_vals = [clause_val(c) for c in shape]
    if "True" in clause_vals:
        return "True"
    if all(v == "False" for v in clause_vals):
        return "False"
    return "Unknown"


def test_evaluate_matches_truth_table_exhaustively():
    statuses = [S, V, U]
    for n_clauses in (1, 2, 3):
        for sizes in itertools.product((1, 2, 3), repeat=n_clauses):
            total = sum(sizes)
            for assignment in itertools.product(statuses, repeat=total):
                shape = []
                i = 0
                for size in sizes:
                    shape.append(list(assignment[i:i + size]))
                    i += size
                assert eval_statuses(shape) == brute_force_truth_table(shape)


def test_grounding_invariant_enforced():
    p = Premise(kind="predicate", name="p", subject="A")
    with pytest.raises(ValueError):
        PremiseGrounding(p, S, frozenset(), "symbolic")
    with pytest.raises(ValueError):
        PremiseGrounding(p, U, frozenset({1}), "symbolic")
