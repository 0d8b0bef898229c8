"""Premise grounding against cited triples and three-valued aggregation.

A premise is decided symbolically when a presented triple's relation matches
its name (deterministic comparison, no LLM call); otherwise an LLM judge is
asked, and its verdict only stands if it cites valid evidence. Statuses
aggregate with three-valued logic: a clause is the conjunction of its
premises, the axiom the disjunction of its clauses, and Unknown propagates
whenever neither truth value is forced.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .axioms import Axiom, Premise, serialize_premise
from .kg import KnowledgeGraph, Triple, normalize, parse_number
from .llm import ask, parse_judge
from .prompts import render_prompt
from .retrieval import numbered_triples
from .trace import Audit


class GroundingStatus(enum.Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class PremiseGrounding:
    premise: Premise
    status: GroundingStatus
    evidence: frozenset[int]  # global triple ids from the presented set
    method: str  # "symbolic" | "llm_judge"

    def __post_init__(self):
        if self.status is GroundingStatus.UNKNOWN:
            if self.evidence:
                raise ValueError("Unknown grounding cannot carry evidence")
        elif not self.evidence:
            raise ValueError(f"{self.status.value} grounding requires evidence")


@dataclass(frozen=True)
class Answer:
    value: str  # "True" | "False" | "Unknown"
    selected_option: Optional[int] = None


def resolve_subject(kg: KnowledgeGraph, subject: str) -> Optional[str]:
    """Resolve a premise's raw entity ref to a KG entity id, if possible."""
    if subject in kg.entities:
        return subject
    ids = kg.resolve_label(subject.replace("_", " "))
    return ids[0] if ids else None


def _relation_matches(premise_name: str, relation: str) -> bool:
    return normalize(premise_name.replace("_", " ")) == normalize(relation.replace("_", " "))


_NUMERIC_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(kg: KnowledgeGraph, triple: Triple, premise: Premise) -> Optional[bool]:
    """Evaluate the premise operator on one triple's tail, or None if undefined."""
    tail_num = parse_number(triple.tail)
    if premise.comparand_kind == "number" and tail_num is not None:
        return _NUMERIC_OPS[premise.op](tail_num, premise.comparand)
    if premise.op not in ("=", "!="):
        return None  # order operators only apply to numerics
    # String (dis)equality on normalized forms; entity tails also match by label.
    if premise.comparand_kind == "entity":
        comparand_forms = {
            normalize(str(premise.comparand).replace("_", " ")),
            normalize(str(premise.comparand)),
        }
    else:
        comparand_forms = {normalize(str(premise.comparand))}
    tail_forms = {normalize(triple.tail)}
    tail_entity = kg.tail_entity(triple)
    if tail_entity is not None:
        tail_forms.add(normalize(kg.label_of(tail_entity)))
    equal = bool(tail_forms & comparand_forms)
    return equal if premise.op == "=" else not equal


def ground_premise_symbolic(
    kg: KnowledgeGraph,
    premise: Premise,
    subject: str,
    triple_ids: Iterable[int],
) -> Optional[PremiseGrounding]:
    """Deterministic fast path; None means not applicable (defer to the judge)."""
    matching = [
        t for t in map(kg.triple, sorted(triple_ids))
        if t.head == subject and _relation_matches(premise.name, t.relation)
    ]
    if premise.kind == "predicate":
        if matching:
            return PremiseGrounding(
                premise=premise,
                status=GroundingStatus.SATISFIED,
                evidence=frozenset(t.id for t in matching),
                method="symbolic",
            )
        return None
    trues = []
    falses = []
    for t in matching:
        outcome = _compare(kg, t, premise)
        if outcome is True:
            trues.append(t.id)
        elif outcome is False:
            falses.append(t.id)
    if trues:
        return PremiseGrounding(premise, GroundingStatus.SATISFIED, frozenset(trues), "symbolic")
    if falses:
        return PremiseGrounding(premise, GroundingStatus.VIOLATED, frozenset(falses), "symbolic")
    return None


def ground_premise_judge(
    kg: KnowledgeGraph,
    backend,
    premise: Premise,
    triple_ids: Iterable[int],
    audit: Audit,
) -> PremiseGrounding:
    """Ask the LLM judge; demote uncited non-Unknown verdicts to Unknown."""
    presented = sorted(triple_ids)
    prompt = render_prompt(
        "judge",
        {"premise_text": serialize_premise(premise),
         "numbered_triples": numbered_triples(kg, presented)},
    )
    parsed = ask(backend, "judge", prompt, lambda r: parse_judge(r, len(presented)), audit)
    if parsed is None:
        return PremiseGrounding(premise, GroundingStatus.UNKNOWN, frozenset(), "llm_judge")
    status_token, indices, dropped = parsed
    for token in dropped:
        audit.event(f"judge: dropped invalid evidence index {token!r}")
    evidence = frozenset(presented[i - 1] for i in indices)
    if status_token == "UNKNOWN":
        return PremiseGrounding(premise, GroundingStatus.UNKNOWN, frozenset(), "llm_judge")
    if not evidence:
        audit.rejected_citations += 1
        audit.event(
            f"judge: {status_token} verdict without valid evidence demoted to Unknown"
        )
        return PremiseGrounding(premise, GroundingStatus.UNKNOWN, frozenset(), "llm_judge")
    status = GroundingStatus.SATISFIED if status_token == "SATISFIED" else GroundingStatus.VIOLATED
    return PremiseGrounding(premise, status, evidence, "llm_judge")


def ground_premise(
    kg: KnowledgeGraph,
    backend,
    premise: Premise,
    triple_ids: Iterable[int],
    audit: Audit,
) -> PremiseGrounding:
    """Symbolic path when applicable, LLM judge otherwise."""
    triple_ids = list(triple_ids)
    subject = resolve_subject(kg, premise.subject)
    if subject is not None:
        grounding = ground_premise_symbolic(kg, premise, subject, triple_ids)
        if grounding is not None:
            return grounding
    return ground_premise_judge(kg, backend, premise, triple_ids, audit)


def evaluate_axiom(
    axiom: Axiom,
    groundings: Mapping[tuple[int, int], PremiseGrounding],
) -> str:
    """Three-valued aggregation: AND within clauses, OR across clauses.

    With False < Unknown < True, a clause takes the least of its premises'
    values and the axiom the greatest of its clauses' values. Every premise
    is checked, so a missing grounding raises even after the value is set.
    """
    violated, unknown = GroundingStatus.VIOLATED, GroundingStatus.UNKNOWN
    value = "False"
    for ci, clause in enumerate(axiom.clauses):
        clause_value = "True"
        for pi in range(len(clause)):
            g = groundings.get((ci, pi))
            if g is None:
                raise ValueError(f"missing grounding for premise ({ci}, {pi})")
            if g.status is violated:
                clause_value = "False"
            elif g.status is unknown and clause_value == "True":
                clause_value = "Unknown"
        if clause_value == "True" or (clause_value == "Unknown" and value == "False"):
            value = clause_value
    return value
