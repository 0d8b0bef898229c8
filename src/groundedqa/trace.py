"""Reasoning traces and their independent verifier.

Every pipeline step is appended to a trace as a typed, citation-carrying
record. The verifier re-checks the trace against the KG and against its own
three-valued aggregation, sharing no code with the engine, so a passing
report means the run was grounded the way it claims to be.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .kg import KnowledgeGraph

SCHEMA_VERSION = 2

STEP_KINDS = (
    "EntityLinking",
    "SubgraphExtraction",
    "AxiomSurfacing",
    "Pruning",
    "PremiseGrounding",
    "Evaluation",
    "MEI",
    "Expansion",
    "OptionResult",
    "FinalAnswer",
)


class TraceSchemaError(ValueError):
    """The document is not a trace of a supported schema version."""


@dataclass
class Audit:
    """Counters for the failure modes the engine tolerates but must surface."""

    rejected_citations: int = 0
    unresolved_names: int = 0
    parse_failures: int = 0
    events: list[str] = field(default_factory=list)

    def event(self, message: str) -> None:
        self.events.append(message)

    def counters(self) -> dict[str, int]:
        return {
            "rejected_citations": self.rejected_citations,
            "unresolved_names": self.unresolved_names,
            "parse_failures": self.parse_failures,
        }


class ReasoningTrace:
    """Ordered, append-only log of one query evaluation.

    Each step is kept as the dict the trace document holds: ``kind``,
    ``payload``, ``branch``, ``depth`` and ``seq``.
    """

    def __init__(
        self,
        query: dict[str, Any],
        config: dict[str, Any],
        baseline: bool = False,
    ):
        self.query = query
        self.config = config
        self.baseline = baseline
        self.steps: list[dict[str, Any]] = []
        self.answer: dict[str, Any] = {"value": "Unknown", "selected_option": None}
        self.audit: dict[str, Any] = {}

    def record(self, kind: str, payload: dict[str, Any], branch: int = 0, depth: int = 0) -> None:
        if kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {kind!r}")
        self.steps.append(
            {"kind": kind, "payload": payload, "branch": branch, "depth": depth, "seq": len(self.steps)}
        )

    def finish(self, final_payload: dict[str, Any], audit: Audit) -> None:
        """Close the trace: record ``FinalAnswer`` and set the answer and audit counters."""
        self.record("FinalAnswer", final_payload)
        self.answer = {k: final_payload[k] for k in ("value", "selected_option")}
        self.audit = audit.counters()

    def to_dict(self) -> dict[str, Any]:
        """The trace document.

        It shares the step dicts, query, config, answer and audit objects
        with the trace, so copy it (``copy.deepcopy``) before changing it.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "baseline": self.baseline,
            "query": self.query,
            "config": self.config,
            "steps": self.steps,
            "answer": self.answer,
            "audit": self.audit,
        }

    def to_json(self) -> str:
        return _dumps(self.to_dict())

    def save(self, path: str | Path) -> dict[str, Any]:
        """Write the trace document to ``path`` and return the document written."""
        doc = self.to_dict()
        Path(path).write_text(_dumps(doc) + "\n", encoding="utf-8")
        return doc


def _dumps(doc: dict[str, Any]) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``, byte for byte.

    Sorted keys and fixed separators keep serialization byte-stable. With an
    indent the standard library encodes in pure Python through one generator
    per container; one writer appending to one list is faster.
    """
    parts: list[str] = []
    _write_json(doc, parts, "\n")
    return "".join(parts)


_encode_str = json.encoder.encode_basestring  # the C encoder where it is built
_INFINITY = float("inf")


def _write_json(value: Any, parts: list[str], newline: str) -> None:
    """Append ``value``'s JSON to ``parts``; ``newline`` ends with its indent."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif type(value) is int:  # the common leaf; bool and int subclasses go below
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_json(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            key = key if isinstance(key, str) else _scalar_json(key)  # as json converts keys
            parts.append(sep + _encode_str(key) + ": ")
            _write_json(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        parts.append(_scalar_json(value))


def _scalar_json(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (_INFINITY, -_INFINITY):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def load_trace(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- verification -----------------------------------------------------------


@dataclass
class Violation:
    seq: int
    rule: str
    detail: str


@dataclass
class VerificationReport:
    ok: bool
    violations: list[Violation]
    grounding_precision: float
    steps_checked: int


def _clause_value(statuses: list[str]) -> str:
    if any(s == "Violated" for s in statuses):
        return "False"
    if all(s == "Satisfied" for s in statuses):
        return "True"
    return "Unknown"


def _axiom_value(clause_values: list[str]) -> str:
    if any(v == "True" for v in clause_values):
        return "True"
    if all(v == "False" for v in clause_values):
        return "False"
    return "Unknown"


def verify_trace(kg: KnowledgeGraph, doc: dict[str, Any]) -> VerificationReport:
    """Re-check a trace document against the KG and the aggregation rules.

    Rules: V1 citation soundness (cited triples exist; non-Unknown verdicts
    carry evidence, Unknown carries none), V2 every recorded evaluation
    matches the three-valued aggregation of the groundings visible to it,
    V3 a True/False final answer is backed by a matching evaluation step,
    V4 every grounded premise belongs to a previously surfaced axiom, and
    V5 depth/breadth stay within the recorded budgets. Baseline traces are
    exempt from V2-V4 (they enforce no grounding by design).

    A document whose structure is not a trace's (a step that is not an
    object, evidence that is not a list, a depth that is not a number, ...)
    raises ``TraceSchemaError``, as an unsupported schema version does.
    """
    try:
        return _verify(kg, doc)
    except (AttributeError, TypeError) as exc:
        raise TraceSchemaError(f"malformed trace document: {exc}") from exc


def _verify(kg: KnowledgeGraph, doc: dict[str, Any]) -> VerificationReport:
    # Schema 1 recorded subgraph triple ids where schema 2 records counts; no
    # rule reads either, so traces of both schemas verify alike.
    if doc.get("schema_version") not in (1, SCHEMA_VERSION):
        raise TraceSchemaError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    baseline = bool(doc.get("baseline"))
    steps = doc.get("steps", [])
    violations: list[Violation] = []
    cited = 0
    cited_ok = 0

    # (option, branch) -> clause structure as premise strings
    axioms: dict[tuple[Any, int], list[list[str]]] = {}
    # (option, branch, premise_key) -> (seq, status)
    latest_grounding: dict[tuple[Any, int, str], tuple[int, str]] = {}

    for step in steps:
        kind = step.get("kind")
        seq = step.get("seq", -1)
        payload = step.get("payload", {})
        option = payload.get("option")
        branch = step.get("branch", 0)

        if kind == "AxiomSurfacing":
            axioms[(option, branch)] = payload.get("clauses", [])

        elif kind == "PremiseGrounding":
            status = payload.get("status")
            evidence = payload.get("evidence", [])
            cited += len(evidence)
            for tid in evidence:
                if kg.has_triple(tid):
                    cited_ok += 1
                else:
                    violations.append(Violation(seq, "V1", f"cited triple {tid!r} not in KG"))
            if status == "Unknown" and evidence:
                violations.append(Violation(seq, "V1", "Unknown verdict carries evidence"))
            if status in ("Satisfied", "Violated") and not evidence:
                violations.append(Violation(seq, "V1", f"{status} verdict without evidence"))
            premise = payload.get("premise", "")
            if not baseline:
                clauses = axioms.get((option, branch))
                if clauses is None or all(premise not in c for c in clauses):
                    violations.append(
                        Violation(seq, "V4", f"premise {premise!r} not in any surfaced axiom")
                    )
            key = f"{payload.get('clause_index')}:{payload.get('premise_index')}"
            latest_grounding[(option, branch, key)] = (seq, status)

        elif kind == "Evaluation" and not baseline:
            clauses = axioms.get((option, branch))
            if clauses is None:
                violations.append(Violation(seq, "V2", "evaluation without surfaced axiom"))
                continue
            clause_values = []
            complete = True
            for ci, clause in enumerate(clauses):
                statuses = []
                for pi in range(len(clause)):
                    entry = latest_grounding.get((option, branch, f"{ci}:{pi}"))
                    if entry is None or entry[0] > seq:
                        complete = False
                        break
                    statuses.append(entry[1])
                if not complete:
                    break
                clause_values.append(_clause_value(statuses))
            if not complete:
                violations.append(Violation(seq, "V2", "evaluation precedes some premise grounding"))
                continue
            expected = _axiom_value(clause_values)
            if payload.get("value") != expected:
                violations.append(
                    Violation(
                        seq, "V2",
                        f"evaluation value {payload.get('value')!r}, aggregation gives {expected!r}",
                    )
                )

        elif kind == "FinalAnswer" and not baseline:
            value = payload.get("value")
            if value in ("True", "False"):
                backed = any(
                    s.get("kind") == "Evaluation"
                    and s.get("seq", seq) < seq
                    and s.get("payload", {}).get("value") == value
                    for s in steps
                )
                if not backed:
                    violations.append(
                        Violation(seq, "V3", f"final answer {value!r} lacks a matching evaluation")
                    )

    config = doc.get("config", {})
    max_depth = config.get("max_depth")
    max_breadth = config.get("max_breadth")
    branches_per_option: dict[Any, set[int]] = {}
    for step in steps:
        if max_depth is not None and step.get("depth", 0) > max_depth:
            violations.append(
                Violation(step.get("seq", -1), "V5", f"depth {step.get('depth')} exceeds budget {max_depth}")
            )
        if step.get("kind") == "AxiomSurfacing":
            option = step.get("payload", {}).get("option")
            branches_per_option.setdefault(option, set()).add(step.get("branch", 0))
    if max_breadth is not None:
        for option, branches in branches_per_option.items():
            if len(branches) > max_breadth:
                violations.append(
                    Violation(-1, "V5", f"option {option!r} used {len(branches)} branches, budget {max_breadth}")
                )

    precision = (cited_ok / cited) if cited else 1.0
    return VerificationReport(
        ok=not violations,
        violations=violations,
        grounding_precision=precision,
        steps_checked=len(steps),
    )
