"""Rule-based stand-in for the LLM, answering all six roles offline.

Each answer is decided from the rendered prompt plus the generator's plan,
looked up by the query text found in the prompt. The ``triple_select`` and
``judge`` prompts carry no query text, so they use the plan of the most
recent prompt that did. Work is linear in prompt length and there is no
simulated delay, so item timings measure the engine's own overhead; LLM
cost is counted as calls and prompt characters per role.
"""

from __future__ import annotations

import re
import time
from typing import Optional

from groundedqa.llm import ROLES, LlmRequest

from datagen import Plan

_PREMISE_RE = re.compile(r"([A-Za-z0-9_]+)\(([A-Za-z0-9_]+)\)")


def _last_field(prompt: str, key: str) -> Optional[str]:
    """Value of the last line starting with ``key`` (templates put examples first)."""
    i = prompt.rfind("\n" + key)
    if i < 0:
        return None
    start = i + 1 + len(key)
    end = prompt.find("\n", start)
    return prompt[start:] if end < 0 else prompt[start:end]


def _facts(prompt: str, header: str, stop: str) -> list[str]:
    """Numbered fact lines (without their numbers) between the last header and stop."""
    start = prompt.rfind(header)
    end = prompt.find(stop, start)
    block = prompt[start + len(header):end]
    return [line.split(". ", 1)[1] for line in block.split("\n") if ". " in line]


def _line_of(facts: list[str], subject: str, relation: str, tail: str) -> int:
    """1-based index of the fact stating (subject, relation, tail), or 0."""
    for i, fact in enumerate(facts, start=1):
        if fact == f"{subject} {relation} {tail}":
            return i
    return 0


class RuleResponder:
    """Deterministic ``complete(LlmRequest) -> str`` backend.

    Faults come from the plan alone (only qa_sparse plans carry them): an
    empty axiom response has no AXIOM line, an ``UNCITED`` judge verdict
    cites nothing, and a planned MEI name may not resolve.

    ``query_starts`` holds the clock reading at the first prompt of each new
    query; inside one ``run_eval`` call those are the only item boundaries
    visible from outside the program.
    """

    def __init__(self, plans: dict[str, Plan]):
        self.plans = plans
        self.calls = {role: 0 for role in ROLES}
        self.chars = {role: 0 for role in ROLES}
        self.query_starts: list[float] = []
        self._query: Optional[str] = None
        self._plan: Optional[Plan] = None
        self._axiom_calls: dict[Optional[str], int] = {}

    def complete(self, request: LlmRequest) -> str:
        prompt = request.rendered_prompt
        self.calls[request.role] += 1
        self.chars[request.role] += len(prompt)
        return getattr(self, "_" + request.role)(prompt)

    def _use(self, query: Optional[str]) -> Plan:
        plan = self.plans.get(query) if query is not None else None
        if plan is None:
            raise KeyError(f"no plan for query {query!r}")
        self._plan = plan
        return plan

    def _entity_extract(self, prompt: str) -> str:
        # Each option run starts with entity extraction: count branches afresh.
        query = _last_field(prompt, "Question: ")
        if query != self._query:
            self.query_starts.append(time.perf_counter())
            self._query = query
        plan = self._use(query)
        self._axiom_calls = {}
        return "ENTITIES: " + "; ".join(plan.entities)

    def _axiom(self, prompt: str) -> str:
        plan = self._use(_last_field(prompt, "Query: "))
        option = _last_field(prompt, "Option under consideration: ")
        n = self._axiom_calls.get(option, 0)
        self._axiom_calls[option] = n + 1
        responses = plan.axioms.get(option, [])
        if n >= len(responses) or not responses[n]:
            return "The answer depends on facts I cannot state as a rule."
        return responses[n]

    def _triple_select(self, prompt: str) -> str:
        rule = _last_field(prompt, "Rule: ") or ""
        phrases = {f" {name.replace('_', ' ').lower()} " for name, _ in _PREMISE_RE.findall(rule)}
        facts = _facts(prompt, "\nFacts:\n", "\n\nSELECT:")
        picked = [
            str(i) for i, fact in enumerate(facts, start=1)
            if any(p in f" {fact.lower()} " for p in phrases)
        ]
        return "SELECT: " + ",".join(picked)

    def _judge(self, prompt: str) -> str:
        premise = _last_field(prompt, "Premise: ")
        entry = self._plan.judge.get(premise) if self._plan else None
        if entry is None:
            return "STATUS: UNKNOWN\nEVIDENCE:"
        subject, relation, tail, verdict = entry
        if verdict == "UNCITED":
            return "STATUS: SATISFIED\nEVIDENCE:"
        line = _line_of(_facts(prompt, "\nFacts:\n", "\n\nRespond with"), subject, relation, tail)
        if not line:
            return "STATUS: UNKNOWN\nEVIDENCE:"
        return f"STATUS: {verdict}\nEVIDENCE: {line}"

    def _mei(self, prompt: str) -> str:
        plan = self._use(_last_field(prompt, "Query: "))
        first = _last_field(prompt, "Undecided premises:\n- ") or ""
        name = plan.mei.get(first)
        if name is None:
            match = _PREMISE_RE.search(first)
            name = match.group(2).replace("_", " ") if match else ""
        return f"MISSING: facts deciding {first}\nENTITY: {name}"

    def _baseline(self, prompt: str) -> str:
        plan = self._use(_last_field(prompt, "Question: "))
        subject, relation, tail, reply = plan.baseline
        facts = _facts(prompt, "\nFacts:\n", "\n\nQuestion: ")
        return reply if _line_of(facts, subject, relation, tail) else "I don't know."
