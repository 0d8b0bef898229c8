"""Retrieve-and-read baseline: top-k triples by query similarity, one LLM call.

No axioms, no citation enforcement: the free-text answer is keyword-mapped
to True/False/Unknown. Its traces are flagged ``baseline`` so the verifier
skips the grounding rules that this method deliberately does not enforce.
"""

from __future__ import annotations

import re

import numpy as np

from .entities import Query
from .grounding import Answer
from .kg import KnowledgeGraph
from .llm import ask
from .prompts import render_prompt
from .retrieval import Embedder, numbered_triples, top_k_similar
from .trace import Audit, ReasoningTrace

_TRUE_RE = re.compile(r"\b(yes|true)\b", re.IGNORECASE)
_FALSE_RE = re.compile(r"\b(no|false)\b", re.IGNORECASE)


def map_keyword_answer(text: str) -> str:
    """First yes/true vs no/false keyword occurrence decides the value."""
    t = _TRUE_RE.search(text)
    f = _FALSE_RE.search(text)
    if t and (not f or t.start() < f.start()):
        return "True"
    if f:
        return "False"
    return "Unknown"


def baseline_retrieve_read(
    kg: KnowledgeGraph,
    embedder: Embedder,
    backend,
    query: Query,
    k: int = 10,
) -> tuple[Answer, ReasoningTrace]:
    """Answer directly over the k triples nearest to the query text."""
    picked = top_k_similar(embedder, query.text, kg, np.arange(len(kg)), k)
    prompt = render_prompt(
        "baseline", {"query": query.text, "numbered_triples": numbered_triples(kg, picked)},
    )
    audit = Audit()  # the parser is the identity: the trace keeps the raw response
    response = ask(backend, "baseline", prompt, lambda text: text, audit)
    value = map_keyword_answer(response)
    trace = ReasoningTrace(
        query={"text": query.text, "options": list(query.options), "task": query.task},
        config={"top_k": k},
        baseline=True,
    )
    trace.record("Pruning", {"option": None, "new_ids": picked, "cumulative_ids": picked})
    trace.finish({"value": value, "selected_option": None, "raw_response": response}, audit)
    return Answer(value=value), trace
