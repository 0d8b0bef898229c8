"""Anchor entity extraction: lexical gazetteer union LLM-proposed names.

The lexical side is a greedy longest-match lookup of the normalized query's
word-boundary spans in the KG's labels and aliases; the LLM side covers
recent or obscure names the gazetteer misses. Names the KG cannot resolve are
dropped and audited, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kg import KnowledgeGraph, normalize
from .llm import ask, parse_entities
from .prompts import render_prompt
from .trace import Audit

TASKS = ("qa_yes_no", "claim", "multiple_choice")


@dataclass(frozen=True)
class Query:
    text: str
    options: tuple[str, ...] = ()
    task: str = "qa_yes_no"

    def __post_init__(self):
        if not self.text:
            raise ValueError("query text must be non-empty")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if (self.task == "multiple_choice") != bool(self.options):
            raise ValueError("options are required iff task is multiple_choice")


@dataclass
class AnchorEntitySet:
    entities: list[str]  # ordered, no duplicates, all resolve in the KG
    provenance: dict[str, str]  # entity id -> "lexical" | "llm" | "mei"

    def add(self, entity_id: str, source: str) -> bool:
        if entity_id in self.provenance:
            return False
        self.entities.append(entity_id)
        self.provenance[entity_id] = source
        return True


def link_lexical(kg: KnowledgeGraph, query_text: str) -> list[str]:
    """Greedy longest-match gazetteer lookup; returns matched ids in query order.

    Every word-boundary span of the normalized query, up to the longest alias,
    is looked up in the alias index. Matches are claimed longest first (then
    by surface, then by position), and a claimed match suppresses later
    matches overlapping its span.
    """
    nq = normalize(query_text)
    aliases = kg.alias_index()
    starts = [i for i in range(len(nq)) if i == 0 or not nq[i - 1].isalnum()]
    ends = [j for j in range(1, len(nq) + 1) if j == len(nq) or not nq[j].isalnum()]
    longest = kg.max_alias_len()
    found = [
        (j - i, nq[i:j], i)
        for i in starts
        for j in ends
        if i < j <= i + longest and nq[i:j] in aliases
    ]
    found.sort(key=lambda f: (-f[0], f[1], f[2]))
    claimed: list[tuple[int, int]] = []
    hits: list[tuple[int, list[str]]] = []
    for length, surface, i in found:
        j = i + length
        if not any(i < ce and cs < j for cs, ce in claimed):
            claimed.append((i, j))
            hits.append((i, aliases[surface]))
    result: list[str] = []
    for _, ids in sorted(hits, key=lambda h: h[0]):
        for entity_id in ids:
            if entity_id not in result:
                result.append(entity_id)
    return result


def extract_entities_llm(backend, query_text: str, audit: Audit) -> list[str]:
    """LLM-proposed entity names; unparseable responses audit as empty."""
    prompt = render_prompt("entity_extract", {"query": query_text})
    return ask(backend, "entity_extract", prompt, parse_entities, audit) or []


def anchor_entities(
    kg: KnowledgeGraph,
    backend,
    query: Query,
    audit: Audit,
) -> tuple[AnchorEntitySet, list[str], list[str], list[str]]:
    """Union of the lexical linker and resolved LLM names.

    Returns (anchors, lexical_ids, llm_names, unresolved_names); unresolved
    LLM names are audited and dropped so every anchor resolves in the KG.
    """
    anchors = AnchorEntitySet(entities=[], provenance={})
    lexical = link_lexical(kg, query.text)
    for entity_id in lexical:
        anchors.add(entity_id, "lexical")
    llm_names = extract_entities_llm(backend, query.text, audit)
    unresolved: list[str] = []
    for name in llm_names:
        ids = kg.resolve_label(name)
        if not ids:
            unresolved.append(name)
            audit.unresolved_names += 1
            audit.event(f"entity_extract: unresolvable name {name!r}")
            continue
        for entity_id in ids:
            anchors.add(entity_id, "llm")
    return anchors, lexical, llm_names, unresolved
