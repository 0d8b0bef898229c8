"""Missing Evidence Identification and branch state expansion.

When grounding leaves premises Unknown, the LLM names what evidence is
missing and which entity would provide it. A new entity grows the anchor
set and subgraph before re-pruning; an entity that is already an anchor
just surfaces its next batch of unconsumed triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .axioms import Axiom, serialize_axiom, serialize_premise
from .entities import AnchorEntitySet
from .kg import KnowledgeGraph, Subgraph
from .llm import LlmRequest, parse_mei
from .prompts import number_lines, render_prompt
from .retrieval import Embedder, PrunedTripleSet, prune_subgraph, top_k_similar, verbalize
from .trace import Audit


class ExpansionFailure(RuntimeError):
    """MEI could not produce a usable next entity; the branch ends here."""


@dataclass(frozen=True)
class MissingEvidence:
    description: str
    entity_name: str
    resolved: Optional[str]
    already_anchor: bool


def identify_missing(
    kg: KnowledgeGraph,
    backend,
    query_text: str,
    axiom: Axiom,
    subgraph: Subgraph,
    current_triples: set[int],
    unsatisfied: list,
    anchors: AnchorEntitySet,
    audit: Audit,
) -> MissingEvidence:
    """Ask the MEI module for the missing evidence and next anchor entity.

    The entity name is resolved against KG labels/aliases first, then against
    raw ids; candidates appearing as tails of the current subgraph win ties.
    Unparseable responses and unresolvable names fail the expansion.
    """
    numbered = number_lines(
        [verbalize(kg, kg.triple(tid)) for tid in sorted(current_triples)]
    )
    prompt = render_prompt(
        "mei",
        {
            "query": query_text,
            "axiom_text": serialize_axiom(axiom),
            "unsatisfied": "\n".join(f"- {serialize_premise(p)}" for p in unsatisfied),
            "numbered_triples": numbered,
        },
    )
    response = backend.complete(LlmRequest(role="mei", rendered_prompt=prompt))
    parsed = parse_mei(response)
    if parsed is None:
        audit.parse_failures += 1
        audit.event("mei: unparseable response")
        raise ExpansionFailure("unparseable MEI response")
    description, entity_name = parsed
    candidates = kg.resolve_label(entity_name)
    if not candidates and entity_name in kg.entities:
        candidates = [entity_name]
    if not candidates:
        audit.unresolved_names += 1
        audit.event(f"mei: unresolvable entity {entity_name!r}")
        raise ExpansionFailure(f"MEI entity {entity_name!r} does not resolve")
    subgraph_tails = {
        kg.tail_entity(kg.triple(tid))
        for tid in subgraph.triple_ids
    }
    preferred = [c for c in candidates if c in subgraph_tails]
    resolved = preferred[0] if preferred else candidates[0]
    return MissingEvidence(
        description=description,
        entity_name=entity_name,
        resolved=resolved,
        already_anchor=resolved in anchors.provenance,
    )


def expand(
    kg: KnowledgeGraph,
    anchors: AnchorEntitySet,
    subgraph: Subgraph,
    missing: MissingEvidence,
    embedder: Embedder,
    backend,
    axiom: Axiom,
    k: int,
    consumed: set[int],
    audit: Audit,
    llm_window: int,
) -> tuple[Subgraph, PrunedTripleSet]:
    """Grow the branch state per the missing-evidence verdict.

    Already-anchored entities yield their next top-k unconsumed triples; a
    new entity joins the anchor set, its 1-hop triples join the subgraph,
    and a full pruning round runs over the grown subgraph.
    """
    if missing.resolved is None:
        raise ExpansionFailure("cannot expand without a resolved entity")
    if missing.already_anchor:
        available = sorted(set(subgraph.triple_ids) - consumed)
        picked = top_k_similar(embedder, serialize_axiom(axiom), kg, available, k)
        consumed.update(picked)
        return subgraph, PrunedTripleSet(triple_ids=picked)
    anchors.add(missing.resolved, "mei")
    extra = kg.one_hop_subgraph([missing.resolved])
    grown = Subgraph(
        triple_ids=subgraph.triple_ids | extra.triple_ids,
        anchor_set=subgraph.anchor_set | {missing.resolved},
    )
    pruned = prune_subgraph(
        embedder, backend, kg, axiom, grown, k, consumed, audit, llm_window,
    )
    return grown, pruned
