"""Missing Evidence Identification and branch state expansion.

When grounding leaves premises Unknown, the LLM names what evidence is
missing and which entity would provide it. A new entity grows the branch's
anchor set and subgraph before re-pruning; an entity that is already an
anchor just surfaces its next batch of unconsumed triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .axioms import Axiom, serialize_axiom, serialize_premise
from .entities import AnchorEntitySet
from .grounding import PremiseGrounding
from .kg import KnowledgeGraph, Subgraph, drop_ids
from .llm import ask, parse_mei
from .prompts import render_prompt
from .retrieval import Embedder, numbered_triples, prune_subgraph, top_k_similar
from .trace import Audit


class ExpansionFailure(RuntimeError):
    """MEI could not produce a usable next entity; the branch ends here."""


@dataclass
class Branch:
    """Search state of one axiom branch, and its only owner.

    A branch starts from its own copy of the item's linked anchors and from
    the item's read-only 1-hop subgraph; ``expand`` grows only this branch.
    """

    anchors: AnchorEntitySet
    subgraph: Subgraph
    consumed: set[int] = field(default_factory=set)
    groundings: dict[tuple[int, int], PremiseGrounding] = field(default_factory=dict)
    depth: int = 0


@dataclass(frozen=True)
class MissingEvidence:
    description: str
    entity_name: str
    resolved: str
    already_anchor: bool


def identify_missing(
    kg: KnowledgeGraph,
    backend,
    query_text: str,
    axiom: Axiom,
    branch: Branch,
    unsatisfied: list,
    audit: Audit,
) -> MissingEvidence:
    """Ask the MEI module for the missing evidence and next anchor entity.

    The LLM sees the branch's consumed triples. The entity name is resolved
    against KG labels/aliases first, then against raw ids; candidates
    appearing as tails of the branch's subgraph win ties. Unparseable
    responses and unresolvable names fail the expansion.
    """
    prompt = render_prompt(
        "mei",
        {
            "query": query_text,
            "axiom_text": serialize_axiom(axiom),
            "unsatisfied": "\n".join(f"- {serialize_premise(p)}" for p in unsatisfied),
            "numbered_triples": numbered_triples(kg, sorted(branch.consumed)),
        },
    )
    parsed = ask(backend, "mei", prompt, parse_mei, audit)
    if parsed is None:
        raise ExpansionFailure("unparseable MEI response")
    description, entity_name = parsed
    candidates = kg.resolve_label(entity_name)
    if not candidates and entity_name in kg.entities:
        candidates = [entity_name]
    if not candidates:
        audit.unresolved_names += 1
        audit.event(f"mei: unresolvable entity {entity_name!r}")
        raise ExpansionFailure(f"MEI entity {entity_name!r} does not resolve")
    resolved = candidates[0]
    if len(candidates) > 1:
        subgraph_tails = {
            kg.tail_entity(kg.triple(tid))
            for tid in branch.subgraph.ids.tolist()
        }
        resolved = next((c for c in candidates if c in subgraph_tails), resolved)
    return MissingEvidence(
        description=description,
        entity_name=entity_name,
        resolved=resolved,
        already_anchor=resolved in branch.anchors.provenance,
    )


def expand(
    kg: KnowledgeGraph,
    branch: Branch,
    missing: MissingEvidence,
    embedder: Embedder,
    backend,
    axiom: Axiom,
    k: int,
    audit: Audit,
    llm_window: int,
) -> list[int]:
    """Grow the branch one level deeper, in place; returns the newly pruned ids.

    Already-anchored entities yield their next top-k unconsumed triples; a
    new entity joins the anchor set, its 1-hop triples join the subgraph,
    and a full pruning round runs over the grown subgraph.
    """
    branch.depth += 1
    if missing.already_anchor:
        available = drop_ids(branch.subgraph.ids, branch.consumed)
        picked = top_k_similar(embedder, serialize_axiom(axiom), kg, available, k)
        branch.consumed.update(picked)
        return picked
    branch.anchors.add(missing.resolved, "mei")
    branch.subgraph = branch.subgraph.union(kg.one_hop_subgraph([missing.resolved]))
    return prune_subgraph(
        embedder, backend, kg, axiom, branch.subgraph, k, branch.consumed, audit, llm_window,
    )
