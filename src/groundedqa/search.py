"""Tree-structured query controller.

Breadth iterates over surfaced axioms, depth over evidence expansions, and
for multiple choice an outer loop walks the options in order. Entity linking
and 1-hop subgraph extraction run once per item, before that loop; every
option records the same ``EntityLinking`` and ``SubgraphExtraction`` payloads.
A True or False evaluation ends the search immediately (for multiple choice,
False ends only that option); exhausting every branch yields Unknown rather
than a guess. Each branch searches on its own ``Branch`` state, copied from
the shared linking result, so evidence that one branch's expansions add
never reaches another branch or option.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .axioms import Axiom, parse_axiom, serialize_axiom, serialize_premise
from .entities import AnchorEntitySet, Query, anchor_entities
from .expansion import Branch, ExpansionFailure, expand, identify_missing
from .grounding import Answer, GroundingStatus, evaluate_axiom, ground_premise
from .kg import KnowledgeGraph, Subgraph
from .llm import ask, parse_axiom_block
from .prompts import render_prompt
from .retrieval import DEFAULT_LLM_WINDOW, Embedder, prune_subgraph
from .trace import Audit, ReasoningTrace


@dataclass
class SearchConfig:
    max_breadth: int = 2
    max_depth: int = 3
    top_k: int = 10
    llm_window: int = DEFAULT_LLM_WINDOW

    def __post_init__(self):
        for name in ("max_breadth", "max_depth", "top_k", "llm_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class QueryResult:
    answer: Answer
    trace: ReasoningTrace
    audit: Audit
    branches_used: int


def surface_axiom(
    backend,
    query: Query,
    option: Optional[str],
    prior_axioms: list[Axiom],
    audit: Audit,
) -> Optional[Axiom]:
    """Prompt for a fresh axiom (distinct from prior ones); None if unparseable."""
    prompt = render_prompt(
        "axiom",
        {
            "query": query.text,
            "option": option,
            "prior_axioms": [serialize_axiom(a) for a in prior_axioms],
        },
    )
    return ask(backend, "axiom", prompt, _parse_surfaced, audit)


def _parse_surfaced(response: str) -> Optional[Axiom]:
    block = parse_axiom_block(response)
    return None if block is None else parse_axiom(block[0], natural_text=block[1])


@dataclass
class _ItemSearch:
    """One item's inputs, trace, audit, linking result and 1-hop subgraph, shared by its options."""

    kg: KnowledgeGraph
    embedder: Embedder
    backend: object
    query: Query
    config: SearchConfig
    trace: ReasoningTrace
    audit: Audit
    linked: tuple[AnchorEntitySet, list[str], list[str], list[str]]
    subgraph: Subgraph

    def run_option(self, option: Optional[str], option_index: Optional[int]) -> tuple[str, int]:
        """Evaluate one option (or the whole query); returns (value, branches_used)."""

        def record(kind: str, payload: dict, branch: int = 0, depth: int = 0) -> None:
            self.trace.record(kind, {"option": option_index, **payload}, branch=branch, depth=depth)

        anchors, lexical, llm_names, unresolved = self.linked
        # fresh lists per option, so no two trace steps share a payload object
        record("EntityLinking", {
            "lexical": list(lexical),
            "llm_names": list(llm_names),
            "unresolved": list(unresolved),
            "anchors": [{"id": e, "provenance": anchors.provenance[e]} for e in anchors.entities],
        })
        record("SubgraphExtraction", {
            "anchor_count": len(anchors.entities),
            "triple_count": len(self.subgraph.ids),
        })

        prior_axioms: list[Axiom] = []
        for branch in range(1, self.config.max_breadth + 1):
            axiom = surface_axiom(self.backend, self.query, option, prior_axioms, self.audit)
            if axiom is None:
                continue
            prior_axioms.append(axiom)
            record("AxiomSurfacing", {
                "branch": branch,
                "natural_text": axiom.natural_text,
                "axiom_text": serialize_axiom(axiom),
                "clauses": [[serialize_premise(p) for p in clause] for clause in axiom.clauses],
            }, branch)
            value = self._run_branch(axiom, branch, Branch(anchors, self.subgraph), record)
            if value != "Unknown":
                return value, branch
        return "Unknown", self.config.max_breadth

    def _run_branch(self, axiom: Axiom, branch: int, state: Branch, record) -> str:
        """Prune, then ground → evaluate → MEI → expand until a verdict or the budget."""
        pruned = prune_subgraph(
            self.embedder, self.backend, self.kg, axiom, state.subgraph, self.config.top_k,
            state.consumed, self.audit, self.config.llm_window,
        )
        record("Pruning", {
            "new_ids": pruned,
            "cumulative_ids": sorted(state.consumed),
        }, branch)
        while True:
            for ci, pi, premise in axiom.premises():
                prior = state.groundings.get((ci, pi))
                if prior is not None and prior.status is not GroundingStatus.UNKNOWN:
                    continue  # settled verdicts and their citations stand
                g = ground_premise(self.kg, self.backend, premise, state.consumed, self.audit)
                state.groundings[(ci, pi)] = g
                record("PremiseGrounding", {
                    "premise": serialize_premise(premise),
                    "clause_index": ci,
                    "premise_index": pi,
                    "status": g.status.value,
                    "method": g.method,
                    "evidence": sorted(g.evidence),
                }, branch, state.depth)
            value = evaluate_axiom(axiom, state.groundings)
            record("Evaluation", {"value": value}, branch, state.depth)
            if value != "Unknown" or state.depth >= self.config.max_depth:
                return value
            unsatisfied = [
                p for (ci, pi, p) in axiom.premises()
                if state.groundings[(ci, pi)].status is GroundingStatus.UNKNOWN
            ]
            try:
                missing = identify_missing(
                    self.kg, self.backend, self.query.text, axiom, state, unsatisfied, self.audit,
                )
            except ExpansionFailure as exc:
                self.audit.event(f"branch {branch} ended at depth {state.depth}: {exc}")
                return "Unknown"
            record("MEI", {
                "missing": missing.description,
                "entity_name": missing.entity_name,
                "resolved": missing.resolved,
                "already_anchor": missing.already_anchor,
            }, branch, state.depth)
            before = len(state.subgraph.ids)
            pruned = expand(
                self.kg, state, missing, self.embedder, self.backend, axiom, self.config.top_k,
                self.audit, self.config.llm_window,
            )
            record("Expansion", {
                "added_entity": missing.resolved,
                "new_subgraph_count": len(state.subgraph.ids) - before,
                "new_pruned_ids": pruned,
                "cumulative_ids": sorted(state.consumed),
            }, branch, state.depth)
            if not pruned:
                # nothing new to ground on: another round would repeat the last one
                self.audit.event(f"branch {branch} ended at depth {state.depth}: "
                                 "expansion picked no new triples")
                return "Unknown"


def answer_query(
    kg: KnowledgeGraph,
    embedder: Embedder,
    backend,
    query: Query,
    config: Optional[SearchConfig] = None,
) -> QueryResult:
    """Answer a yes/no or claim query with a verifiable trace."""
    return _answer(kg, embedder, backend, query, config, multiple_choice=False)


def answer_multiple_choice(
    kg: KnowledgeGraph,
    embedder: Embedder,
    backend,
    query: Query,
    config: Optional[SearchConfig] = None,
) -> QueryResult:
    """Evaluate options in order; the first fully satisfied option is selected."""
    if not query.options:
        raise ValueError("multiple choice requires options")
    return _answer(kg, embedder, backend, query, config, multiple_choice=True)


def _answer(
    kg: KnowledgeGraph,
    embedder: Embedder,
    backend,
    query: Query,
    config: Optional[SearchConfig],
    multiple_choice: bool,
) -> QueryResult:
    """Run the query, or each option in order, then finalise answer and trace."""
    config = config or SearchConfig()
    trace = ReasoningTrace(
        query={"text": query.text, "options": list(query.options), "task": query.task},
        config=asdict(config),
    )
    audit = Audit()
    # one linking call per item: its prompt holds only the query text
    linked = anchor_entities(kg, backend, query, audit)
    subgraph = kg.one_hop_subgraph(linked[0].entities)
    search = _ItemSearch(kg, embedder, backend, query, config, trace, audit, linked, subgraph)
    if multiple_choice:
        answer, branches = Answer(value="Unknown"), 0
        for idx, option in enumerate(query.options):
            value, used = search.run_option(option, idx)
            branches += used
            trace.record("OptionResult", {"option": idx, "value": value})
            if value == "True":
                answer = Answer(value="True", selected_option=idx)
                break
    else:
        value, branches = search.run_option(None, None)
        answer = Answer(value=value)
    trace.finish({"value": answer.value, "selected_option": answer.selected_option}, audit)
    return QueryResult(answer=answer, trace=trace, audit=audit, branches_used=branches)
