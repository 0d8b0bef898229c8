import pytest

from groundedqa import HashedEmbedder, KnowledgeGraph, ScriptedBackend, parse_axiom
from groundedqa.entities import AnchorEntitySet
from groundedqa.expansion import (
    Branch,
    ExpansionFailure,
    MissingEvidence,
    expand,
    identify_missing,
)
from groundedqa.trace import Audit

AXIOM = parse_axiom("place_of_birth(Q_C) = Bologna")


@pytest.fixture
def chain_kg():
    return KnowledgeGraph(
        triples=[
            ("Q_B", "first_wife", "Q_C"),
            ("Q_B", "occupation", "politician"),
            ("Q_C", "place_of_birth", "Bologna"),
            ("Q_C", "occupation", "actress"),
        ],
        labels=[("Q_B", "Silvio Berlusconi"), ("Q_C", "Carla Dalloglio")],
    )


def branch_of(kg, *ids, consumed=()):
    """A branch anchored on ``ids`` with their 1-hop subgraph."""
    anchors = AnchorEntitySet(entities=[], provenance={})
    for i in ids:
        anchors.add(i, "lexical")
    return Branch(anchors, kg.one_hop_subgraph(anchors.entities), set(consumed))


def mei_args(kg, backend, anchor, consumed):
    return dict(
        kg=kg, backend=backend, query_text="q", axiom=AXIOM,
        branch=branch_of(kg, anchor, consumed=consumed),
        unsatisfied=list(AXIOM.clauses[0]), audit=Audit(),
    )


def grow(kg, branch, missing, backend, k):
    return expand(
        kg, branch, missing, HashedEmbedder(), backend, AXIOM,
        k=k, audit=Audit(), llm_window=40,
    )


def test_identify_missing_resolves_via_tail(chain_kg):
    backend = ScriptedBackend(
        {"mei": ["MISSING: birthplace of first wife\nENTITY: Carla Dalloglio"]}
    )
    m = identify_missing(**mei_args(chain_kg, backend, "Q_B", {0, 1}))
    assert m.resolved == "Q_C"
    assert m.already_anchor is False
    assert m.description == "birthplace of first wife"


def test_identify_missing_existing_anchor(chain_kg):
    backend = ScriptedBackend({"mei": ["MISSING: more facts\nENTITY: Silvio Berlusconi"]})
    m = identify_missing(**mei_args(chain_kg, backend, "Q_B", {0}))
    assert m.resolved == "Q_B"
    assert m.already_anchor is True


def test_identify_missing_unresolvable_fails(chain_kg):
    backend = ScriptedBackend({"mei": ["MISSING: lost city\nENTITY: Atlantis"]})
    with pytest.raises(ExpansionFailure):
        identify_missing(**mei_args(chain_kg, backend, "Q_B", {0}))


def test_identify_missing_unparseable_fails(chain_kg):
    backend = ScriptedBackend({"mei": ["cannot say"]})
    with pytest.raises(ExpansionFailure):
        identify_missing(**mei_args(chain_kg, backend, "Q_B", {0}))


def test_expand_new_entity_grows_state(chain_kg):
    backend = ScriptedBackend({"triple_select": ["SELECT: 1,2"]})
    branch = branch_of(chain_kg, "Q_B", consumed={0, 1})
    missing = MissingEvidence("x", "Carla Dalloglio", "Q_C", already_anchor=False)
    pruned = grow(chain_kg, branch, missing, backend, k=10)
    assert branch.anchors.provenance["Q_C"] == "mei"
    assert branch.subgraph.triple_ids == frozenset({0, 1, 2, 3})
    assert set(pruned) == {2, 3}
    assert branch.consumed == {0, 1, 2, 3}
    assert branch.depth == 1
    # subgraph invariant: every head is an anchor
    assert all(
        chain_kg.triple(t).head in branch.anchors.provenance for t in branch.subgraph.triple_ids
    )


def test_expand_already_anchor_takes_next_top_k(chain_kg):
    backend = ScriptedBackend({})  # no LLM pruning call on the already-anchor path
    branch = branch_of(chain_kg, "Q_B", "Q_C", consumed={0, 2})
    before = branch.subgraph.triple_ids
    missing = MissingEvidence("x", "Carla Dalloglio", "Q_C", already_anchor=True)
    pruned = grow(chain_kg, branch, missing, backend, k=1)
    assert branch.subgraph.triple_ids == before
    assert len(pruned) == 1
    assert pruned[0] in {1, 3}
    assert backend.call_log == []


def test_expand_already_anchor_all_consumed(chain_kg):
    branch = branch_of(chain_kg, "Q_B", "Q_C")
    branch.consumed.update(branch.subgraph.triple_ids)
    missing = MissingEvidence("x", "Carla Dalloglio", "Q_C", already_anchor=True)
    pruned = grow(chain_kg, branch, missing, ScriptedBackend({}), k=10)
    assert pruned == []
    assert branch.consumed == set(branch.subgraph.triple_ids)


def test_expand_same_entity_twice_idempotent(chain_kg):
    backend = ScriptedBackend({"triple_select": ["SELECT:", "SELECT:"]})
    branch = branch_of(chain_kg, "Q_B")
    missing = MissingEvidence("x", "Carla Dalloglio", "Q_C", already_anchor=False)
    grow(chain_kg, branch, missing, backend, k=10)
    triples1, anchors1 = branch.subgraph.triple_ids, list(branch.anchors.entities)
    grow(chain_kg, branch, missing, backend, k=10)
    assert branch.subgraph.triple_ids == triples1
    assert branch.anchors.entities == anchors1
    assert branch.anchors.entities.count("Q_C") == 1


def test_identify_missing_single_candidate_skips_the_tail_scan(chain_kg, monkeypatch):
    calls = []
    tail_entity = chain_kg.tail_entity
    monkeypatch.setattr(chain_kg, "tail_entity", lambda t: calls.append(t) or tail_entity(t))
    backend = ScriptedBackend({"mei": ["MISSING: birthplace\nENTITY: Carla Dalloglio"]})
    m = identify_missing(**mei_args(chain_kg, backend, "Q_B", ()))
    assert m.resolved == "Q_C"
    assert calls == []
