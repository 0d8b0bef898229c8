"""Golden hashes: refactors must keep trace bytes and prompt text identical.

The prompt sha256 values were recorded from the code before the
branch-state refactor. The trace values were re-recorded once, for trace
schema 2, after checking that each schema-2 trace equals its schema-1 trace
but for the version and the subgraph id lists, which became their counts.
The ``preference`` trace was re-recorded when entity linking moved to once
per item, because its script then holds one linking answer for both options
(the union of the two per-option answers); the code before that move, given
that answer once per option, writes the same bytes.
All eight were re-recorded once more when traces went from the ``indent=2``
layout to the standard library's compact form (``separators=(",", ":")``,
still sorted keys and ``ensure_ascii=False``). Before that re-record, each
scenario's ``json.dumps(json.loads(trace.to_json()), sort_keys=True,
indent=2, ensure_ascii=False)`` was checked to hash to the value recorded
for the indented layout, 8 of 8: the documents did not change, only their
layout.
A changed hash means a change in what the engine asks the LLM or writes to
its trace, which needs its own justification, not a new hash.

A live trace keeps its steps in the shape its saved file loads back to, so
each scenario's ``trace.steps`` equals the steps of the document it saves.
"""

import copy
import hashlib

import pytest

from groundedqa import (
    HashedEmbedder,
    KnowledgeGraph,
    Query,
    ScriptedBackend,
    SearchConfig,
    answer_multiple_choice,
    answer_query,
    load_trace,
)
from groundedqa.baseline import baseline_retrieve_read
from groundedqa.prompts import render_prompt

from fixture_data import (
    ADULT_KG,
    ADULT_QUERY,
    ADULT_SCRIPT,
    PREFERENCE_KG,
    PREFERENCE_OPTIONS,
    PREFERENCE_QUERY,
    PREFERENCE_SCRIPT,
    QUINCE_KG,
    QUINCE_QUERY,
    QUINCE_SCRIPT,
    TWO_HOP_KG,
    TWO_HOP_QUERY,
    TWO_HOP_SCRIPT,
    TWO_HOP_SCRIPT_NO_MEI,
    UNKNOWN_QUERY,
    UNKNOWN_SCRIPT,
)

# MEI names the entity that is already the anchor twice, so both expansions
# take the next top-1 triples of the same subgraph.
ALREADY_ANCHOR_SCRIPT = {
    "entity_extract": ["ENTITIES: Virginia Raggi"],
    "axiom": ["AXIOM: nationality(Virginia_Raggi) = Italy"],
    "triple_select": ["SELECT:"],
    "judge": ["STATUS: UNKNOWN", "STATUS: UNKNOWN", "STATUS: SATISFIED\nEVIDENCE: 3"],
    "mei": ["MISSING: nationality\nENTITY: Virginia Raggi"] * 2,
}

# Branch 1 expands to Beta; branch 2 must load Beta's triples itself.
BRANCH_KG = KnowledgeGraph(
    triples=[("A", "knows", "B"), ("B", "age", "20")],
    labels=[("A", "Alpha"), ("B", "Beta")],
)
BRANCH_SCRIPT = {
    "entity_extract": ["ENTITIES: Alpha"],
    "axiom": ["AXIOM: foo(B)", "AXIOM: age(B) >= 18"],
    "triple_select": ["SELECT: 1"] * 4,
    "judge": ["STATUS: UNKNOWN"] * 4,
    "mei": ["MISSING: facts about Beta\nENTITY: Beta"] * 2,
}

SCENARIOS = {
    # name: (kg, script, query, options, config)
    "single_hop": (ADULT_KG, ADULT_SCRIPT, ADULT_QUERY, (), None),
    "two_hop": (TWO_HOP_KG, TWO_HOP_SCRIPT, TWO_HOP_QUERY, (), None),
    "two_hop_no_mei": (TWO_HOP_KG, TWO_HOP_SCRIPT_NO_MEI, TWO_HOP_QUERY, (),
                       SearchConfig(max_breadth=1)),
    "contradiction": (QUINCE_KG, QUINCE_SCRIPT, QUINCE_QUERY, (), None),
    "preference": (PREFERENCE_KG, PREFERENCE_SCRIPT, PREFERENCE_QUERY,
                   PREFERENCE_OPTIONS, None),
    "unknown": (TWO_HOP_KG, UNKNOWN_SCRIPT, UNKNOWN_QUERY, (), None),
    "already_anchor": (ADULT_KG, ALREADY_ANCHOR_SCRIPT, ADULT_QUERY, (),
                       SearchConfig(max_breadth=1, top_k=1)),
    "branch_isolation": (BRANCH_KG, BRANCH_SCRIPT, "Does Alpha know an adult?", (),
                         SearchConfig(max_breadth=2, max_depth=1)),
}

TRACE_SHA256 = {
    "already_anchor": "7810d121882044b8e91bad559bd293bde35dce83edee3cf3a6b73ba8e7e63f6e",
    "branch_isolation": "fbf50446ffd49e37c1857a43498984c8a96793efec3f1364b0d02e879360b310",
    "contradiction": "139a6f00f3086486740630fc0a84de55df6b22e1672d54d8b41c210448bf9e0e",
    "preference": "8dd8567db6c58d17824d127a8500f6b633faf3433301d186040c031bf5a0bf87",
    "single_hop": "de0c1e25feb496614255fbb14158a162fcdd6f50cc0ae03f39facd395f5cb5c6",
    "two_hop": "8756978e5b99ec16ac31aba797bb74b472c2af2bd8db1f202f027cd71886f3d3",
    "two_hop_no_mei": "0b0a2c0c0f4acbf65d6190d079e50ebc1e581223e99aa4d5e2f28fbfb392242c",
    "unknown": "958636fc236c03528ce2c7786b31dce8bdb887a6c52afe83869648eedd1c2ff6",
}

PROMPT_CONTEXTS = {
    "entity_extract": ("entity_extract", {"query": "Is Alan Turing older than 40?"}),
    "axiom": ("axiom", {"query": "Q?", "option": None, "prior_axioms": []}),
    "axiom_option_prior": ("axiom", {
        "query": "Which dish suits Sam?",
        "option": "Shredded pork",
        "prior_axioms": ["p(A)", "age(A) >= 18 OR q(A)"],
    }),
    "triple_select": ("triple_select", {
        "axiom_text": "age(Q1) < 20", "numbered_triples": "1. A age 45\n2. A r B",
    }),
    "judge": ("judge", {"premise_text": "age(Q1) < 20", "numbered_triples": "1. A age 45"}),
    "mei": ("mei", {
        "query": "Q?", "axiom_text": "p(A) AND q(B)",
        "unsatisfied": "- q(B)", "numbered_triples": "1. A r B",
    }),
    "baseline": ("baseline", {"query": "Q?", "numbered_triples": "1. A r B"}),
}

PROMPT_SHA256 = {
    "axiom": "9257338a2d5d61d18ec78144ec62e244a737f0048716be74f7d1987aa2ae14b3",
    "axiom_option_prior": "e0be9485c98115c7b2becfd1a7006c5a75af52f6031b00207009b7a4a14d7297",
    "baseline": "721f6ee9503041d9ec51dc7087dc88cb03fa0d75fe94d5dbd23da441ea0af7b9",
    "entity_extract": "923639238620cab6b56ce43b1c2f399469c657796891b00b82ff1e0cfcca6d1a",
    "judge": "7ecd327f61bf6180f5bd33873e2ca29a12fed1f8acf7243fe52fedf043143321",
    "mei": "6cea51988715e1bf047994d28ed4c182a8cd735a5558622581591d7137669b8b",
    "triple_select": "9f38919b2ae3d3a70987aa1212dbb97c0a0e8ce4bc2b7df476372ba2a253d8aa",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_json_matches_golden_hash(name):
    kg, script, text, options, config = SCENARIOS[name]
    backend = ScriptedBackend(copy.deepcopy(script))
    query = Query(text=text, options=options,
                  task="multiple_choice" if options else "qa_yes_no")
    answer = answer_multiple_choice if options else answer_query
    result = answer(kg, HashedEmbedder(), backend, query, config)
    assert _sha256(result.trace.to_json()) == TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_live_steps_equal_saved_steps(name, tmp_path):
    kg, script, text, options, config = SCENARIOS[name]
    query = Query(text=text, options=options,
                  task="multiple_choice" if options else "qa_yes_no")
    answer = answer_multiple_choice if options else answer_query
    trace = answer(kg, HashedEmbedder(), ScriptedBackend(copy.deepcopy(script)),
                   query, config).trace
    trace.save(tmp_path / "trace.json")
    assert load_trace(tmp_path / "trace.json")["steps"] == trace.steps


def test_live_baseline_steps_equal_saved_steps(tmp_path):
    _, trace = baseline_retrieve_read(
        ADULT_KG, HashedEmbedder(), ScriptedBackend({"baseline": ["Yes, 45 is adult."]}),
        Query(text=ADULT_QUERY), k=2,
    )
    trace.save(tmp_path / "trace.json")
    doc = load_trace(tmp_path / "trace.json")
    assert doc["steps"] == trace.steps
    assert doc["steps"][-1]["payload"]["raw_response"] == "Yes, 45 is adult."


@pytest.mark.parametrize("name", sorted(PROMPT_CONTEXTS))
def test_rendered_prompt_matches_golden_hash(name):
    role, context = PROMPT_CONTEXTS[name]
    assert _sha256(render_prompt(role, context)) == PROMPT_SHA256[name]
