import copy

import pytest

from groundedqa import (
    HashedEmbedder,
    KnowledgeGraph,
    Query,
    ScriptedBackend,
    SearchConfig,
    answer_multiple_choice,
    answer_query,
    verify_trace,
)

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


def run(kg, script, query_text, config=None, options=(), task="qa_yes_no"):
    backend = ScriptedBackend(copy.deepcopy(script))
    query = Query(text=query_text, options=options, task=task)
    if task == "multiple_choice":
        result = answer_multiple_choice(kg, HashedEmbedder(), backend, query, config)
    else:
        result = answer_query(kg, HashedEmbedder(), backend, query, config)
    return result, backend


def kinds(trace):
    return [s["kind"] for s in trace.steps]


def test_config_rejects_nonpositive_budgets():
    with pytest.raises(ValueError):
        SearchConfig(max_breadth=0)
    with pytest.raises(ValueError):
        SearchConfig(max_depth=-1)


def test_single_hop_true_at_depth_zero():
    result, backend = run(ADULT_KG, ADULT_SCRIPT, ADULT_QUERY)
    assert result.answer.value == "True"
    assert result.branches_used == 1
    assert backend.remaining() == {}
    # everything grounded symbolically: the script holds no judge lines
    assert all(s["depth"] == 0 for s in result.trace.steps)
    assert "MEI" not in kinds(result.trace)
    report = verify_trace(ADULT_KG, result.trace.to_dict())
    assert report.ok and report.grounding_precision == 1.0


def test_unreadable_select_index_is_dropped_not_raised():
    script = {**ADULT_SCRIPT, "triple_select": ["SELECT: ²"]}
    result, backend = run(ADULT_KG, script, ADULT_QUERY)
    assert result.answer.value == "True"
    assert backend.remaining() == {}
    assert "triple_select: dropped invalid index '²'" in result.audit.events


def test_two_hop_true_after_one_expansion():
    result, backend = run(TWO_HOP_KG, TWO_HOP_SCRIPT, TWO_HOP_QUERY)
    assert result.answer.value == "True"
    assert backend.remaining() == {}
    step_kinds = kinds(result.trace)
    assert "MEI" in step_kinds and "Expansion" in step_kinds
    evals = [s for s in result.trace.steps if s["kind"] == "Evaluation"]
    assert [e["payload"]["value"] for e in evals] == ["Unknown", "True"]
    assert evals[-1]["depth"] == 1
    # the winning citation is the birthplace triple reached by expansion
    final_grounding = [s for s in result.trace.steps if s["kind"] == "PremiseGrounding"][-1]
    assert final_grounding["payload"]["evidence"] == [2]
    report = verify_trace(TWO_HOP_KG, result.trace.to_dict())
    assert report.ok and report.grounding_precision == 1.0


def test_two_hop_unusable_mei_yields_unknown():
    config = SearchConfig(max_breadth=1)
    result, backend = run(TWO_HOP_KG, TWO_HOP_SCRIPT_NO_MEI, TWO_HOP_QUERY, config)
    assert result.answer.value == "Unknown"
    assert result.answer.selected_option is None
    assert "Expansion" not in kinds(result.trace)
    assert backend.remaining() == {}
    assert verify_trace(TWO_HOP_KG, result.trace.to_dict()).ok


def test_contradiction_answers_false_with_citation():
    result, backend = run(QUINCE_KG, QUINCE_SCRIPT, QUINCE_QUERY, task="claim")
    assert result.answer.value == "False"
    violated = [
        s for s in result.trace.steps
        if s["kind"] == "PremiseGrounding" and s["payload"]["status"] == "Violated"
    ]
    assert len(violated) == 1
    assert violated[0]["payload"]["evidence"] == [0]  # the age triple
    assert verify_trace(QUINCE_KG, result.trace.to_dict()).ok


def test_unknown_when_no_branch_concludes():
    result, backend = run(TWO_HOP_KG, UNKNOWN_SCRIPT, UNKNOWN_QUERY)
    assert result.answer.value == "Unknown"
    assert result.branches_used == 2
    assert result.audit.parse_failures >= 1  # branch 2 had no AXIOM line
    assert backend.remaining() == {}
    assert verify_trace(TWO_HOP_KG, result.trace.to_dict()).ok


def test_preference_rejects_distractor_then_selects_gold():
    result, backend = run(
        PREFERENCE_KG, PREFERENCE_SCRIPT, PREFERENCE_QUERY,
        options=PREFERENCE_OPTIONS, task="multiple_choice",
    )
    assert result.answer.value == "True"
    assert result.answer.selected_option == 1
    option_results = [s for s in result.trace.steps if s["kind"] == "OptionResult"]
    assert [(s["payload"]["option"], s["payload"]["value"]) for s in option_results] == [
        (0, "False"), (1, "True"),
    ]
    # the distractor is vetoed by a personal-KG fact
    veto = [
        s for s in result.trace.steps
        if s["kind"] == "PremiseGrounding"
        and s["payload"]["option"] == 0
        and s["payload"]["status"] == "Violated"
    ]
    assert len(veto) == 1
    tid = veto[0]["payload"]["evidence"][0]
    assert PREFERENCE_KG.triple(tid).relation == "medical_condition"
    assert backend.remaining() == {}
    assert verify_trace(PREFERENCE_KG, result.trace.to_dict()).ok


def test_multiple_choice_short_circuits_on_first_true():
    # Only the first option is scripted; any call for option 2 would exhaust.
    script = {
        "entity_extract": ["ENTITIES: Sam; Shredded barbecued pork shoulder"],
        "axiom": [PREFERENCE_SCRIPT["axiom"][1]],
        "triple_select": ["SELECT: 1"],
    }
    options = (PREFERENCE_OPTIONS[1], PREFERENCE_OPTIONS[0])
    result, backend = run(
        PREFERENCE_KG, script, PREFERENCE_QUERY,
        options=options, task="multiple_choice",
    )
    assert result.answer.selected_option == 0
    assert backend.remaining() == {}
    assert not any(
        s["payload"].get("option") == 1
        for s in result.trace.steps
        if s["kind"] != "FinalAnswer"
    )


def test_multiple_choice_all_false_is_unknown():
    script = {
        "entity_extract": PREFERENCE_SCRIPT["entity_extract"],
        # both options draw the distractor axiom, which the allergy violates
        "axiom": [PREFERENCE_SCRIPT["axiom"][0], PREFERENCE_SCRIPT["axiom"][0]],
        # both options share the item's anchors, so option 2 also grounds the
        # R1 preparation premise symbolically and needs no judge
        "triple_select": ["SELECT: 1", "SELECT: 1"],
    }
    result, backend = run(
        PREFERENCE_KG, script, PREFERENCE_QUERY,
        options=PREFERENCE_OPTIONS, task="multiple_choice",
    )
    assert result.answer.value == "Unknown"
    assert result.answer.selected_option is None
    assert backend.remaining() == {}


def test_multiple_choice_links_once_per_item():
    # PREFERENCE_SCRIPT holds one entity_extract line for its two options
    result, backend = run(
        PREFERENCE_KG, PREFERENCE_SCRIPT, PREFERENCE_QUERY,
        options=PREFERENCE_OPTIONS, task="multiple_choice",
    )
    assert [s["payload"]["option"] for s in result.trace.steps if s["kind"] == "OptionResult"] == [0, 1]
    assert backend.remaining() == {}
    roles = [role for role, _, _ in backend.call_log]
    assert roles.count("entity_extract") == 1
    for kind in ("EntityLinking", "SubgraphExtraction"):
        payloads = [s["payload"] for s in result.trace.steps if s["kind"] == kind]
        assert [p["option"] for p in payloads] == [0, 1]
        assert {**payloads[0], "option": 1} == payloads[1]


@pytest.mark.parametrize("response, counter", [
    ("no entity line here", "parse_failures"),
    ("ENTITIES: Nobody", "unresolved_names"),
])
def test_linking_failure_is_audited_once_per_item(response, counter):
    kg = KnowledgeGraph(triples=[("A", "age", "10")], labels=[("A", "Alpha")])
    script = {
        "entity_extract": [response],
        # the lexical linker still finds Alpha; both options come out False
        "axiom": ["AXIOM: age(A) >= 18"] * 2,
        "triple_select": ["SELECT: 1"] * 2,
    }
    result, backend = run(
        kg, script, "Is Alpha an adult?", SearchConfig(max_breadth=1),
        options=("yes", "no"), task="multiple_choice",
    )
    assert result.answer.value == "Unknown"
    assert backend.remaining() == {}
    assert result.trace.audit == {
        "rejected_citations": 0, "unresolved_names": 0, "parse_failures": 0, counter: 1,
    }


def test_expansion_under_one_option_leaves_the_next_options_linking_alone():
    # Option 0 expands to Beta; option 1 must still start from Alpha alone.
    kg = KnowledgeGraph(
        triples=[("A", "knows", "B"), ("B", "age", "20")],
        labels=[("A", "Alpha"), ("B", "Beta")],
    )
    script = {
        "entity_extract": ["ENTITIES: Alpha"],
        "axiom": ["AXIOM: foo(B)", "no rule for this option"],
        "triple_select": ["SELECT: 1"] * 2,
        "judge": ["STATUS: UNKNOWN"] * 2,
        "mei": ["MISSING: facts about Beta\nENTITY: Beta"],
    }
    config = SearchConfig(max_breadth=1, max_depth=1)
    result, backend = run(
        kg, script, "Does Alpha know an adult?", config,
        options=("yes", "no"), task="multiple_choice",
    )
    assert backend.remaining() == {}
    expansion = [s["payload"] for s in result.trace.steps if s["kind"] == "Expansion"]
    assert [(p["option"], p["added_entity"]) for p in expansion] == [(0, "B")]
    linking = [s["payload"] for s in result.trace.steps if s["kind"] == "EntityLinking"]
    assert linking[1]["option"] == 1
    assert [a["id"] for a in linking[1]["anchors"]] == ["A"]
    extraction = [s["payload"] for s in result.trace.steps if s["kind"] == "SubgraphExtraction"]
    assert [(p["option"], p["triple_count"]) for p in extraction] == [(0, 1), (1, 1)]
    assert verify_trace(kg, result.trace.to_dict()).ok


def test_call_budget_is_bounded():
    config = SearchConfig(max_breadth=2, max_depth=3)
    result, backend = run(TWO_HOP_KG, TWO_HOP_SCRIPT, TWO_HOP_QUERY, config)
    premises = 1
    bound = config.max_breadth * (config.max_depth + 1) * (premises + 3)
    assert len(backend.call_log) <= bound


def test_pipeline_is_deterministic():
    def once():
        result, _ = run(TWO_HOP_KG, TWO_HOP_SCRIPT, TWO_HOP_QUERY)
        return result.trace.to_json()

    assert once() == once()


def test_trace_carries_query_config_and_audit():
    config = SearchConfig(max_breadth=2, max_depth=3, top_k=7)
    result, _ = run(ADULT_KG, ADULT_SCRIPT, ADULT_QUERY, config)
    doc = result.trace.to_dict()
    assert doc["query"]["text"] == ADULT_QUERY
    assert doc["config"]["top_k"] == 7
    assert set(doc["audit"]) == {
        "rejected_citations", "unresolved_names", "parse_failures",
    }


def test_mei_entity_of_one_branch_does_not_leak_into_the_next():
    # Branch 1 expands to Beta and still ends Unknown. Branch 2 must pull
    # Beta's triples in itself, rather than treat Beta as already anchored.
    kg = KnowledgeGraph(
        triples=[("A", "knows", "B"), ("B", "age", "20")],
        labels=[("A", "Alpha"), ("B", "Beta")],
    )
    script = {
        "entity_extract": ["ENTITIES: Alpha"],
        "axiom": ["AXIOM: foo(B)", "AXIOM: age(B) >= 18"],
        "triple_select": ["SELECT: 1"] * 4,
        "judge": ["STATUS: UNKNOWN"] * 4,
        "mei": ["MISSING: facts about Beta\nENTITY: Beta"] * 2,
    }
    config = SearchConfig(max_breadth=2, max_depth=1)
    result, _ = run(kg, script, "Does Alpha know an adult?", config)
    assert result.answer.value == "True"
    assert result.branches_used == 2
    mei = [s for s in result.trace.steps if s["kind"] == "MEI"]
    assert [(s["branch"], s["payload"]["already_anchor"]) for s in mei] == [(1, False), (2, False)]
    assert verify_trace(kg, result.trace.to_dict()).ok


def test_branch_stops_when_its_expansion_picks_no_new_triples():
    # MEI names the anchor again, whose only triple is already consumed, so
    # the expansion adds nothing and a second round could only repeat the first.
    kg = KnowledgeGraph(
        triples=[("A", "knows", "B")],
        labels=[("A", "Alpha"), ("B", "Beta")],
    )
    script = {
        "entity_extract": ["ENTITIES: Alpha"],
        "axiom": ["AXIOM: famous(Alpha) = yes"],
        "triple_select": ["SELECT: 1"],
        # padded, so that extra rounds would run rather than exhaust the script
        "judge": ["STATUS: UNKNOWN"] * 4,
        "mei": ["MISSING: how famous Alpha is\nENTITY: Alpha"] * 4,
    }
    config = SearchConfig(max_breadth=1, max_depth=3)
    result, backend = run(kg, script, "Is Alpha famous?", config)
    assert result.answer.value == "Unknown"
    roles = [role for role, _, _ in backend.call_log]
    assert roles.count("judge") == 1 and roles.count("mei") == 1
    mei = [s for s in result.trace.steps if s["kind"] == "MEI"]
    assert [s["payload"]["already_anchor"] for s in mei] == [True]
    expansion = [s for s in result.trace.steps if s["kind"] == "Expansion"]
    assert [s["payload"]["new_pruned_ids"] for s in expansion] == [[]]
    assert result.trace.steps[-2] is expansion[0]  # the branch ended right there
    assert any("picked no new triples" in e for e in result.audit.events)
    assert verify_trace(kg, result.trace.to_dict()).ok
