import copy
import json

import pytest

from groundedqa import (
    HashedEmbedder,
    Query,
    ReasoningTrace,
    ScriptedBackend,
    answer_multiple_choice,
    answer_query,
    load_trace,
    verify_trace,
)
from groundedqa.trace import SCHEMA_VERSION, TraceSchemaError

from fixture_data import (
    ADULT_KG,
    ADULT_QUERY,
    ADULT_SCRIPT,
    PREFERENCE_KG,
    PREFERENCE_OPTIONS,
    PREFERENCE_QUERY,
    PREFERENCE_SCRIPT,
    TWO_HOP_KG,
    TWO_HOP_QUERY,
    TWO_HOP_SCRIPT,
)
from test_golden import SCENARIOS


def adult_doc():
    backend = ScriptedBackend(copy.deepcopy(ADULT_SCRIPT))
    result = answer_query(ADULT_KG, HashedEmbedder(), backend, Query(text=ADULT_QUERY))
    return result.trace.to_dict()


def steps_of(doc, kind):
    return [s for s in doc["steps"] if s["kind"] == kind]


def rules(report):
    return {v.rule for v in report.violations}


# -- recording and round-trip -------------------------------------------------

def test_record_assigns_sequence_numbers():
    trace = ReasoningTrace(query={"text": "q"}, config={})
    trace.record("EntityLinking", {"anchors": []})
    trace.record("FinalAnswer", {"value": "Unknown"})
    assert [s["seq"] for s in trace.steps] == [0, 1]


def test_record_rejects_unknown_kind():
    trace = ReasoningTrace(query={"text": "q"}, config={})
    with pytest.raises(ValueError):
        trace.record("Improvised", {})


def test_save_load_round_trip(tmp_path):
    doc = adult_doc()
    trace_file = tmp_path / "t.json"
    backend = ScriptedBackend(copy.deepcopy(ADULT_SCRIPT))
    result = answer_query(ADULT_KG, HashedEmbedder(), backend, Query(text=ADULT_QUERY))
    result.trace.save(trace_file)
    assert load_trace(trace_file) == doc


@pytest.mark.parametrize("scenario", ["single_hop", "two_hop", "multiple_choice"])
def test_save_returns_the_document_it_wrote(tmp_path, scenario):
    if scenario == "multiple_choice":
        backend = ScriptedBackend(copy.deepcopy(PREFERENCE_SCRIPT))
        query = Query(PREFERENCE_QUERY, PREFERENCE_OPTIONS, "multiple_choice")
        result = answer_multiple_choice(PREFERENCE_KG, HashedEmbedder(), backend, query)
    else:
        kg, script, text = {
            "single_hop": (ADULT_KG, ADULT_SCRIPT, ADULT_QUERY),
            "two_hop": (TWO_HOP_KG, TWO_HOP_SCRIPT, TWO_HOP_QUERY),
        }[scenario]
        backend = ScriptedBackend(copy.deepcopy(script))
        result = answer_query(kg, HashedEmbedder(), backend, Query(text=text))
    path = tmp_path / "t.json"
    doc = result.trace.save(path)
    assert doc == json.loads(path.read_text(encoding="utf-8"))
    assert doc == result.trace.to_dict()


def test_serialization_is_byte_stable():
    backend = ScriptedBackend(copy.deepcopy(ADULT_SCRIPT))
    r1 = answer_query(ADULT_KG, HashedEmbedder(), backend, Query(text=ADULT_QUERY))
    backend = ScriptedBackend(copy.deepcopy(ADULT_SCRIPT))
    r2 = answer_query(ADULT_KG, HashedEmbedder(), backend, Query(text=ADULT_QUERY))
    assert r1.trace.to_json() == r2.trace.to_json()


def test_subgraph_counts_match_the_recomputed_subgraphs():
    # A trace records subgraph sizes only; the subgraphs themselves follow
    # from the linked anchors plus each expansion's added entity.
    expansion_counts = []
    for kg, script, text, options, config in SCENARIOS.values():
        backend = ScriptedBackend(copy.deepcopy(script))
        query = Query(text, options, "multiple_choice" if options else "qa_yes_no")
        answer = answer_multiple_choice if options else answer_query
        doc = answer(kg, HashedEmbedder(), backend, query, config).trace.to_dict()

        def size(anchors):
            return len(kg.one_hop_subgraph(anchors).triple_ids)

        linked, branch_anchors = {}, {}
        for step in doc["steps"]:
            payload = step["payload"]
            key = (payload.get("option"), step["branch"])
            if step["kind"] == "EntityLinking":
                linked[key[0]] = [a["id"] for a in payload["anchors"]]
            elif step["kind"] == "SubgraphExtraction":
                assert payload["triple_count"] == size(linked[key[0]])
            elif step["kind"] == "AxiomSurfacing":
                branch_anchors[key] = list(linked[key[0]])
            elif step["kind"] == "Expansion":
                before = size(branch_anchors[key])
                branch_anchors[key].append(payload["added_entity"])
                assert payload["new_subgraph_count"] == size(branch_anchors[key]) - before
                expansion_counts.append(payload["new_subgraph_count"])
    assert 0 in expansion_counts and max(expansion_counts) > 0


def test_non_ascii_round_trips(tmp_path):
    trace = ReasoningTrace(query={"text": "quinceañera?"}, config={})
    path = tmp_path / "t.json"
    trace.save(path)
    assert load_trace(path)["query"]["text"] == "quinceañera?"
    assert "quinceañera" in path.read_text(encoding="utf-8")


def test_a_lone_surrogate_round_trips(tmp_path):
    text = f"quincea{chr(0xD800)}era?"  # JSON text and a non-UTF-8 argv can carry one
    trace = ReasoningTrace(query={"text": text}, config={})
    path = tmp_path / "t.json"
    trace.save(path)
    assert load_trace(path)["query"]["text"] == text


def test_save_rejects_what_json_cannot_encode(tmp_path):
    trace = ReasoningTrace(query={"text": "q"}, config={})
    trace.record("Pruning", {"x": {1, 2}})
    path = tmp_path / "t.json"
    with pytest.raises(TypeError):
        trace.save(path)
    assert not path.exists()


@pytest.mark.parametrize("keys", [[1, "b"], [2.5, True], [None, False], [10, 9]])
def test_save_converts_non_string_keys_like_the_standard_library(keys, tmp_path):
    payload = dict.fromkeys(keys, 0)
    trace = ReasoningTrace(query={"text": "q"}, config={})
    trace.record("Pruning", payload)
    path = tmp_path / "t.json"
    try:
        want = json.loads(json.dumps(payload, sort_keys=True))
    except TypeError:  # mixed key types cannot be sorted
        with pytest.raises(TypeError):
            trace.save(path)
        assert not path.exists()
    else:
        trace.save(path)
        assert load_trace(path)["steps"][0]["payload"] == want


# -- verification -------------------------------------------------------------

def test_clean_trace_verifies():
    report = verify_trace(ADULT_KG, adult_doc())
    assert report.ok
    assert report.violations == []
    assert report.grounding_precision == 1.0
    assert report.steps_checked == len(adult_doc()["steps"])


def test_wrong_schema_version_rejected():
    doc = adult_doc()
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(TraceSchemaError):
        verify_trace(ADULT_KG, doc)


def _malformed(edit):
    doc = adult_doc()
    edit(doc)
    return doc


def _first(doc, kind):
    return steps_of(doc, kind)[0]


MALFORMED = {
    "step_not_an_object": lambda d: d.update(steps=[1]),
    "evidence_not_a_list": lambda d: _first(d, "PremiseGrounding")["payload"].update(evidence=5),
    "payload_null": lambda d: d["steps"][0].update(payload=None),
    "branch_unhashable": lambda d: _first(d, "AxiomSurfacing").update(branch=[1]),
    "depth_not_a_number": lambda d: (d["config"].update(max_depth=3),
                                     d["steps"][0].update(depth="x")),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_trace_document_raises_trace_schema_error(edit):
    with pytest.raises(TraceSchemaError, match="malformed trace"):
        verify_trace(ADULT_KG, _malformed(edit))


def test_a_document_that_is_not_an_object_raises_trace_schema_error():
    with pytest.raises(TraceSchemaError, match="malformed trace"):
        verify_trace(ADULT_KG, [])


def test_schema_1_trace_still_verifies():
    # Schema 1 recorded the subgraph's triple ids where schema 2 records a count.
    doc = adult_doc()
    doc["schema_version"] = 1
    payload = steps_of(doc, "SubgraphExtraction")[0]["payload"]
    del payload["triple_count"]
    payload["triple_ids"] = sorted(ADULT_KG.one_hop_subgraph(["Q1"]).triple_ids)
    assert verify_trace(ADULT_KG, doc).ok
    steps_of(doc, "Evaluation")[0]["payload"]["value"] = "False"
    assert "V2" in rules(verify_trace(ADULT_KG, doc))


def test_v1_json_booleans_are_not_triple_ids():
    # Python's False == 0 and True == 1, but JSON false/true cite no triple.
    doc = adult_doc()
    grounding_steps = steps_of(doc, "PremiseGrounding")
    assert [s["payload"]["evidence"] for s in grounding_steps] == [[0], [1]]
    for step, flag in zip(grounding_steps, (False, True)):
        step["payload"]["evidence"] = [flag]
    report = verify_trace(ADULT_KG, json.loads(json.dumps(doc)))
    assert not report.ok and rules(report) == {"V1"}
    assert report.grounding_precision == 0.0


def test_v1_nonexistent_citation_flagged():
    doc = adult_doc()
    step = steps_of(doc, "PremiseGrounding")[0]
    step["payload"]["evidence"] = [9999]
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V1" in rules(report)
    assert report.grounding_precision < 1.0


def test_v1_unknown_with_evidence_flagged():
    doc = adult_doc()
    step = steps_of(doc, "PremiseGrounding")[0]
    step["payload"]["status"] = "Unknown"
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V1" in rules(report)


def test_v1_satisfied_without_evidence_flagged():
    doc = adult_doc()
    step = steps_of(doc, "PremiseGrounding")[0]
    step["payload"]["evidence"] = []
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V1" in rules(report)


def test_v2_tampered_evaluation_flagged():
    doc = adult_doc()
    step = steps_of(doc, "Evaluation")[0]
    step["payload"]["value"] = "False"
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V2" in rules(report)


def test_v2_tampered_grounding_status_flagged():
    # Flipping a Satisfied verdict to Violated makes the recorded True
    # evaluation disagree with re-aggregation.
    doc = adult_doc()
    step = steps_of(doc, "PremiseGrounding")[0]
    step["payload"]["status"] = "Violated"
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V2" in rules(report)


def test_v3_final_answer_needs_backing_evaluation():
    doc = adult_doc()
    doc["steps"] = [s for s in doc["steps"] if s["kind"] != "Evaluation"]
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V3" in rules(report)


def test_v4_premise_outside_surfaced_axiom_flagged():
    doc = adult_doc()
    step = steps_of(doc, "PremiseGrounding")[0]
    step["payload"]["premise"] = "smuggled_in(Q1)"
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V4" in rules(report)


def test_v5_depth_budget_enforced():
    doc = adult_doc()
    doc["steps"][-1]["depth"] = doc["config"]["max_depth"] + 1
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V5" in rules(report)


def test_v5_breadth_budget_enforced():
    doc = adult_doc()
    extra = copy.deepcopy(steps_of(doc, "AxiomSurfacing")[0])
    for branch in range(2, doc["config"]["max_breadth"] + 2):
        dup = copy.deepcopy(extra)
        dup["branch"] = branch
        dup["seq"] = len(doc["steps"])
        doc["steps"].append(dup)
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and "V5" in rules(report)


def test_precision_counts_fraction_of_valid_citations():
    doc = adult_doc()
    grounding_steps = steps_of(doc, "PremiseGrounding")
    total = sum(len(s["payload"]["evidence"]) for s in grounding_steps)
    grounding_steps[0]["payload"]["evidence"][0] = 9999
    report = verify_trace(ADULT_KG, doc)
    assert report.grounding_precision == pytest.approx((total - 1) / total)


def test_baseline_trace_skips_v2_to_v4():
    doc = adult_doc()
    doc["baseline"] = True
    doc["steps"] = [s for s in doc["steps"] if s["kind"] != "Evaluation"]
    steps_of(doc, "PremiseGrounding")[0]["payload"]["premise"] = "whatever(Q1)"
    report = verify_trace(ADULT_KG, doc)
    assert report.ok  # V1/V5 still hold, V2-V4 are waived


def test_baseline_trace_still_checks_citations():
    doc = adult_doc()
    doc["baseline"] = True
    steps_of(doc, "PremiseGrounding")[0]["payload"]["evidence"] = [424242]
    report = verify_trace(ADULT_KG, doc)
    assert not report.ok and rules(report) == {"V1"}


def test_trace_json_has_sorted_keys(tmp_path):
    trace = ReasoningTrace(query={"text": "q"}, config={})
    text = trace.to_json()
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    path = tmp_path / "t.json"
    trace.save(path)
    data = path.read_bytes()
    assert data.count(b"\n") == 1 and data.endswith(b"\n")  # one line
    assert data.decode("utf-8") == text + "\n"
