"""Tests of the benchmark's own parts: generator, responder and span arithmetic."""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest

import datagen
import spans
import speed
from groundedqa.axioms import parse_axiom
from groundedqa.baseline import map_keyword_answer
from groundedqa.llm import (
    LlmRequest,
    parse_axiom_block,
    parse_entities,
    parse_judge,
    parse_mei,
    parse_select,
)
from groundedqa.prompts import number_lines, render_prompt
from responder import RuleResponder
from run import _item_pieces

SMALL = {"scale": 0.02, "n_items": 30}


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", datagen.WORKLOADS)
def test_same_seed_gives_identical_files_and_another_seed_differs(tmp_path, workload):
    a = _files(datagen.generate(workload, 7, tmp_path / "a", **SMALL).kg_file.parent)
    b = _files(datagen.generate(workload, 7, tmp_path / "b", **SMALL).kg_file.parent)
    c = _files(datagen.generate(workload, 8, tmp_path / "c", **SMALL).kg_file.parent)
    assert a == b
    assert set(a) >= {"kg.tsv", "labels.tsv", "dataset_0000.jsonl"}
    assert all(a[name] != c.get(name) for name in ("kg.tsv", "labels.tsv", "dataset_0000.jsonl"))


def _ask(responder: RuleResponder, role: str, context: dict) -> str:
    return responder.complete(LlmRequest(role=role, rendered_prompt=render_prompt(role, context)))


def test_responder_output_parses_for_every_role(tmp_path):
    sparse = datagen.generate("qa_sparse", 3, tmp_path / "s", **SMALL)
    judged = next(i for i in sparse.items if i.kind == "judge")
    plan = sparse.plans[judged.query]
    responder = RuleResponder(sparse.plans)

    assert parse_entities(_ask(responder, "entity_extract", {"query": judged.query})) == plan.entities
    block = parse_axiom_block(_ask(responder, "axiom", {"query": judged.query, "prior_axioms": []}))
    axiom = parse_axiom(block[0], natural_text=block[1])
    premise = block[0]
    subject, relation, tail, verdict = plan.judge[premise]
    facts = number_lines([f"{subject} founded by Someone Else", f"{subject} {relation} {tail}"])
    selected = _ask(responder, "triple_select", {"axiom_text": premise, "numbered_triples": facts})
    assert parse_select(selected, 2) is not None
    judge = parse_judge(_ask(responder, "judge", {"premise_text": premise, "numbered_triples": facts}), 2)
    assert judge == (verdict, [2], [])
    mei = _ask(responder, "mei", {"query": judged.query, "axiom_text": premise,
                                  "unsatisfied": f"- {premise}", "numbered_triples": facts})
    assert parse_mei(mei) == (f"facts deciding {premise}", axiom.clauses[0][0].subject.replace("_", " "))

    base = datagen.generate("baseline_rr", 3, tmp_path / "b", **SMALL)
    item = base.items[0]
    subject, relation, tail, reply = base.plans[item.query].baseline
    answer = _ask(RuleResponder(base.plans), "baseline", {
        "query": item.query, "numbered_triples": number_lines([f"{subject} {relation} {tail}"])})
    assert map_keyword_answer(answer) == item.expected[0]

    pref = datagen.generate("pref_eval", 3, tmp_path / "p", **SMALL)
    item = pref.items[0]
    responder = RuleResponder(pref.plans)
    _ask(responder, "entity_extract", {"query": item.query})
    for option in item.options:
        block = parse_axiom_block(_ask(responder, "axiom", {
            "query": item.query, "option": option, "prior_axioms": []}))
        assert parse_axiom(block[0]).clauses[0][0].name == "likes"


def test_injected_faults_fail_to_parse_or_cite(tmp_path):
    sparse = datagen.generate("qa_sparse", 3, tmp_path / "s", scale=0.05, n_items=60)
    responder = RuleResponder(sparse.plans)
    no_axiom = next(i for i in sparse.items if i.kind == "no_axiom")
    _ask(responder, "entity_extract", {"query": no_axiom.query})
    first = _ask(responder, "axiom", {"query": no_axiom.query, "prior_axioms": []})
    second = _ask(responder, "axiom", {"query": no_axiom.query, "prior_axioms": []})
    assert parse_axiom_block(first) is None and parse_axiom_block(second) is not None

    uncited = next(i for i in sparse.items if i.kind == "uncited")
    _ask(responder, "entity_extract", {"query": uncited.query})
    premise = parse_axiom_block(_ask(responder, "axiom", {"query": uncited.query, "prior_axioms": []}))[0]
    subject, relation, tail, _ = sparse.plans[uncited.query].judge[premise]
    facts = number_lines([f"{subject} {relation} {tail}"])
    assert parse_judge(_ask(responder, "judge", {"premise_text": premise, "numbered_triples": facts}), 1) \
        == ("SATISFIED", [], [])
    mei = _ask(responder, "mei", {"query": uncited.query, "axiom_text": premise,
                                  "unsatisfied": f"- {premise}", "numbered_triples": facts})
    assert parse_mei(mei)[1] == "Nobody Ofnote"


def test_self_time_subtracts_child_coverage():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, "i"),
        spans.Span("a", 1.0, 4.0, 0, "i"),
        spans.Span("b", 5.0, 9.0, 0, "i"),
        spans.Span("b1", 6.0, 8.0, 2, "i"),
        spans.Span("leaf", 2.0, 3.0, 1, "i"),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, "i"),
        spans.Span("a", 1.0, 5.0, 0, "i"),
        spans.Span("b", 3.0, 7.0, 0, "i"),
        spans.Span("c", 9.0, 12.0, 0, "i"),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_item_pieces_cover_the_whole_call():
    assert _item_pieces(0.0, [0.5, 1.5, 4.0], 4.2, 3) == [
        ([(0.5, 1.5)], 1.0), ([(1.5, 4.0)], 1.0), ([(0.0, 0.5), (4.0, 4.2)], 1.0)]
    assert _item_pieces(0.0, [0.5], 3.0, 3) == [([(0.0, 3.0)], 1 / 3)] * 3


def test_speed_measure_subtracts_probes_and_scales_by_their_median():
    probes = speed.Speed()
    probes.stamps = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
    probes.ms = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0]
    ref = speed.REF_MS
    assert speed.AROUND == 2
    # Inside (2, 4): the probes at 2.5 and 3.5; around: 0.5, 1.5 and 4.5, 5.5.
    assert probes.measure([(2.0, 4.0)]) == pytest.approx((2000 - 700) * ref / 350.0)
    # Two pieces; the probe at 2.5 lies between them and is neither inside nor around.
    assert probes.measure([(1.0, 2.0), (3.0, 4.0)]) == pytest.approx(
        (2000 - 600) * ref / 400.0)
    assert probes.measure([(7.0, 8.0)]) == pytest.approx(1000 * ref / 650.0)
    with pytest.raises(ValueError):
        speed.Speed().measure([(0.0, 1.0)])


def test_speed_probes_only_inside_with():
    with speed.Speed() as probes:
        time.sleep(5 * speed.PERIOD_S)
    taken = len(probes.ms)
    time.sleep(3 * speed.PERIOD_S)
    assert taken >= 2 and len(probes.ms) == taken
    assert probes.stamps == sorted(probes.stamps)


def test_every_target_is_expected_somewhere():
    expected = set().union(*spans.EXPECTED_HITS.values())
    for _, attr in spans.TARGETS:
        name = attr.rsplit(".", 1)[-1]
        assert any(key == attr or key.endswith(":" + name) for key in expected), attr


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import json

    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(datagen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in doc["end_to_end"])
