import copy
import json
import os
from dataclasses import replace

import pytest

from groundedqa import (
    HashedEmbedder,
    KnowledgeGraph,
    ScriptedBackend,
    SearchConfig,
    TransportError,
    load_trace,
    run_eval,
    verify_trace,
)
from groundedqa import evalrun
from groundedqa.evalrun import DatasetItem, is_correct, load_dataset, parse_item

from fixture_data import (
    PERSONAL_KG_TRIPLES,
    PREFERENCE_OPTIONS,
    PREFERENCE_QUERY,
    PREFERENCE_SCRIPT,
    PREFERENCE_SHARED_KG,
    write_eval_fixture,
)


# -- dataset parsing -----------------------------------------------------------

def test_parse_item_defaults():
    item = parse_item({"id": 7, "task": "qa", "query": "q?", "gold": "Yes"})
    assert item.id == "7"
    assert item.options == () and item.personal_kg == () and item.kg_ref is None


def test_parse_item_rejects_bad_task():
    with pytest.raises(ValueError):
        parse_item({"id": "1", "task": "regression", "query": "q", "gold": "Yes"})


def test_parse_item_rejects_inconsistent_gold():
    with pytest.raises(ValueError):
        parse_item({"id": "1", "task": "qa", "query": "q", "gold": "Maybe"})
    with pytest.raises(ValueError):
        parse_item({
            "id": "1", "task": "preference", "query": "q", "gold": "Yes",
            "options": ["a", "b"],
        })


@pytest.mark.parametrize("gold", [True, False, 2, -1])
def test_preference_gold_must_be_an_option_index(tmp_path, gold):
    raw = {"id": "p", "task": "preference", "query": "q", "gold": gold, "options": ["a", "b"]}
    with pytest.raises(ValueError):
        parse_item(raw)
    path = tmp_path / "d.jsonl"
    path.write_text(
        json.dumps(raw) + "\n" + json.dumps({**raw, "id": "ok", "gold": 1}) + "\n",
        encoding="utf-8",
    )
    items, skipped = load_dataset(path)
    assert [i.id for i in items] == ["ok"] and skipped == 1


def test_load_dataset_skips_malformed(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        json.dumps({"id": "a", "task": "qa", "query": "q", "gold": "Yes"}) + "\n"
        + "not json\n"
        + json.dumps({"id": "b", "task": "qa", "query": "q"}) + "\n"
        + "\n"
        + json.dumps({"id": "c", "task": "claim", "query": "q", "gold": "Correct"}) + "\n",
        encoding="utf-8",
    )
    items, skipped = load_dataset(path)
    assert [i.id for i in items] == ["a", "c"]
    assert skipped == 2


def _qa_line(item_id, query="q"):
    return json.dumps({"id": item_id, "task": "qa", "query": query, "gold": "Yes"}) + "\n"


@pytest.mark.parametrize("bad_id", ["", "a/b", "../x", "nul\0id"])
def test_load_dataset_skips_an_id_that_cannot_name_a_trace_file(tmp_path, bad_id):
    path = tmp_path / "d.jsonl"
    path.write_text(_qa_line("ok") + _qa_line(bad_id) + _qa_line("ok2"), encoding="utf-8")
    items, skipped = load_dataset(path)
    assert [i.id for i in items] == ["ok", "ok2"] and skipped == 1


def test_load_dataset_skips_a_repeated_id_but_not_a_malformed_items_id(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        json.dumps({"id": "a", "task": "qa", "query": "q"}) + "\n"  # no gold: skipped
        + _qa_line("a", "first") + _qa_line("b") + _qa_line("a", "second") + _qa_line("1")
        + json.dumps({"id": 1, "task": "qa", "query": "q", "gold": "No"}) + "\n",
        encoding="utf-8",
    )
    items, skipped = load_dataset(path)
    assert [(i.id, i.query) for i in items] == [("a", "first"), ("b", "q"), ("1", "q")]
    assert skipped == 3


@pytest.mark.parametrize("row", [["Sam", "age"], ["Sam", "age", 30], ["a", "b", "c", "d"], "abc"])
def test_parse_item_rejects_a_personal_kg_row_that_is_not_three_strings(row):
    with pytest.raises(ValueError):
        parse_item({
            "id": "p", "task": "preference", "query": "q", "gold": 0,
            "options": ["a", "b"], "personal_kg": [["Sam", "likes", "tea"], row],
        })


_BAD_SHAPES = [
    {"id": "a", "task": "qa", "query": 123, "gold": "Yes"},
    {"id": "b", "task": "preference", "query": "q", "gold": 0, "options": "ab"},
    {"id": "c", "task": "preference", "query": "q", "gold": 0, "options": [None, "x"]},
]


@pytest.mark.parametrize("raw", _BAD_SHAPES, ids=["int_query", "string_options", "null_option"])
def test_parse_item_rejects_a_query_or_options_that_are_not_strings(raw):
    with pytest.raises(ValueError):
        parse_item(raw)


def test_run_eval_skips_items_whose_query_or_options_are_not_strings(tmp_path):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(
        "".join(json.dumps(raw) + "\n" for raw in _BAD_SHAPES) + _qa_line("good", "Is Q1 an adult?"),
        encoding="utf-8",
    )
    metrics = run_eval(dataset, KnowledgeGraph([("Q1", "age", "45")]),
                       ScriptedBackend({"baseline": ["Yes."]}), HashedEmbedder(),
                       out_dir=tmp_path / "out", baseline=True)
    assert metrics.skipped == 3 and metrics.n_items == 1
    assert metrics.accuracy == 1.0


def test_run_eval_skips_an_item_with_a_malformed_personal_kg_row(tmp_path):
    dataset = tmp_path / "d.jsonl"
    bad = {"id": "bad", "task": "qa", "query": "Is Sam an adult?", "gold": "Yes",
           "personal_kg": [["Sam", "age"]]}
    dataset.write_text(_qa_line("good", "Is Q1 an adult?") + json.dumps(bad) + "\n",
                       encoding="utf-8")
    out = tmp_path / "out"
    metrics = run_eval(dataset, KnowledgeGraph([("Q1", "age", "45")]),
                       ScriptedBackend({"baseline": ["Yes."]}), HashedEmbedder(),
                       out_dir=out, baseline=True)
    assert metrics.n_items == 1 and metrics.skipped == 1
    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert [(r["id"], r["predicted"]) for r in results] == [("good", "True")]
    assert load_trace(results[0]["trace"])["query"]["text"] == "Is Q1 an adult?"


@pytest.mark.parametrize("kg_bytes,deleted", [
    (None, False), (b"Q1\tage\n", False), (b"Q1\tage\t\xff\n", False), (b"Q1\tage\t45\n", True),
], ids=["missing_file", "malformed_tsv", "not_utf8", "deleted_after_loading"])
def test_run_eval_skips_an_item_whose_kg_ref_cannot_be_loaded(
    tmp_path, monkeypatch, kg_bytes, deleted,
):
    kg_file = tmp_path / "bad.tsv"
    if kg_bytes is not None:
        kg_file.write_bytes(kg_bytes)
    if deleted:
        def load_then_delete(path):
            loaded = load_dataset(path)
            kg_file.unlink()
            return loaded

        monkeypatch.setattr(evalrun, "load_dataset", load_then_delete)
    bad = {"id": "bad", "task": "qa", "query": "Is Q1 an adult?", "gold": "Yes",
           "kg_ref": "bad.tsv"}
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(json.dumps(bad) + "\n" + _qa_line("good", "Is Q1 an adult?"),
                       encoding="utf-8")
    out = tmp_path / "out"
    metrics = run_eval(dataset, KnowledgeGraph([("Q1", "age", "45")]),
                       ScriptedBackend({"baseline": ["Yes."]}), HashedEmbedder(),
                       out_dir=out, baseline=True)
    assert metrics.n_items == 1 and metrics.skipped == 1 and metrics.accuracy == 1.0
    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert [(r["id"], r["predicted"]) for r in results] == [("good", "True")]


def test_run_eval_records_whether_each_trace_verified(tmp_path, monkeypatch):
    dataset, triples, labels, script = write_eval_fixture(tmp_path)
    kg = KnowledgeGraph.load(triples, labels)

    def run(out):
        metrics = run_eval(dataset, kg, ScriptedBackend(copy.deepcopy(script)),
                           HashedEmbedder(), out_dir=out)
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        assert json.loads((out / "metrics.json").read_text()) == metrics.to_dict()
        return metrics.to_dict(), rows

    plain, plain_rows = run(tmp_path / "plain")
    assert plain["verified"] == 4 and [r["verified"] for r in plain_rows] == [True] * 4

    def rejects_quince(item_kg, doc):
        report = verify_trace(item_kg, doc)
        return replace(report, ok=report.ok and "quincea" not in doc["query"]["text"])

    monkeypatch.setattr(evalrun, "verify_trace", rejects_quince)
    rejected, rejected_rows = run(tmp_path / "rejected")
    assert rejected["verified"] == 3
    assert [(r["id"], r["verified"]) for r in rejected_rows] == [
        ("adult-1", True), ("quince-1", False), ("twohop-1", True), ("nobel-1", True),
    ]
    # every other key keeps its value
    assert {**rejected, "verified": 4} == plain
    for got, want in zip(rejected_rows, plain_rows):
        assert {**got, "trace": "", "verified": True} == {**want, "trace": ""}


def test_run_eval_writes_one_trace_per_result_line_despite_bad_ids(tmp_path):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(
        _qa_line("a", "Is Q1 an adult?") + _qa_line("a", "Is Q1 old?") + _qa_line("x/y")
        + _qa_line("../z") + _qa_line("b", "Is Q2 an adult?"),
        encoding="utf-8",
    )
    backend = ScriptedBackend({"baseline": ["Yes.", "No."]})
    out = tmp_path / "out"
    metrics = run_eval(dataset, KnowledgeGraph([("Q1", "age", "45")]), backend,
                       HashedEmbedder(), out_dir=out, baseline=True)
    assert metrics.n_items == 2 and metrics.skipped == 3
    assert backend.remaining() == {}
    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert [r["id"] for r in results] == ["a", "b"]
    for row, query in zip(results, ["Is Q1 an adult?", "Is Q2 an adult?"]):
        assert load_trace(row["trace"])["query"]["text"] == query
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.json", "results.jsonl", "trace_a.json", "trace_b.json",
    ]


def test_is_correct_rules():
    qa = DatasetItem(id="1", task="qa", query="q", gold="Yes")
    assert is_correct(qa, "True", None)
    assert not is_correct(qa, "False", None)
    assert not is_correct(qa, "Unknown", None)  # abstaining is never correct
    claim = DatasetItem(id="2", task="claim", query="q", gold="Incorrect")
    assert is_correct(claim, "False", None)
    pref = DatasetItem(
        id="3", task="preference", query="q", gold=1, options=("a", "b"),
    )
    assert is_correct(pref, "True", 1)
    assert not is_correct(pref, "True", 0)
    assert not is_correct(pref, "Unknown", None)


# -- full runs ------------------------------------------------------------------

def test_run_eval_metrics_and_artifacts(tmp_path):
    dataset, triples, labels, script = write_eval_fixture(tmp_path)
    kg = KnowledgeGraph.load(triples, labels)
    out = tmp_path / "out"
    metrics = run_eval(
        dataset, kg, ScriptedBackend(script), HashedEmbedder(),
        SearchConfig(), out_dir=out,
    )
    assert metrics.n_items == 4 and metrics.skipped == 0
    assert metrics.accuracy == pytest.approx(0.75)
    assert metrics.answer_rate == pytest.approx(0.75)
    assert metrics.grounding_precision == pytest.approx(1.0)
    assert metrics.rejected_citations == 0

    results = [
        json.loads(line)
        for line in (out / "results.jsonl").read_text().splitlines()
    ]
    assert [r["id"] for r in results] == ["adult-1", "quince-1", "twohop-1", "nobel-1"]
    assert [r["correct"] for r in results] == [True, True, True, False]
    assert results[3]["predicted"] == "Unknown"
    assert json.loads((out / "metrics.json").read_text()) == metrics.to_dict()
    for r in results:
        assert (out / f"trace_{r['id']}.json").exists()


def test_run_eval_traces_verify_against_item_kgs(tmp_path):
    dataset, triples, labels, script = write_eval_fixture(tmp_path)
    kg = KnowledgeGraph.load(triples, labels)
    out = tmp_path / "out"
    run_eval(dataset, kg, ScriptedBackend(script), HashedEmbedder(), out_dir=out)
    items, _ = load_dataset(dataset)
    for item in items:
        item_kg = KnowledgeGraph.load(item.kg_ref)
        report = verify_trace(item_kg, load_trace(out / f"trace_{item.id}.json"))
        assert report.ok, (item.id, report.violations)


def test_run_eval_resolves_relative_kg_ref_against_dataset_dir(tmp_path, monkeypatch):
    dataset, triples, labels, script = write_eval_fixture(tmp_path)
    rows = [json.loads(line) for line in dataset.read_text().splitlines()]
    for row in rows:
        row["kg_ref"] = os.path.relpath(row["kg_ref"], dataset.parent)
        assert not os.path.isabs(row["kg_ref"])
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)

    kg = KnowledgeGraph.load(triples, labels)
    metrics = run_eval(
        dataset, kg, ScriptedBackend(script), HashedEmbedder(), out_dir=tmp_path / "out",
    )
    assert metrics.n_items == 4 and metrics.skipped == 0
    assert metrics.accuracy == pytest.approx(0.75)


def test_run_eval_merges_inline_personal_kg(tmp_path):
    item = {
        "id": "pref-1", "task": "preference",
        "query": PREFERENCE_QUERY, "gold": 1,
        "options": list(PREFERENCE_OPTIONS),
        "personal_kg": [list(t) for t in PERSONAL_KG_TRIPLES],
    }
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(json.dumps(item) + "\n", encoding="utf-8")
    metrics = run_eval(
        dataset, PREFERENCE_SHARED_KG,
        ScriptedBackend(copy.deepcopy(PREFERENCE_SCRIPT)), HashedEmbedder(),
        out_dir=tmp_path / "out",
    )
    assert metrics.accuracy == 1.0
    doc = load_trace(tmp_path / "out" / "trace_pref-1.json")
    assert doc["answer"] == {"value": "True", "selected_option": 1}


def test_run_eval_baseline(tmp_path):
    dataset, triples, labels, _ = write_eval_fixture(tmp_path)
    kg = KnowledgeGraph.load(triples, labels)
    backend = ScriptedBackend({
        "baseline": [
            "Yes, the facts support it.",
            "No, that would not make sense.",
            "Yes.",
            "The triples do not say.",
        ]
    })
    out = tmp_path / "out_base"
    metrics = run_eval(
        dataset, kg, backend, HashedEmbedder(), out_dir=out, baseline=True,
    )
    assert metrics.accuracy == pytest.approx(0.75)
    assert metrics.answer_rate == pytest.approx(0.75)
    doc = load_trace(out / "trace_adult-1.json")
    assert doc["baseline"] is True
    items, _ = load_dataset(dataset)
    for item in items:
        item_kg = KnowledgeGraph.load(item.kg_ref)
        assert verify_trace(item_kg, load_trace(out / f"trace_{item.id}.json")).ok


def test_run_eval_keeps_the_results_written_before_a_failure(tmp_path):
    dataset, triples, labels, _ = write_eval_fixture(tmp_path)

    class FailsOnThirdItem(ScriptedBackend):
        def complete(self, request):
            if len(self.call_log) == 2:
                raise TransportError("connection reset")
            return super().complete(request)

    backend = FailsOnThirdItem({"baseline": ["Yes.", "No."]})
    out = tmp_path / "out"
    with pytest.raises(TransportError):
        run_eval(dataset, KnowledgeGraph.load(triples, labels), backend, HashedEmbedder(),
                 out_dir=out, baseline=True)
    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert [(r["id"], r["predicted"]) for r in results] == [("adult-1", "True"), ("quince-1", "False")]


def test_run_eval_empty_dataset(tmp_path):
    dataset = tmp_path / "empty.jsonl"
    dataset.write_text("", encoding="utf-8")
    metrics = run_eval(
        dataset, KnowledgeGraph([]), ScriptedBackend({}), HashedEmbedder(),
        out_dir=tmp_path / "out",
    )
    assert metrics.n_items == 0
    assert metrics.accuracy == 0.0 and metrics.answer_rate == 0.0
