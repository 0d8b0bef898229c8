"""The sample datasets and transcripts under data/ stay runnable end to end."""

import json
from pathlib import Path

import pytest

from groundedqa import (
    HashedEmbedder,
    KnowledgeGraph,
    ScriptedBackend,
    load_trace,
    run_eval,
    verify_trace,
)
from groundedqa.cli import EXIT_OK, main
from groundedqa.evalrun import load_dataset

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def sample_kg():
    return KnowledgeGraph.load(DATA / "kg.tsv", DATA / "labels.tsv")


def run_shipped(name, kg, tmp_path):
    script = json.loads((DATA / "scripts" / f"{name}_script.json").read_text())
    backend = ScriptedBackend(script)
    metrics = run_eval(
        DATA / "datasets" / f"{name}.jsonl", kg,
        backend, HashedEmbedder(), out_dir=tmp_path / name,
    )
    # each script is used exactly: a stale one with lines to spare fails too
    assert backend.remaining() == {}, name
    return metrics


def test_qa_dataset(sample_kg, tmp_path):
    metrics = run_shipped("qa", sample_kg, tmp_path)
    assert metrics.n_items == 4 and metrics.skipped == 0
    assert metrics.accuracy == pytest.approx(0.75)  # qa-nobel stays Unknown
    assert metrics.answer_rate == pytest.approx(0.75)
    assert metrics.grounding_precision == 1.0


def test_claim_dataset(sample_kg, tmp_path):
    metrics = run_shipped("claim", sample_kg, tmp_path)
    assert metrics.n_items == 3
    assert metrics.accuracy == 1.0 and metrics.answer_rate == 1.0


def test_a_lone_surrogate_in_a_query_keeps_the_eval_going(sample_kg, tmp_path):
    # JSON may escape a lone surrogate; the trace must still be written and verify.
    lines = (DATA / "datasets" / "claim.jsonl").read_text(encoding="utf-8").splitlines()
    assert "\u00f1" in lines[0]
    dataset = tmp_path / "claim.jsonl"
    dataset.write_text("\n".join([lines[0].replace("\u00f1", "\\ud800"), *lines[1:]]) + "\n",
                       encoding="utf-8")
    script = json.loads((DATA / "scripts" / "claim_script.json").read_text())
    out = tmp_path / "out"
    metrics = run_eval(dataset, sample_kg, ScriptedBackend(script), HashedEmbedder(), out_dir=out)
    assert metrics.n_items == 3 and metrics.verified == 3
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert len(rows) == 3 and all(row["verified"] for row in rows)
    assert chr(0xD800) in load_trace(rows[0]["trace"])["query"]["text"]


def test_preference_dataset(sample_kg, tmp_path):
    metrics = run_shipped("preference", sample_kg, tmp_path)
    assert metrics.n_items == 3
    assert metrics.accuracy == 1.0
    doc = load_trace(tmp_path / "preference" / "trace_pref-first.json")
    assert doc["answer"]["selected_option"] == 0


def test_all_shipped_traces_verify(sample_kg, tmp_path):
    for name in ("qa", "claim", "preference"):
        run_shipped(name, sample_kg, tmp_path)
        items, _ = load_dataset(DATA / "datasets" / f"{name}.jsonl")
        for item in items:
            kg = sample_kg
            if item.personal_kg:
                kg = sample_kg.extended(item.personal_kg)
            doc = load_trace(tmp_path / name / f"trace_{item.id}.json")
            report = verify_trace(kg, doc)
            assert report.ok, (item.id, report.violations)
            assert report.grounding_precision == 1.0


def test_cli_eval_on_shipped_qa(tmp_path, capsys):
    code = main([
        "eval", "--kg", str(DATA / "kg.tsv"), "--labels", str(DATA / "labels.tsv"),
        "--backend", "scripted", "--script", str(DATA / "scripts" / "qa_script.json"),
        "--dataset", str(DATA / "datasets" / "qa.jsonl"),
        "--trace-out", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["accuracy"] == 0.75
