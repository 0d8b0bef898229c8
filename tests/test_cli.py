import json

import pytest

from groundedqa import SearchConfig
from groundedqa.cli import EXIT_OK, EXIT_TRANSPORT, EXIT_USAGE, EXIT_VERIFY, _build_parser, main

from fixture_data import (
    ADULT_KG,
    ADULT_QUERY,
    ADULT_SCRIPT,
    TWO_HOP_QUERY,
    TWO_HOP_SCRIPT_NO_MEI,
    TWO_HOP_KG,
    write_eval_fixture,
)


def write_adult_files(tmp_path):
    triples = tmp_path / "adult.tsv"
    ADULT_KG.save(triples)
    labels = tmp_path / "adult_labels.tsv"
    labels.write_text("Q1\tVirginia Raggi\n", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps(ADULT_SCRIPT), encoding="utf-8")
    return triples, labels, script


def scripted_args(triples, labels, script):
    return [
        "--kg", str(triples), "--labels", str(labels),
        "--backend", "scripted", "--script", str(script),
    ]


def test_ask_then_verify_round_trip(tmp_path, capsys):
    triples, labels, script = write_adult_files(tmp_path)
    trace_out = tmp_path / "trace.json"
    code = main([
        "ask", *scripted_args(triples, labels, script),
        "--query", ADULT_QUERY, "--trace-out", str(trace_out),
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == "True"
    assert trace_out.exists()

    code = main(["verify", str(trace_out), "--kg", str(triples), "--labels", str(labels)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["ok"] is True
    assert report["grounding_precision"] == 1.0


def test_verify_tampered_trace_fails(tmp_path, capsys):
    triples, labels, script = write_adult_files(tmp_path)
    trace_out = tmp_path / "trace.json"
    main([
        "ask", *scripted_args(triples, labels, script),
        "--query", ADULT_QUERY, "--trace-out", str(trace_out),
    ])
    doc = json.loads(trace_out.read_text())
    for step in doc["steps"]:
        if step["kind"] == "PremiseGrounding":
            step["payload"]["evidence"] = [31337]
            break
    trace_out.write_text(json.dumps(doc))
    capsys.readouterr()

    code = main(["verify", str(trace_out), "--kg", str(triples), "--labels", str(labels)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_VERIFY
    assert report["ok"] is False
    assert report["violations"]


def test_ask_unknown_prints_i_dont_know(tmp_path, capsys):
    triples = tmp_path / "twohop.tsv"
    TWO_HOP_KG.save(triples)
    labels = tmp_path / "twohop_labels.tsv"
    labels.write_text("Q_B\tSilvio Berlusconi\nQ_C\tCarla Dalloglio\n", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps(TWO_HOP_SCRIPT_NO_MEI), encoding="utf-8")
    code = main([
        "ask", *scripted_args(triples, labels, script),
        "--query", TWO_HOP_QUERY, "--max-breadth", "1",
        "--trace-out", str(tmp_path / "t.json"),
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "I don't know"


def test_eval_subcommand_prints_metrics(tmp_path, capsys):
    dataset, triples, labels, script = write_eval_fixture(tmp_path)
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps(script), encoding="utf-8")
    code = main([
        "eval", *scripted_args(triples, labels, script_file),
        "--dataset", str(dataset), "--trace-out", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["accuracy"] == 0.75
    assert metrics["answer_rate"] == 0.75
    assert (tmp_path / "out" / "metrics.json").exists()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["ask", "--query", "q?"]) == EXIT_USAGE  # no --kg
    capsys.readouterr()


def test_scripted_without_script_is_usage_error(tmp_path, capsys):
    triples, labels, _ = write_adult_files(tmp_path)
    code = main([
        "ask", "--kg", str(triples), "--backend", "scripted", "--query", "q?",
    ])
    assert code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--top-k", "--max-breadth", "--max-depth"])
def test_a_budget_below_one_is_usage_error(tmp_path, capsys, flag):
    triples, labels, script = write_adult_files(tmp_path)
    code = main(["ask", *scripted_args(triples, labels, script), "--query", ADULT_QUERY,
                 flag, "0" if flag != "--max-depth" else "-1"])
    assert code == EXIT_USAGE
    assert "must be" in capsys.readouterr().err


def test_a_script_role_mapped_to_a_string_is_usage_error(tmp_path, capsys):
    triples, labels, script = write_adult_files(tmp_path)
    script.write_text(json.dumps({**ADULT_SCRIPT, "axiom": "AXIOM: a(b)"}), encoding="utf-8")
    code = main(["ask", *scripted_args(triples, labels, script), "--query", ADULT_QUERY,
                 "--trace-out", str(tmp_path / "trace.json")])
    assert code == EXIT_USAGE
    assert "'axiom'" in capsys.readouterr().err
    assert not (tmp_path / "trace.json").exists()


@pytest.mark.parametrize("doc", [[], {"schema_version": 2, "steps": [1]}])
def test_verify_a_malformed_trace_exits_3(tmp_path, capsys, doc):
    triples, labels, _ = write_adult_files(tmp_path)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", str(trace), "--kg", str(triples), "--labels", str(labels)])
    assert code == EXIT_VERIFY
    assert "malformed trace" in capsys.readouterr().err


def test_missing_kg_file_is_usage_error(tmp_path, capsys):
    code = main([
        "ask", "--kg", str(tmp_path / "nope.tsv"), "--backend", "scripted",
        "--script", str(tmp_path / "nope.json"), "--query", "q?",
    ])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_unreachable_http_backend_is_transport_error(tmp_path, capsys):
    triples, labels, _ = write_adult_files(tmp_path)
    code = main([
        "ask", "--kg", str(triples), "--labels", str(labels),
        "--backend", "http", "--endpoint", "http://127.0.0.1:1/v1",
        "--model", "m", "--query", ADULT_QUERY,
        "--trace-out", str(tmp_path / "t.json"),
    ])
    assert code == EXIT_TRANSPORT
    capsys.readouterr()


@pytest.mark.parametrize("command, extra", [
    ("ask", ["--query", "q"]),
    ("eval", ["--dataset", "d.jsonl"]),
    ("baseline", ["--dataset", "d.jsonl"]),
])
def test_search_flag_defaults_are_search_config_defaults(command, extra):
    args = _build_parser().parse_args([command, "--kg", "kg.tsv", *extra])
    config = SearchConfig(
        max_breadth=args.max_breadth, max_depth=args.max_depth, top_k=args.top_k,
    )
    assert config == SearchConfig()
