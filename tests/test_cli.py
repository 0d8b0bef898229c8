import json

import pytest

from groundedqa import SearchConfig, load_trace
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


def test_verify_reads_indented_and_compact_traces_alike(tmp_path, capsys):
    triples, labels, script = write_adult_files(tmp_path)
    compact = tmp_path / "trace.json"
    main([
        "ask", *scripted_args(triples, labels, script),
        "--query", ADULT_QUERY, "--trace-out", str(compact),
    ])
    doc = load_trace(compact)
    indented = tmp_path / "indented.json"  # the layout traces had before they went compact
    indented.write_text(
        json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n", encoding="utf-8",
    )
    assert load_trace(indented) == doc
    capsys.readouterr()
    for path in (compact, indented):
        code = main(["verify", str(path), "--kg", str(triples), "--labels", str(labels)])
        assert code == EXIT_OK and json.loads(capsys.readouterr().out)["ok"] is True


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


@pytest.mark.parametrize("case", ["verify_non_utf8_trace", "verify_a_directory",
                                  "eval_trace_out_is_a_file"])
def test_an_unreadable_or_uncreatable_file_is_one_error_line(tmp_path, capsys, case):
    triples, labels, script = write_adult_files(tmp_path)
    if case == "eval_trace_out_is_a_file":
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("", encoding="utf-8")
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv = ["eval", *scripted_args(triples, labels, script),
                "--dataset", str(dataset), "--trace-out", str(taken)]
    else:
        trace = tmp_path / "trace.json"
        if case == "verify_a_directory":
            trace.mkdir()
        else:
            trace.write_bytes(b'{"query": "\xff"}\n')
        argv = ["verify", str(trace), "--kg", str(triples), "--labels", str(labels)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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


@pytest.mark.parametrize("command", ["ask", "eval"])
def test_an_exhausted_script_is_one_error_line(tmp_path, capsys, command):
    triples, labels, _ = write_adult_files(tmp_path)
    script = tmp_path / "empty.json"
    script.write_text("{}", encoding="utf-8")
    if command == "ask":
        extra = ["--query", ADULT_QUERY, "--trace-out", str(tmp_path / "t.json")]
    else:
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps(
            {"id": "a", "task": "qa", "query": ADULT_QUERY, "gold": "Yes"}) + "\n",
            encoding="utf-8")
        extra = ["--dataset", str(dataset), "--trace-out", str(tmp_path / "out")]
    assert main([command, *scripted_args(triples, labels, script), *extra]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {script}: script exhausted for role")


@pytest.mark.parametrize("bad, content", [
    ("trace", b'{"query": "\xff"}\n'),
    ("kg", b"Q1\tage\t\xff\n"),
    ("labels", b"Q1\tVirginia \xffRaggi\n"),
    ("dataset", b'{"id": "\xff"}\n'),
    ("script", b'{"axiom": ["\xff"]}'),
])
def test_a_file_that_is_not_utf8_is_named_in_the_error_line(tmp_path, capsys, bad, content):
    triples, labels, script = write_adult_files(tmp_path)
    trace, dataset = tmp_path / "trace.json", tmp_path / "d.jsonl"
    trace.write_text("{}", encoding="utf-8")
    dataset.write_text("", encoding="utf-8")
    path = {"trace": trace, "kg": triples, "labels": labels, "dataset": dataset,
            "script": script}[bad]
    path.write_bytes(content)
    if bad in ("dataset", "script"):
        argv = ["eval", *scripted_args(triples, labels, script), "--dataset", str(dataset),
                "--trace-out", str(tmp_path / "out")]
    else:
        argv = ["verify", str(trace), "--kg", str(triples), "--labels", str(labels)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("bad", ["trace", "script"])
def test_a_file_that_is_not_json_is_named_in_the_error_line(tmp_path, capsys, bad):
    triples, labels, script = write_adult_files(tmp_path)
    trace = tmp_path / "trace.json"
    path = {"trace": trace, "script": script}[bad]
    path.write_text("not json", encoding="utf-8")
    if bad == "script":
        argv = ["ask", *scripted_args(triples, labels, script), "--query", ADULT_QUERY,
                "--trace-out", str(trace)]
    else:
        argv = ["verify", str(trace), "--kg", str(triples), "--labels", str(labels)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: Expecting value: line 1 column 1 (char 0)"]
