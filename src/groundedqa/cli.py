"""Command-line surface.

Subcommands: ``ask`` (answer one query), ``eval`` (dataset run), ``verify``
(check a trace file against the KG), ``baseline`` (retrieve-and-read run).
Exit codes: 0 success, 1 usage error, 2 transport error, 3 verification
failure. A file that cannot be read, decoded or parsed is a usage error, and
so is a ``--script`` that runs out of responses for a role before the run
ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .entities import Query
from .evalrun import run_eval
from .kg import KgParseError, KnowledgeGraph
from .llm import HttpBackend, HttpConfig, ScriptedBackend, ScriptExhaustedError, TransportError
from .retrieval import HashedEmbedder
from .search import SearchConfig, answer_multiple_choice, answer_query
from .trace import TraceSchemaError, load_trace, verify_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRANSPORT = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="groundedqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SearchConfig()

    def common(p):
        p.add_argument("--kg", required=True, help="triples TSV file")
        p.add_argument("--labels", help="labels TSV file")
        p.add_argument("--backend", choices=("scripted", "http"), default="http")
        p.add_argument("--script", help="scripted backend JSON file")
        p.add_argument("--endpoint", help="chat-completions endpoint URL")
        p.add_argument("--model", help="model name for the HTTP backend")
        p.add_argument("--top-k", type=int, default=defaults.top_k)
        p.add_argument("--max-breadth", type=int, default=defaults.max_breadth)
        p.add_argument("--max-depth", type=int, default=defaults.max_depth)

    ask = sub.add_parser("ask", help="answer one query")
    common(ask)
    ask.add_argument("--query", required=True)
    ask.add_argument("--options", help="semicolon-separated options for preference queries")
    ask.add_argument("--trace-out", default="trace.json")

    ev = sub.add_parser("eval", help="run a dataset")
    common(ev)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--trace-out", default="results", help="output directory")

    ver = sub.add_parser("verify", help="verify a trace file against the KG")
    ver.add_argument("trace", help="trace JSON file")
    ver.add_argument("--kg", required=True)
    ver.add_argument("--labels")

    base = sub.add_parser("baseline", help="retrieve-and-read baseline over a dataset")
    common(base)
    base.add_argument("--dataset", required=True)
    base.add_argument("--trace-out", default="results_baseline", help="output directory")

    return parser


def _make_backend(args):
    if args.backend == "scripted":
        if not args.script:
            raise _UsageError("--backend scripted requires --script")
        return ScriptedBackend.from_file(args.script)
    if not args.endpoint or not args.model:
        raise _UsageError("--backend http requires --endpoint and --model")
    return HttpBackend(HttpConfig(endpoint=args.endpoint, model=args.model))


def _answer_string(value: str) -> str:
    return "I don't know" if value == "Unknown" else value


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "verify":
            kg = KnowledgeGraph.load(args.kg, args.labels)
            doc = load_trace(args.trace)
            report = verify_trace(kg, doc)
            print(json.dumps({
                "ok": report.ok,
                "grounding_precision": report.grounding_precision,
                "steps_checked": report.steps_checked,
                "violations": [asdict(v) for v in report.violations],
            }, indent=2))
            return EXIT_OK if report.ok else EXIT_VERIFY

        kg = KnowledgeGraph.load(args.kg, args.labels)
        try:
            backend = _make_backend(args)
            config = SearchConfig(
                max_breadth=args.max_breadth,
                max_depth=args.max_depth,
                top_k=args.top_k,
            )
        except ValueError as exc:  # a bad script or budget is a usage error
            raise _UsageError(exc) from exc
        embedder = HashedEmbedder()

        if args.command == "ask":
            options = tuple(o.strip() for o in (args.options or "").split(";") if o.strip())
            query = Query(args.query, options, "multiple_choice" if options else "qa_yes_no")
            answer = answer_multiple_choice if options else answer_query
            result = answer(kg, embedder, backend, query, config)
            result.trace.save(args.trace_out)
            print(_answer_string(result.answer.value))
            if result.answer.selected_option is not None:
                print(f"selected option: {result.answer.selected_option}")
            print(f"trace: {args.trace_out}")
            return EXIT_OK

        # eval / baseline
        metrics = run_eval(
            args.dataset, kg, backend, embedder, config,
            out_dir=args.trace_out, baseline=args.command == "baseline",
        )
        print(json.dumps(metrics.to_dict(), indent=2))
        return EXIT_OK

    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KgParseError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # a file that cannot be read, decoded, parsed or created
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScriptExhaustedError as exc:  # the --script file does not cover the run
        print(f"error: {args.script}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except TraceSchemaError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
