import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from groundedqa import llm
from groundedqa import (
    AnchorEntitySet,
    GroundingStatus,
    HttpBackend,
    HttpConfig,
    KnowledgeGraph,
    LlmRequest,
    Query,
    ScriptedBackend,
    ScriptExhaustedError,
    TransportError,
    parse_axiom,
)
from groundedqa.entities import extract_entities_llm
from groundedqa.expansion import Branch, ExpansionFailure, identify_missing
from groundedqa.grounding import ground_premise_judge
from groundedqa.llm import (
    ask,
    parse_axiom_block,
    parse_entities,
    parse_judge,
    parse_mei,
    parse_select,
)
from groundedqa.prompts import PromptContextError, render_prompt
from groundedqa.retrieval import llm_select_triples
from groundedqa.search import surface_axiom
from groundedqa.trace import Audit


# -- scripted backend --------------------------------------------------------

def test_scripted_consumes_in_order_then_exhausts():
    backend = ScriptedBackend({"judge": ["STATUS: UNKNOWN"]})
    req = LlmRequest(role="judge", rendered_prompt="p")
    assert backend.complete(req) == "STATUS: UNKNOWN"
    with pytest.raises(ScriptExhaustedError):
        backend.complete(req)


def test_scripted_roles_consume_independent_lists():
    backend = ScriptedBackend({"judge": ["a", "b"], "mei": ["c"]})
    assert backend.complete(LlmRequest("judge", "p")) == "a"
    assert backend.complete(LlmRequest("mei", "p")) == "c"
    assert backend.complete(LlmRequest("judge", "p")) == "b"
    assert backend.remaining() == {}


def test_scripted_empty_script_exhausts_immediately():
    backend = ScriptedBackend({})
    with pytest.raises(ScriptExhaustedError):
        backend.complete(LlmRequest("axiom", "p"))


def test_scripted_reports_unconsumed():
    backend = ScriptedBackend({"judge": ["a", "b"]})
    backend.complete(LlmRequest("judge", "p"))
    assert backend.remaining() == {"judge": 1}


def test_scripted_determinism_byte_identical():
    def run():
        backend = ScriptedBackend({"judge": ["x", "y"], "axiom": ["z"]})
        out = [
            backend.complete(LlmRequest("judge", "p1")),
            backend.complete(LlmRequest("axiom", "p2")),
            backend.complete(LlmRequest("judge", "p3")),
        ]
        return json.dumps({"out": out, "log": backend.call_log})

    assert run() == run()


def test_unknown_role_rejected():
    with pytest.raises(ValueError):
        LlmRequest(role="oracle", rendered_prompt="p")
    with pytest.raises(ValueError):
        ScriptedBackend({"oracle": ["x"]})


@pytest.mark.parametrize("script, named", [
    ({"axiom": "AXIOM: a(b)"}, "'axiom'"),
    ({"judge": ["STATUS: UNKNOWN"], "mei": [None]}, "'mei'"),
    ({"judge": {"0": "STATUS: UNKNOWN"}}, "'judge'"),
    (["axiom"], "script"),
    ("axiom", "script"),
])
def test_scripted_rejects_a_script_that_is_not_roles_to_lists_of_strings(script, named):
    with pytest.raises(ValueError, match=named):
        ScriptedBackend(script)


# -- HTTP backend ------------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    responses = []  # (status, body_dict[, extra_headers]) consumed per request
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        _StubHandler.requests.append(json.loads(self.rfile.read(length)))
        status, body, *extra = _StubHandler.responses.pop(0)
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.requests = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def test_importing_the_package_does_not_load_requests():
    code = (
        "import sys, groundedqa, groundedqa.baseline, groundedqa.cli\n"
        "assert 'requests' not in sys.modules, sorted(m for m in sys.modules if 'requests' in m)\n"
    )
    src = os.path.dirname(os.path.dirname(llm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _ok_body(text):
    return {"choices": [{"message": {"content": text}}]}


def test_http_pass_through(stub_server):
    _StubHandler.responses = [(200, _ok_body("ENTITIES: X"))]
    backend = HttpBackend(HttpConfig(endpoint=stub_server, model="m", backoff_base=0.0))
    out = backend.complete(LlmRequest("entity_extract", "the prompt"))
    assert out == "ENTITIES: X"
    sent = _StubHandler.requests[0]
    assert sent["model"] == "m"
    assert sent["temperature"] == 0.0
    assert sent["messages"][1]["content"] == "the prompt"  # prompt never mutated


def test_http_retries_transient_500(stub_server):
    _StubHandler.responses = [(500, {}), (500, {}), (200, _ok_body("ok"))]
    backend = HttpBackend(
        HttpConfig(endpoint=stub_server, model="m", retries=3, backoff_base=0.0)
    )
    assert backend.complete(LlmRequest("judge", "p")) == "ok"


def test_http_persistent_500_is_transport_error(stub_server):
    _StubHandler.responses = [(500, {})] * 3
    backend = HttpBackend(
        HttpConfig(endpoint=stub_server, model="m", retries=2, backoff_base=0.0)
    )
    with pytest.raises(TransportError):
        backend.complete(LlmRequest("judge", "p"))


def test_http_retries_429_and_honors_integer_retry_after(stub_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(llm.time, "sleep", sleeps.append)
    _StubHandler.responses = [
        (429, {}, {"Retry-After": "2"}),
        (429, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        (200, _ok_body("ok")),
    ]
    backend = HttpBackend(
        HttpConfig(endpoint=stub_server, model="m", retries=3, backoff_base=0.25)
    )
    assert backend.complete(LlmRequest("judge", "p")) == "ok"
    assert len(_StubHandler.requests) == 3
    assert sleeps == [2, 0.5]  # Retry-After, then backoff for the date form


def test_http_429_retries_stay_within_budget(stub_server, monkeypatch):
    monkeypatch.setattr(llm.time, "sleep", lambda s: None)
    _StubHandler.responses = [(429, {})] * 3
    backend = HttpBackend(
        HttpConfig(endpoint=stub_server, model="m", retries=2, backoff_base=0.0)
    )
    with pytest.raises(TransportError, match="HTTP 429"):
        backend.complete(LlmRequest("judge", "p"))
    assert len(_StubHandler.requests) == 3


def test_http_400_is_not_retried(stub_server):
    _StubHandler.responses = [(400, {}), (200, _ok_body("ok"))]
    backend = HttpBackend(
        HttpConfig(endpoint=stub_server, model="m", retries=3, backoff_base=0.0)
    )
    with pytest.raises(TransportError, match="HTTP 400"):
        backend.complete(LlmRequest("judge", "p"))
    assert len(_StubHandler.requests) == 1


def test_http_unreachable_is_transport_error():
    backend = HttpBackend(
        HttpConfig(
            endpoint="http://127.0.0.1:1/nope", model="m",
            retries=1, backoff_base=0.0, timeout=0.5,
        )
    )
    with pytest.raises(TransportError):
        backend.complete(LlmRequest("judge", "p"))


# -- response grammars -------------------------------------------------------

def test_parse_entities():
    assert parse_entities("ENTITIES: A; B Two ; ") == ["A", "B Two"]
    assert parse_entities("ENTITIES:") == []
    assert parse_entities("nothing") is None


def test_parse_axiom_block():
    grammar, nl = parse_axiom_block("A person rule.\nAXIOM: p(A) AND q(A)")
    assert grammar == "p(A) AND q(A)"
    assert nl == "A person rule."
    assert parse_axiom_block("no block here") is None


def test_parse_select():
    assert parse_select("SELECT: 1,3", 5) == ([1, 3], [])
    assert parse_select("SELECT:", 5) == ([], [])
    assert parse_select("SELECT: 1,9", 5) == ([1], ["9"])
    assert parse_select("junk", 5) is None


def test_parse_judge():
    assert parse_judge("STATUS: SATISFIED\nEVIDENCE: 2", 3) == ("SATISFIED", [2], [])
    assert parse_judge("STATUS: UNKNOWN", 3) == ("UNKNOWN", [], [])
    assert parse_judge("STATUS: MAYBE", 3) is None
    assert parse_judge("free text", 3) is None


@pytest.mark.parametrize("token", ["²", "①", "1" * 5000], ids=["superscript", "circled", "5000-digit"])
def test_index_tokens_int_cannot_read_are_dropped(token):
    assert parse_select(f"SELECT: {token}", 5) == ([], [token])
    assert parse_judge(f"STATUS: SATISFIED\nEVIDENCE: {token}", 5) == ("SATISFIED", [], [token])


def test_indices_around_an_unreadable_token_keep_their_meaning():
    assert parse_select("SELECT: 1,²,3", 5) == ([1, 3], ["²"])
    assert parse_judge("STATUS: VIOLATED\nEVIDENCE: 1,²,3", 5) == ("VIOLATED", [1, 3], ["²"])
    # other scripts' decimal digits and leading zeros read as they always did
    assert parse_select("SELECT: \u0663,02", 5) == ([3, 2], [])


def test_parse_mei():
    assert parse_mei("MISSING: a fact\nENTITY: Carla") == ("a fact", "Carla")
    assert parse_mei("MISSING: a fact") is None
    assert parse_mei("ENTITY: Carla") is None


def test_grammar_keys_are_case_sensitive():
    assert parse_entities("entities: A") is None
    assert parse_judge("status: SATISFIED", 1) is None


# -- prompt rendering --------------------------------------------------------

def test_judge_prompt_numbers_triples():
    prompt = render_prompt(
        "judge",
        {"premise_text": "age(Q1) < 20", "numbered_triples": "1. a\n2. b\n3. c"},
    )
    for line in ("1. a", "2. b", "3. c"):
        assert line in prompt


def test_axiom_prompt_lists_prior_axioms():
    prompt = render_prompt(
        "axiom", {"query": "Q?", "option": None, "prior_axioms": ["p(A)"]},
    )
    assert "Do not repeat" in prompt
    assert "p(A)" in prompt


def test_entity_extract_prompt_contains_query_verbatim():
    query = "Did Alan Turing suffer the same fate as Abraham Lincoln?"
    assert query in render_prompt("entity_extract", {"query": query})


def test_missing_context_field_is_contract_error():
    with pytest.raises(PromptContextError):
        render_prompt("judge", {"premise_text": "p(A)"})


# -- the exchange seam -------------------------------------------------------

POLICY_KG = KnowledgeGraph(triples=[("Q1", "age", "45")], labels=[("Q1", "Virginia Raggi")])
POLICY_AXIOM = parse_axiom("adult(Q1)")


def _entity_extract(backend, audit):
    return extract_entities_llm(backend, "Is Virginia Raggi an adult?", audit)


def _axiom(backend, audit):
    return surface_axiom(backend, Query("Is Virginia Raggi an adult?"), None, [], audit)


def _triple_select(backend, audit):
    return llm_select_triples(backend, POLICY_KG, POLICY_AXIOM, [0], audit)


def _judge(backend, audit):
    premise = POLICY_AXIOM.clauses[0][0]
    return ground_premise_judge(POLICY_KG, backend, premise, [0], audit).status


def _mei(backend, audit):
    anchors = AnchorEntitySet(["Q1"], {"Q1": "lexical"})
    branch = Branch(anchors, POLICY_KG.one_hop_subgraph(["Q1"]), {0})
    with pytest.raises(ExpansionFailure):
        identify_missing(POLICY_KG, backend, "q", POLICY_AXIOM, branch, [], audit)


@pytest.mark.parametrize("role, call, reply, empty", [
    ("entity_extract", _entity_extract, "Virginia Raggi", []),
    ("axiom", _axiom, "Adults are at least 18 years old.", None),
    ("axiom", _axiom, "AXIOM: adult(Q1) AND", None),
    ("triple_select", _triple_select, "The first one.", set()),
    ("judge", _judge, "It holds.", GroundingStatus.UNKNOWN),
    ("mei", _mei, "MISSING: the age", None),
], ids=["entity_extract", "axiom-no-line", "axiom-grammar", "triple_select", "judge", "mei"])
def test_unparseable_reply_is_one_failure_and_one_event(role, call, reply, empty):
    backend = ScriptedBackend({role: [reply]})
    audit = Audit()
    assert call(backend, audit) == empty
    assert backend.remaining() == {}
    assert audit.parse_failures == 1
    assert len(audit.events) == 1
    assert audit.events[0].startswith(f"{role}: unparseable response")
    if reply.startswith("AXIOM:"):
        assert audit.events[0].endswith("(at position 13)")


def test_ask_returns_the_parsed_reply_and_records_nothing():
    audit = Audit()
    backend = ScriptedBackend({"mei": ["MISSING: a\nENTITY: B"]})
    assert ask(backend, "mei", "p", parse_mei, audit) == ("a", "B")
    assert backend.call_log == [("mei", "p", "MISSING: a\nENTITY: B")]
    assert audit.parse_failures == 0 and audit.events == []


def test_ask_lets_other_parser_errors_propagate():
    def parse(response):
        raise ValueError("parser bug")

    audit = Audit()
    with pytest.raises(ValueError, match="parser bug"):
        ask(ScriptedBackend({"judge": ["x"]}), "judge", "p", parse, audit)
    assert audit.parse_failures == 0 and audit.events == []
