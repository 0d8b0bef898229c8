import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from groundedqa import llm
from groundedqa import (
    HttpBackend,
    HttpConfig,
    LlmRequest,
    ScriptedBackend,
    ScriptExhaustedError,
    TransportError,
)
from groundedqa.llm import (
    parse_axiom_block,
    parse_entities,
    parse_judge,
    parse_mei,
    parse_select,
)
from groundedqa.prompts import PromptContextError, render_prompt


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
