"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line so a full run doubles as a
checklist. All checks are deterministic except the last, which talks to a
real endpoint and is skipped unless one is configured in the environment.
"""

import copy
import filecmp
import itertools
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from groundedqa import (
    Axiom,
    GroundingStatus,
    HashedEmbedder,
    HttpBackend,
    HttpConfig,
    KnowledgeGraph,
    Premise,
    PremiseGrounding,
    Query,
    ScriptedBackend,
    SearchConfig,
    answer_multiple_choice,
    answer_query,
    evaluate_axiom,
    run_eval,
    top_k_similar,
    verbalize,
    verify_trace,
)
from groundedqa.grounding import ground_premise_judge
from groundedqa.trace import Audit

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
    write_eval_fixture,
)

S, V, U = GroundingStatus.SATISFIED, GroundingStatus.VIOLATED, GroundingStatus.UNKNOWN


@contextmanager
def checklist(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def run_scenarios():
    """All four scripted scenarios as (name, kg, result, backend)."""
    out = []
    for name, kg, script, text, options, task in (
        ("single_hop", ADULT_KG, ADULT_SCRIPT, ADULT_QUERY, (), "qa_yes_no"),
        ("two_hop", TWO_HOP_KG, TWO_HOP_SCRIPT, TWO_HOP_QUERY, (), "qa_yes_no"),
        ("contradiction", QUINCE_KG, QUINCE_SCRIPT, QUINCE_QUERY, (), "claim"),
        ("preference", PREFERENCE_KG, PREFERENCE_SCRIPT, PREFERENCE_QUERY,
         PREFERENCE_OPTIONS, "multiple_choice"),
    ):
        backend = ScriptedBackend(copy.deepcopy(script))
        query = Query(text=text, options=options, task=task)
        if task == "multiple_choice":
            result = answer_multiple_choice(kg, HashedEmbedder(), backend, query)
        else:
            result = answer_query(kg, HashedEmbedder(), backend, query)
        out.append((name, kg, result, backend))
    return out


def test_three_valued_aggregation_matches_truth_tables():
    def oracle(shape):
        def clause(ss):
            if V in ss:
                return "False"
            if all(s is S for s in ss):
                return "True"
            return "Unknown"

        vals = [clause(c) for c in shape]
        if "True" in vals:
            return "True"
        if all(v == "False" for v in vals):
            return "False"
        return "Unknown"

    with checklist("three-valued aggregation equals exhaustive truth tables"):
        start = time.perf_counter()
        checked = 0
        for n_clauses in (1, 2, 3):
            for sizes in itertools.product((1, 2, 3), repeat=n_clauses):
                # one axiom and one grounding per (slot, status), reused for
                # every assignment; only the assignment loop is hot
                clauses, slots, by_status = [], [], {}
                for ci, size in enumerate(sizes):
                    ps = []
                    for pi in range(size):
                        p = Premise(kind="predicate", name=f"p{ci}_{pi}", subject="A")
                        ps.append(p)
                        slots.append((ci, pi))
                        for status in (S, V, U):
                            ev = frozenset() if status is U else frozenset({0})
                            by_status[(ci, pi, status)] = PremiseGrounding(
                                p, status, ev, "symbolic",
                            )
                    clauses.append(tuple(ps))
                axiom = Axiom(clauses=tuple(clauses))
                for assignment in itertools.product((S, V, U), repeat=len(slots)):
                    groundings = {
                        slot: by_status[(*slot, status)]
                        for slot, status in zip(slots, assignment)
                    }
                    shape, i = [], 0
                    for size in sizes:
                        shape.append(assignment[i:i + size])
                        i += size
                    assert evaluate_axiom(axiom, groundings) == oracle(shape)
                    checked += 1
        assert checked > 3 ** 9
        assert time.perf_counter() - start < 1.0


def test_top_k_retrieval_matches_brute_force():
    with checklist("top-k retrieval equals brute-force distance sort"):
        rng = random.Random(20240817)
        embedder = HashedEmbedder()
        words = ["rome", "mayor", "age", "spouse", "fate", "blue", "45", "x", "née"]
        start = time.perf_counter()
        for _ in range(120):
            n = rng.randrange(1, 201)
            kg = KnowledgeGraph([
                (
                    f"E{rng.randrange(20)}",
                    rng.choice(words),
                    " ".join(rng.choices(words, k=rng.randrange(1, 4))),
                )
                for _ in range(n)
            ])
            ids = [t.id for t in kg.triples]
            text = " ".join(rng.choices(words, k=3))
            k = rng.choice([0, 1, 5, 50])
            got = top_k_similar(embedder, text, kg, ids, k)
            qv = embedder.embed(text)
            want = [
                tid for _, tid in sorted(
                    (float(np.linalg.norm(embedder.embed(verbalize(kg, kg.triple(t))) - qv)), t)
                    for t in ids
                )[:k]
            ]
            assert got == want
        assert time.perf_counter() - start < 5.0


def test_one_hop_subgraph_matches_brute_force():
    with checklist("one-hop subgraph equals brute-force head filter"):
        rng = random.Random(99)
        start = time.perf_counter()
        for _ in range(110):
            n = rng.randrange(0, 1001)
            kg = KnowledgeGraph([
                (f"E{rng.randrange(40)}", f"r{rng.randrange(5)}", f"E{rng.randrange(40)}")
                for _ in range(n)
            ])
            anchors = [f"E{rng.randrange(40)}" for _ in range(rng.randrange(0, 6))]
            sg = kg.one_hop_subgraph(anchors)
            want = {t.id for t in kg.triples if t.head in set(anchors)}
            assert sg.triple_ids == frozenset(want)
        assert time.perf_counter() - start < 5.0


def test_every_verdict_is_cited_and_bad_citations_are_rejected():
    with checklist("non-Unknown verdicts always cite; invalid citations demote"):
        for name, kg, result, _ in run_scenarios():
            for step in result.trace.steps:
                if step["kind"] != "PremiseGrounding":
                    continue
                if step["payload"]["status"] in ("Satisfied", "Violated"):
                    assert step["payload"]["evidence"], (name, step["payload"])
                    assert all(kg.has_triple(t) for t in step["payload"]["evidence"])
                else:
                    assert step["payload"]["evidence"] == []
        backend = ScriptedBackend({"judge": ["STATUS: SATISFIED\nEVIDENCE: 7"]})
        audit = Audit()
        premise = Premise(kind="predicate", name="p", subject="Q1")
        g = ground_premise_judge(ADULT_KG, backend, premise, [0, 1], audit)
        assert g.status is U and g.evidence == frozenset()
        assert audit.rejected_citations == 1


def test_end_to_end_scenarios():
    with checklist("scripted scenarios end to end with fully verified traces"):
        start = time.perf_counter()
        results = {name: (kg, r) for name, kg, r, _ in run_scenarios()}

        kg, r = results["single_hop"]
        assert r.answer.value == "True"
        assert all(s["depth"] == 0 for s in r.trace.steps)

        kg2, r2 = results["two_hop"]
        assert r2.answer.value == "True"
        assert any(s["kind"] == "Expansion" for s in r2.trace.steps)
        variant = ScriptedBackend(copy.deepcopy(TWO_HOP_SCRIPT_NO_MEI))
        unknown = answer_query(
            TWO_HOP_KG, HashedEmbedder(), variant, Query(text=TWO_HOP_QUERY),
            SearchConfig(max_breadth=1),
        )
        assert unknown.answer.value == "Unknown"
        assert verify_trace(TWO_HOP_KG, unknown.trace.to_dict()).ok

        kg3, r3 = results["contradiction"]
        assert r3.answer.value == "False"
        cited = [
            s["payload"]["evidence"] for s in r3.trace.steps
            if s["kind"] == "PremiseGrounding" and s["payload"]["status"] == "Violated"
        ]
        assert cited == [[0]]

        kg4, r4 = results["preference"]
        assert r4.answer.selected_option == 1
        veto = [
            s for s in r4.trace.steps
            if s["kind"] == "PremiseGrounding"
            and s["payload"]["option"] == 0 and s["payload"]["status"] == "Violated"
        ]
        assert veto and all(
            kg4.triple(t).head == "Sam" for s in veto for t in s["payload"]["evidence"]
        )

        for name, (kg_n, r_n) in results.items():
            report = verify_trace(kg_n, r_n.trace.to_dict())
            assert report.ok, (name, report.violations)
            assert report.grounding_precision == 1.0
        assert time.perf_counter() - start < 10.0


def test_verifier_catches_random_single_field_tampering():
    with checklist("100 random trace mutations are all detected"):
        rng = random.Random(1234)
        docs = [(kg, r.trace.to_dict()) for _, kg, r, _ in run_scenarios()]
        detected = 0
        while detected < 100:
            kg, doc = docs[rng.randrange(len(docs))]
            doc = copy.deepcopy(doc)
            groundings = [s for s in doc["steps"] if s["kind"] == "PremiseGrounding"]
            evaluations = [s for s in doc["steps"] if s["kind"] == "Evaluation"]
            finals = [s for s in doc["steps"] if s["kind"] == "FinalAnswer"]
            kind = rng.choice(["status", "evidence", "evaluation", "final"])
            if kind == "status":
                step = rng.choice(groundings)
                old = step["payload"]["status"]
                step["payload"]["status"] = "Unknown" if old != "Unknown" else "Satisfied"
            elif kind == "evidence":
                cited = [s for s in groundings if s["payload"]["evidence"]]
                step = rng.choice(cited)
                step["payload"]["evidence"][0] = 10_000 + rng.randrange(1000)
            elif kind == "evaluation":
                step = rng.choice(evaluations)
                others = [v for v in ("True", "False", "Unknown")
                          if v != step["payload"]["value"]]
                step["payload"]["value"] = rng.choice(others)
            else:
                step = finals[-1]
                if step["payload"]["value"] not in ("True", "False"):
                    continue  # flipping Unknown is a different contract
                flipped = "False" if step["payload"]["value"] == "True" else "True"
                if any(e["payload"]["value"] == flipped for e in evaluations):
                    continue  # an honest evaluation happens to back the flip
                step["payload"]["value"] = flipped
            report = verify_trace(kg, doc)
            assert not report.ok, (kind, report)
            detected += 1


def test_trace_files_are_byte_identical_across_runs(tmp_path):
    with checklist("two identical runs write byte-identical trace files"):
        dataset, triples, labels, script = write_eval_fixture(tmp_path)
        kg = KnowledgeGraph.load(triples, labels)
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            run_eval(dataset, kg, ScriptedBackend(copy.deepcopy(script)),
                     HashedEmbedder(), out_dir=out)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        # results.jsonl embeds the output directory in each trace path, so
        # compare the trace files (and path-free metrics) byte for byte
        comparable = [n for n in names if n.startswith("trace_") or n == "metrics.json"]
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], comparable, shallow=False)
        assert mismatch == [] and errors == []
        assert sum(n.startswith("trace_") for n in match) == 4


def test_llm_call_budget_and_early_exit():
    with checklist("LLM calls stay within budget and stop at the first verdict"):
        for name, kg, result, backend in run_scenarios():
            doc = result.trace.to_dict()
            options = max(1, len(doc["query"]["options"]))
            b = doc["config"]["max_breadth"]
            d = doc["config"]["max_depth"]
            premises = max(
                (sum(len(c) for c in s["payload"]["clauses"])
                 for s in doc["steps"] if s["kind"] == "AxiomSurfacing"),
                default=1,
            )
            bound = options * b * (d + 1) * (premises + 3)
            assert len(backend.call_log) <= bound, name

        # pad every role with sentinel lines: none may be consumed after the
        # single-hop scenario concludes True on its first branch
        padded = {
            role: lines + ["SENTINEL"]
            for role, lines in copy.deepcopy(ADULT_SCRIPT).items()
        }
        padded.setdefault("judge", []).append("SENTINEL")
        padded.setdefault("mei", []).append("SENTINEL")
        backend = ScriptedBackend(padded)
        result = answer_query(ADULT_KG, HashedEmbedder(), backend, Query(text=ADULT_QUERY))
        assert result.answer.value == "True"
        assert all(count >= 1 for count in backend.remaining().values())
        assert not any("SENTINEL" in resp for _, _, resp in backend.call_log)


def test_eval_metrics_honor_unknown_as_incorrect(tmp_path):
    with checklist("4-item eval reports accuracy 0.75 and answer rate 0.75"):
        dataset, triples, labels, script = write_eval_fixture(tmp_path)
        kg = KnowledgeGraph.load(triples, labels)
        metrics = run_eval(
            dataset, kg, ScriptedBackend(script), HashedEmbedder(),
            out_dir=tmp_path / "out",
        )
        assert metrics.n_items == 4
        assert metrics.accuracy == 0.75
        assert metrics.answer_rate == 0.75


LIVE_ENDPOINT = os.environ.get("GROUNDEDQA_LIVE_ENDPOINT")
LIVE_MODEL = os.environ.get("GROUNDEDQA_LIVE_MODEL")


@pytest.mark.skipif(
    not (LIVE_ENDPOINT and LIVE_MODEL),
    reason="set GROUNDEDQA_LIVE_ENDPOINT and GROUNDEDQA_LIVE_MODEL to run",
)
def test_live_endpoint_smoke():
    with checklist("live endpoint answers and its trace verifies"):
        backend = HttpBackend(HttpConfig(
            endpoint=LIVE_ENDPOINT, model=LIVE_MODEL,
            api_key=os.environ.get("R3_LLM_API_KEY"),
        ))
        result = answer_query(
            ADULT_KG, HashedEmbedder(), backend, Query(text=ADULT_QUERY),
        )
        report = verify_trace(ADULT_KG, result.trace.to_dict())
        assert report.ok  # no accuracy assertion: any verified answer passes
