"""In-process tracing: spans around groundedqa's public functions, from outside.

``traced(recorder, responder)`` wraps each target function in every module
namespace that binds it (``top_k_similar`` is imported by name into
``retrieval``, ``expansion`` and ``baseline``; each copy gets its own
wrapper), records one span per call in memory, and restores the originals
on exit. Spans nest through a stack, so a span's parent is the innermost
wrapped call still open; a layer's self time is its spans' durations minus
the part their children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from groundedqa.llm import ROLES
from groundedqa.retrieval import top_k_similar, verbalize

# (defining module, attribute) for every wrapped function; "Class.method"
# wraps a method on the class itself.
TARGETS = (
    ("kg", "KnowledgeGraph.load"),
    ("kg", "KnowledgeGraph.extended"),
    ("kg", "KnowledgeGraph.one_hop_subgraph"),
    ("entities", "link_lexical"),
    ("entities", "extract_entities_llm"),
    ("entities", "anchor_entities"),
    ("search", "surface_axiom"),
    ("search", "answer_query"),
    ("search", "answer_multiple_choice"),
    ("retrieval", "top_k_similar"),
    ("retrieval", "llm_select_triples"),
    ("retrieval", "prune_subgraph"),
    ("grounding", "ground_premise"),
    ("grounding", "ground_premise_symbolic"),
    ("grounding", "ground_premise_judge"),
    ("expansion", "identify_missing"),
    ("expansion", "expand"),
    ("prompts", "render_prompt"),
    ("trace", "ReasoningTrace.to_dict"),
    ("trace", "ReasoningTrace.save"),
    ("trace", "verify_trace"),
    ("evalrun", "load_dataset"),
    ("evalrun", "run_eval"),
    ("baseline", "baseline_retrieve_read"),
)
LAYERS = ("kg", "entities", "search", "retrieval", "grounding", "expansion",
          "llm", "prompts", "trace", "evalrun", "baseline")
RESPONDER_SPAN = "llm.complete"
_TOP_K_SIGNATURE = inspect.signature(top_k_similar)

_QA_HITS = {
    "KnowledgeGraph.load", "groundedqa:load_dataset", "groundedqa:answer_query",
    "search:anchor_entities", "entities:link_lexical", "entities:extract_entities_llm",
    "KnowledgeGraph.one_hop_subgraph", "search:surface_axiom", "search:prune_subgraph",
    "retrieval:top_k_similar", "retrieval:llm_select_triples", "search:ground_premise",
    "grounding:ground_premise_symbolic", "grounding:ground_premise_judge",
    "search:identify_missing", "search:expand", "expansion:prune_subgraph",
    "entities:render_prompt", "search:render_prompt", "retrieval:render_prompt",
    "grounding:render_prompt", "expansion:render_prompt",
    "ReasoningTrace.to_dict", "ReasoningTrace.save", "groundedqa:verify_trace",
    RESPONDER_SPAN,
}
# Bindings each workload must call at least once in its traced run; a
# wrapper patched into the wrong namespace shows up here as a miss.
EXPECTED_HITS = {
    "qa_hub": _QA_HITS,
    "qa_sparse": _QA_HITS | {"expansion:top_k_similar"},
    "pref_eval": {
        "KnowledgeGraph.load", "groundedqa:run_eval", "evalrun:load_dataset",
        "KnowledgeGraph.extended", "evalrun:answer_multiple_choice",
        "search:anchor_entities", "entities:link_lexical", "entities:extract_entities_llm",
        "KnowledgeGraph.one_hop_subgraph", "search:surface_axiom", "search:prune_subgraph",
        "retrieval:top_k_similar", "retrieval:llm_select_triples", "search:ground_premise",
        "grounding:ground_premise_symbolic", "entities:render_prompt", "search:render_prompt",
        "retrieval:render_prompt", "ReasoningTrace.to_dict", "ReasoningTrace.save",
        "evalrun:verify_trace", RESPONDER_SPAN,
    },
    "baseline_rr": {
        "KnowledgeGraph.load", "groundedqa:load_dataset", "baseline:baseline_retrieve_read",
        "baseline:top_k_similar", "baseline:render_prompt", "ReasoningTrace.to_dict",
        "ReasoningTrace.save", "groundedqa:verify_trace", RESPONDER_SPAN,
    },
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    item: str


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hits: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = "setup"
        self._stack: list[int] = []
        self._open: list[tuple[str, float, int, str]] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # placeholder keeps the index stable for children
        self._stack.append(len(self.spans) - 1)
        self._open.append((name, time.perf_counter(), parent, self.item))

    def close(self) -> None:
        end = time.perf_counter()
        name, start, parent, item = self._open.pop()
        self.spans[self._stack.pop()] = Span(name, start, end, parent, item)

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(f"{s.item}\t{s.name}\t{s.parent}\t{s.start:.9f}\t{s.end:.9f}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


# -- wrappers ------------------------------------------------------------


class _Counting:
    """Post-call hooks deriving count ratios from arguments and results.

    Hooks run after their own span closes; any that does real work records
    it as a ``harness`` span so the caller's self time excludes it.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.texts: set[str] = set()
        self._seen: "weakref.WeakKeyDictionary[Any, set[int]]" = weakref.WeakKeyDictionary()

    def one_hop_subgraph(self, args, kwargs, result, exc):
        if result is not None:
            self.rec.counts["subgraph_triples"] += len(result.triple_ids)

    def top_k_similar(self, args, kwargs, result, exc):
        with self.rec.span("harness.count_texts"):
            call = _TOP_K_SIGNATURE.bind(*args, **kwargs).arguments
            kg = call["kg"]
            candidates = set(call["triple_ids"]) - set(call.get("exclude", ()))
            self.rec.counts["top_k_candidates"] += len(candidates)
            if call["k"] == 0 or not candidates:
                return
            self.rec.counts["embed_calls"] += 1 + len(candidates)
            self.texts.add(call["axiom_text"])
            seen = self._seen.setdefault(kg, set())
            for tid in candidates - seen:
                self.texts.add(verbalize(kg, kg.triple(tid)))
            seen |= candidates

    def ground_premise(self, args, kwargs, result, exc):
        if result is not None and result.method == "symbolic":
            self.rec.counts["symbolic"] += 1

    def identify_missing(self, args, kwargs, result, exc):
        if result is not None:
            self.rec.counts["mei_resolved"] += 1

    def _query_result(self, args, kwargs, result, exc):
        if result is not None:
            self.rec.counts["branches"] += result.branches_used
            self.rec.counts["demotions"] += result.audit.rejected_citations
            self.rec.counts["parse_failures"] += result.audit.parse_failures

    answer_query = answer_multiple_choice = _query_result

    def save(self, args, kwargs, result, exc):
        if exc is None:
            trace, path = args[0], args[1]
            self.rec.counts["trace_bytes"] += os.path.getsize(path)
            self.rec.counts["trace_steps"] += len(trace.steps)


def _wrap(rec: Recorder, span_name: str, key: str, fn: Callable, hook, pre=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if pre is not None:
            pre()
        rec.hits[key] += 1
        result = exc = None
        rec.open(span_name)
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            rec.close()
            if hook is not None:
                hook(args, kwargs, result, exc)

    return wrapper


def _groundedqa_modules() -> list[tuple[str, Any]]:
    return [
        ("groundedqa" if name == "groundedqa" else name.rsplit(".", 1)[1], mod)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "groundedqa" or name.startswith("groundedqa."))
    ]


@contextlib.contextmanager
def traced(rec: Recorder, responder, on_extended: Optional[Callable[[], None]] = None):
    """Patch every target binding (and the responder) for the duration."""
    import groundedqa  # noqa: F401  (loads every submodule)

    counting = _Counting(rec)
    modules = _groundedqa_modules()
    by_short = dict(modules)
    undo: list[tuple[Any, str, Any]] = []
    for module, attr in TARGETS:
        span_name = f"{module}.{attr.rsplit('.', 1)[-1]}"
        hook = getattr(counting, attr.rsplit(".", 1)[-1], None)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(by_short[module], cls_name)
            raw = cls.__dict__[meth]
            pre = on_extended if meth == "extended" else None
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(rec, span_name, attr, raw.__func__, hook, pre))
            else:
                new = _wrap(rec, span_name, attr, raw, hook, pre)
            undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            continue
        original = getattr(by_short[module], attr)
        for short, mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, value))
                    setattr(mod, name, _wrap(rec, span_name, f"{short}:{name}", original, hook))
    complete = responder.complete
    responder.complete = _wrap(rec, RESPONDER_SPAN, RESPONDER_SPAN, complete, None)
    try:
        yield counting
    finally:
        del responder.complete
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)


# -- per-layer metrics -----------------------------------------------------

_TIME_METRICS = {
    # metric -> span names whose self time it sums (per item)
    "kg.extended_ms": ("kg.extended",),
    "kg.one_hop_subgraph_ms": ("kg.one_hop_subgraph",),
    "entities.link_lexical_ms": ("entities.link_lexical",),
    "entities.anchor_entities_self_ms": ("entities.anchor_entities", "entities.extract_entities_llm"),
    "search.surface_axiom_ms": ("search.surface_axiom",),
    "search.self_ms": ("search.answer_query", "search.answer_multiple_choice"),
    "retrieval.prune_subgraph_self_ms": ("retrieval.prune_subgraph",),
    "retrieval.top_k_similar_ms": ("retrieval.top_k_similar",),
    "retrieval.llm_select_ms": ("retrieval.llm_select_triples",),
    "grounding.ground_premise_ms": ("grounding.ground_premise", "grounding.ground_premise_symbolic",
                                    "grounding.ground_premise_judge"),
    "expansion.identify_missing_ms": ("expansion.identify_missing",),
    "expansion.expand_self_ms": ("expansion.expand",),
    "llm.responder_self_ms": (RESPONDER_SPAN,),
    "prompts.render_prompt_ms": ("prompts.render_prompt",),
    "trace.to_dict_ms": ("trace.to_dict",),
    "trace.save_ms": ("trace.save",),
    "trace.verify_ms": ("trace.verify_trace",),
    "evalrun.run_eval_self_ms": ("evalrun.run_eval",),
    "evalrun.load_dataset_ms": ("evalrun.load_dataset",),
    "baseline.retrieve_read_self_ms": ("baseline.baseline_retrieve_read",),
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("kg.load_ms", "ms", "lower")]
    + [(m, "ms", "lower") for m in _TIME_METRICS]
    + [
        ("kg.subgraph_triples", "triples", "lower"),
        ("entities.calls_per_item", "calls", "lower"),
        ("search.branches_per_item", "branches", "lower"),
        ("retrieval.top_k_candidates", "triples", "lower"),
        ("retrieval.embed_calls_per_item", "calls", "lower"),
        ("retrieval.embed_unique_frac", "ratio", "higher"),
        ("grounding.symbolic_frac", "ratio", "higher"),
        ("grounding.judge_calls_per_item", "calls", "lower"),
        ("grounding.demotions_per_item", "count", "lower"),
        ("expansion.expansions_per_item", "count", "lower"),
        ("expansion.resolved_frac", "ratio", "higher"),
        ("llm.parse_failures_per_item", "count", "lower"),
        ("trace.bytes_per_item", "bytes", "lower"),
        ("trace.steps_per_item", "steps", "lower"),
    ]
    + [(f"llm.calls.{r}", "calls", "lower") for r in ROLES]
    + [(f"llm.prompt_chars.{r}", "chars", "lower") for r in ROLES]
    + [(f"{layer}.share", "ratio", "lower") for layer in LAYERS]
    + [("harness.item_ms_p50_traced", "ms", "lower"), ("harness.tracing_overhead_ms", "ms", "lower")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, counting: _Counting, responder, n_items: int,
                  item_ms: list[float], untraced_p50: float) -> dict[str, float]:
    """Every per-layer metric of one traced run (see PER_LAYER)."""
    selfs = self_times(rec.spans)
    self_by_name: Counter = Counter()
    layer_self: Counter = Counter()
    loads = []
    root_total = 0.0
    for s, own in zip(rec.spans, selfs):
        if s.item == "setup":
            if s.name == "kg.load":
                loads.append(own)
            continue
        self_by_name[s.name] += own
        layer_self[s.name.split(".", 1)[0]] += own
        if s.parent < 0:
            root_total += s.end - s.start
    hits, c = rec.hits, rec.counts

    def per_item(value: float) -> float:
        return _ratio(value, n_items)

    m: dict[str, float] = {"kg.load_ms": 1000 * statistics.median(loads) if loads else 0.0}
    for metric, names in _TIME_METRICS.items():
        m[metric] = 1000 * per_item(sum(self_by_name[n] for n in names))
    one_hop = hits["KnowledgeGraph.one_hop_subgraph"]
    top_k = sum(v for k, v in hits.items() if k.endswith(":top_k_similar"))
    grounded = sum(v for k, v in hits.items() if k.endswith(":ground_premise"))
    mei = sum(v for k, v in hits.items() if k.endswith(":identify_missing"))
    m.update({
        "kg.subgraph_triples": _ratio(c["subgraph_triples"], one_hop),
        "entities.calls_per_item": per_item(sum(v for k, v in hits.items() if k.endswith(":anchor_entities"))),
        "search.branches_per_item": per_item(c["branches"]),
        "retrieval.top_k_candidates": _ratio(c["top_k_candidates"], top_k),
        "retrieval.embed_calls_per_item": per_item(c["embed_calls"]),
        "retrieval.embed_unique_frac": _ratio(len(counting.texts), c["embed_calls"]),
        "grounding.symbolic_frac": _ratio(c["symbolic"], grounded),
        "grounding.judge_calls_per_item": per_item(responder.calls["judge"]),
        "grounding.demotions_per_item": per_item(c["demotions"]),
        "expansion.expansions_per_item": per_item(sum(v for k, v in hits.items() if k.endswith(":expand"))),
        "expansion.resolved_frac": _ratio(c["mei_resolved"], mei),
        "llm.parse_failures_per_item": per_item(c["parse_failures"]),
        "trace.bytes_per_item": per_item(c["trace_bytes"]),
        "trace.steps_per_item": per_item(c["trace_steps"]),
    })
    for role in ROLES:
        m[f"llm.calls.{role}"] = per_item(responder.calls[role])
        m[f"llm.prompt_chars.{role}"] = per_item(responder.chars[role])
    item_total = root_total - self_by_name["harness.count_texts"]
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(layer_self[layer], item_total)
    traced_p50 = statistics.median(item_ms) if item_ms else 0.0
    m["harness.item_ms_p50_traced"] = traced_p50
    m["harness.tracing_overhead_ms"] = traced_p50 - untraced_p50
    return m
