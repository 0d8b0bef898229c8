"""Offline end-to-end benchmark of groundedqa on seeded synthetic workloads.

    python3 bench/run.py --workload qa_hub --seed 1 --seconds 20 --trace 0

Generates the workload's KG, labels and dataset from ``--seed``, loads them
through the public loaders, and runs items back to back from one thread (a
closed loop with a single client) until ``--seconds`` of item time have
passed and at least 100 items have run. Times are scaled to a reference
host speed measured while they run (see ``speed.py``). The rule-based
responder in ``responder.py`` stands in for the LLM. Every item is
checked: it fails if it raises, if its answer or selected option differs
from the generator's expected answer, or if ``verify_trace`` rejects its
trace.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
items twice, untraced and then with every groundedqa function wrapped (see
``spans.py``), byte-compares the two runs' traces, checks that each
expected wrapper was hit, and prints the per-layer metrics. The last line
of standard output is one JSON object; the exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# Set-up runs this many times, spread evenly over the timed run.
SETUP_REPEATS = 7
MIN_ITEMS = 100

END_TO_END = (
    ("setup_s", "s"), ("item_ms_p50", "ms"), ("item_ms_p90", "ms"), ("items_per_s", "1/s"),
    ("llm_calls_per_item", "calls"), ("prompt_chars_per_item", "chars"), ("peak_rss_mb", "MB"),
)


def _import_program():
    """Import groundedqa from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "groundedqa" / "__init__.py").is_file():
        raise SystemExit(f"error: no groundedqa sources under {src}")
    sys.path.insert(0, str(src))
    import groundedqa

    if Path(groundedqa.__file__).resolve().parent != (src / "groundedqa").resolve():
        raise SystemExit(f"error: imported groundedqa from {groundedqa.__file__}, not {src}")
    return groundedqa


@dataclass
class Context:
    kg: object
    embedder: object
    responder: object
    dataset: list = field(default_factory=list)  # DatasetItems (qa workloads)


@dataclass
class PassResult:
    samples_ms: list[float] = field(default_factory=list)
    # Per sample: the perf_counter (start, end) pieces it was timed over, and
    # its share of them (below 1 when a failed run_eval call is split evenly).
    pieces: list[tuple[list[tuple[float, float]], float]] = field(default_factory=list)
    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)  # item id -> reason
    problems: list[str] = field(default_factory=list)  # gate failures not tied to an item
    traces: dict[str, bytes] = field(default_factory=dict)
    units: list = field(default_factory=list)  # dataset items or chunk files run


class Bench:
    def __init__(self, gq, workload: str, seed: int, seconds: int, work: Path):
        import datagen

        self.gq, self.workload, self.seconds, self.work = gq, workload, seconds, work
        self.gen = datagen.generate(workload, seed, work / "data")
        self.expected = {item.id: item for item in self.gen.items}
        self.config = gq.SearchConfig()

    def setup(self) -> tuple[float, Context]:
        """Load the generated files and build the embedder and responder."""
        from responder import RuleResponder

        gq, gen = self.gq, self.gen
        start = time.perf_counter()
        kg = gq.KnowledgeGraph.load(gen.kg_file, gen.labels_file)
        dataset = [] if self.workload == "pref_eval" else gq.load_dataset(gen.dataset_files[0])[0]
        ctx = Context(kg, gq.HashedEmbedder(), RuleResponder(gen.plans), dataset)
        return time.perf_counter() - start, ctx

    # -- one pass over items ---------------------------------------------

    def run_pass(self, ctx: Context, out: Path, budget_s: float, units=None, rec=None,
                 between=None) -> PassResult:
        """Run items until the budget is spent (or exactly ``units`` when given).

        With a span recorder ``rec`` (the traced pass), each query item runs
        inside a ``harness.item`` span, and eval chunks skip the harness's
        own trace verification, which would otherwise be traced too; the
        byte comparison with the untraced pass stands in for it.
        ``between`` runs between items each time another 1/SETUP_REPEATS of
        the budget has been spent.
        """
        out.mkdir(parents=True)
        res = PassResult()
        todo = units if units is not None else (
            self.gen.dataset_files if self.workload == "pref_eval" else ctx.dataset)
        mark = 1000 * budget_s / SETUP_REPEATS
        for unit in todo:
            spent = sum(res.samples_ms)
            if units is None and spent >= 1000 * budget_s and res.attempted >= MIN_ITEMS:
                break
            if between is not None and mark <= spent and mark < 1000 * budget_s:
                between()
                mark += 1000 * budget_s / SETUP_REPEATS
            res.units.append(unit)
            if self.workload == "pref_eval":
                if rec is not None:
                    rec.item = unit.stem  # until run_eval reaches its first item
                self._eval_chunk(ctx, unit, out, res, verify=rec is None)
            elif rec is None:
                self._query_item(ctx, unit, out, res)
            else:
                rec.item = unit.id
                self._query_item(ctx, unit, out, res, rec.span)
        return res

    def _query_item(self, ctx: Context, item, out: Path, res: PassResult, span=None) -> None:
        gq = self.gq
        path = out / f"{item.id}.json"
        query = gq.evalrun.item_query(item)
        res.attempted += 1
        start = time.perf_counter()
        try:
            with span("harness.item") if span else contextlib.nullcontext():
                answer, ok = self._answer(ctx, query, path)
        except Exception as exc:  # an item that raises is a failure, not a crash
            res.failures[item.id] = f"raised {exc!r}"
        end = time.perf_counter()
        res.samples_ms.append(1000 * (end - start))
        res.pieces.append(([(start, end)], 1.0))
        if item.id in res.failures:
            return
        res.traces[item.id] = path.read_bytes()
        self._check(item.id, (answer.value, answer.selected_option), ok, res)

    def _answer(self, ctx: Context, query, path: Path):
        """One query item as a user runs it: answer, save the trace, verify it."""
        gq = self.gq
        if self.workload == "baseline_rr":
            answer, trace = gq.baseline.baseline_retrieve_read(
                ctx.kg, ctx.embedder, ctx.responder, query, k=self.config.top_k)
        else:
            result = gq.answer_query(ctx.kg, ctx.embedder, ctx.responder, query, self.config)
            answer, trace = result.answer, result.trace
        trace.save(path)
        return answer, gq.verify_trace(ctx.kg, trace.to_dict()).ok

    def _eval_chunk(self, ctx: Context, dataset_file: Path, out: Path, res: PassResult,
                    verify: bool) -> None:
        gq = self.gq
        chunk_out = out / dataset_file.stem
        ids = _chunk_ids(dataset_file)
        res.attempted += len(ids)
        ctx.responder.query_starts.clear()
        start = time.perf_counter()
        try:
            gq.run_eval(dataset_file, ctx.kg, ctx.responder, ctx.embedder, self.config, out_dir=chunk_out)
        except Exception as exc:
            res.failures.update((i, f"run_eval raised {exc!r}") for i in ids)
            end = time.perf_counter()
            res.samples_ms.extend([1000 * (end - start) / len(ids)] * len(ids))
            res.pieces.extend([([(start, end)], 1 / len(ids))] * len(ids))
            return
        end = time.perf_counter()
        pieces = _item_pieces(start, ctx.responder.query_starts, end, len(ids))
        res.samples_ms.extend(share * sum(1000 * (b - a) for a, b in p) for p, share in pieces)
        res.pieces.extend(pieces)
        lines = (chunk_out / "results.jsonl").read_text(encoding="utf-8").splitlines()
        predicted = {row["id"]: row for row in map(json.loads, lines)}
        for item_id in ids:
            path = chunk_out / f"trace_{item_id}.json"
            row = predicted.get(item_id)
            if row is None or not path.is_file():
                res.failures[item_id] = "no result or trace written"
                continue
            res.traces[item_id] = path.read_bytes()
            ok = True
            if verify:
                item_kg = ctx.kg.extended(self.expected[item_id].personal_kg)
                ok = gq.verify_trace(item_kg, gq.load_trace(path)).ok
            self._check(item_id, (row["predicted"], row["selected_option"]), ok, res)

    def _check(self, item_id: str, got, verified: bool, res: PassResult) -> None:
        want = self.expected[item_id].expected
        if tuple(got) != tuple(want):
            res.failures[item_id] = f"answered {tuple(got)}, expected {want}"
        elif not verified:
            res.failures[item_id] = "verify_trace rejected the trace"

    # -- the two kinds of run ----------------------------------------------

    def end_to_end(self) -> tuple[dict, PassResult]:
        """Time set-ups and items, each scaled by the host speed during it."""
        from speed import AROUND, PERIOD_S, Speed

        gc.collect()
        gc.freeze()  # keep the generator's objects out of the program's collections
        speed = Speed()

        def timed_setup() -> Context:
            gc.collect()
            start = time.perf_counter()
            _, ctx = self.setup()
            setup_pieces.append([(start, time.perf_counter())])
            gc.collect()
            return ctx

        setup_pieces: list[list[tuple[float, float]]] = []
        with speed:
            ctx = timed_setup()
            res = self.run_pass(ctx, self.work / "run", self.seconds, between=timed_setup)
            while len(setup_pieces) < SETUP_REPEATS:
                timed_setup()
            time.sleep((AROUND + 1) * PERIOD_S)  # let the timer probe after the last interval
        setups = [speed.measure(p) / 1000 for p in setup_pieces]
        samples = [share * speed.measure(p) for p, share in res.pieces]
        n = len(samples)
        self.kernel_ms = statistics.median(speed.ms)
        metrics = {
            "setup_s": statistics.median(setups),
            "item_ms_p50": statistics.median(samples),
            "item_ms_p90": statistics.quantiles(samples, n=10)[8],
            "items_per_s": n / (sum(samples) / 1000),
            "llm_calls_per_item": sum(ctx.responder.calls.values()) / n,
            "prompt_chars_per_item": sum(ctx.responder.chars.values()) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END}, res

    def traced(self, spans_file: Path) -> tuple[dict, PassResult]:
        import spans

        gc.collect()
        gc.freeze()
        _, ctx = self.setup()
        plain = self.run_pass(ctx, self.work / "plain", self.seconds / 2)
        ctx = None
        gc.collect()
        rec = spans.Recorder()
        eval_ids = iter([i for f in plain.units if self.workload == "pref_eval" for i in _chunk_ids(f)])

        def next_item():  # run_eval rebuilds the item KG first thing in each item
            rec.item = next(eval_ids, "?")

        from responder import RuleResponder

        responder = RuleResponder(self.gen.plans)
        with spans.traced(rec, responder, on_extended=next_item) as counting:
            _, ctx = self.setup()
            ctx.responder = responder
            with_spans = self.run_pass(ctx, self.work / "traced", 0, units=plain.units, rec=rec)
        rec.write(spans_file)
        res = PassResult(attempted=plain.attempted, failures={**with_spans.failures, **plain.failures})
        for item_id, data in plain.traces.items():
            if with_spans.traces.get(item_id) != data:
                res.failures.setdefault(item_id, "traced run wrote different trace bytes")
        hit = {key for key, count in rec.hits.items() if count}
        res.problems = [f"wrapper never hit: {key}"
                        for key in sorted(spans.EXPECTED_HITS[self.workload] - hit)]
        metrics = spans.layer_metrics(rec, counting, responder, len(with_spans.samples_ms),
                                      with_spans.samples_ms, statistics.median(plain.samples_ms))
        units = dict((name, unit) for name, unit, _ in spans.PER_LAYER)
        return {k: {"value": metrics[k], "unit": units[k]} for k in units}, res


def _chunk_ids(dataset_file: Path) -> list[str]:
    return [json.loads(line)["id"] for line in dataset_file.read_text(encoding="utf-8").splitlines()]


def _item_pieces(start: float, boundaries: list[float], end: float,
                 n: int) -> list[tuple[list[tuple[float, float]], float]]:
    """Per-item time pieces of one ``run_eval`` call from its item boundaries.

    Consecutive boundaries bound one item's worth of work; the time before
    the first boundary and after the last one (dataset loading, the first
    item's head, the last item's tail, result writing) together make the
    last item. Without one boundary per item the call is split evenly.
    """
    if len(boundaries) != n:
        return [([(start, end)], 1 / n)] * n
    pieces = [([(a, b)], 1.0) for a, b in zip(boundaries, boundaries[1:])]
    pieces.append(([(start, boundaries[0]), (boundaries[-1], end)], 1.0))
    return pieces


def main(argv=None) -> int:
    import datagen
    import speed

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=datagen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    gq = _import_program()
    import groundedqa.baseline  # noqa: F401  (not imported by the package itself)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(gq, args.workload, args.seed, args.seconds, work)
        if args.trace:
            metrics, res = bench.traced(WORK / f"spans-{args.workload}-{args.seed}.tsv")
        else:
            metrics, res = bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  kg {bench.gen.triples} triples  "
          f"items {res.attempted}  samples {len(res.samples_ms) or res.attempted}  "
          f"failed {len(res.failures)}")
    if not args.trace:
        print(f"reference kernel median {bench.kernel_ms:.4f} ms; times below are scaled to "
              f"{speed.REF_MS} ms")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.4f} {m['unit']}")
    for item_id, reason in list(res.failures.items())[:20]:
        print(f"  FAIL {item_id}: {reason}")
    for problem in res.problems:
        print(f"  FAIL {problem}")
    correct = not res.failures and not res.problems
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": len(res.failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
