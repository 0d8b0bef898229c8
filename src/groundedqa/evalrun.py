"""Dataset loading, evaluation runs, and metrics.

Datasets are JSONL, one item per line, covering three task shapes: yes/no
questions, claims, and preference matching with options plus an inline
personal KG. Unknown answers count as incorrect when computing accuracy.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Optional

from .baseline import baseline_retrieve_read
from .entities import Query
from .kg import KgParseError, KnowledgeGraph, named_decode_errors
from .retrieval import Embedder
from .search import SearchConfig, answer_multiple_choice, answer_query
from .trace import verify_trace

log = logging.getLogger(__name__)

TASK_MAP = {"qa": "qa_yes_no", "claim": "claim", "preference": "multiple_choice"}

_GOLD_TRUE = {"yes", "correct", "true"}
_GOLD_FALSE = {"no", "incorrect", "false"}
# An item's id names its trace file, so it may hold no path separator or NUL.
_UNSAFE_ID_CHARS = frozenset(c for c in ("/", os.sep, os.altsep, "\0") if c)


def _names_a_file(item_id: str) -> bool:
    """Whether ``item_id`` can be part of a file name on this OS."""
    if not item_id or not _UNSAFE_ID_CHARS.isdisjoint(item_id):
        return False
    try:
        os.fsencode(item_id)  # a lone surrogate, say, has no file-system bytes
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True)
class DatasetItem:
    id: str
    task: str  # "qa" | "claim" | "preference"
    query: str
    gold: Any  # "Yes"/"No", "Correct"/"Incorrect", or option index
    options: tuple[str, ...] = ()
    personal_kg: tuple[tuple[str, str, str], ...] = ()
    kg_ref: Optional[str] = None

    def __post_init__(self):
        if self.task not in TASK_MAP:
            raise ValueError(f"unknown task {self.task!r}")
        if not isinstance(self.query, str) or not self.query.strip():
            raise ValueError(f"query {self.query!r} is not a non-empty string")
        if type(self.options) is not tuple or not all(
            isinstance(o, str) and o.strip() for o in self.options
        ):
            raise ValueError(f"options {self.options!r} are not non-empty strings")
        if self.task == "preference":
            if len(self.options) < 2:
                raise ValueError("preference items need at least 2 options")
            # bool is an int subclass, but a JSON true/false is not an option index
            if type(self.gold) is not int or not 0 <= self.gold < len(self.options):
                raise ValueError(
                    f"preference gold must be an option index in [0, {len(self.options)}),"
                    f" got {self.gold!r}"
                )
        elif str(self.gold).lower() not in _GOLD_TRUE | _GOLD_FALSE:
            raise ValueError(f"gold {self.gold!r} inconsistent with task {self.task!r}")
        for row in self.personal_kg:
            if type(row) is not tuple or len(row) != 3 or not all(isinstance(f, str) for f in row):
                raise ValueError(f"personal_kg row {row!r} is not three strings")


@dataclass
class Metrics:
    n_items: int
    skipped: int
    accuracy: float
    answer_rate: float
    grounding_precision: float
    rejected_citations: int
    verified: int  # items whose trace ``verify_trace`` accepted

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def parse_item(raw: dict[str, Any]) -> DatasetItem:
    if not isinstance(raw, dict):
        raise ValueError(f"item {raw!r:.40} is not a JSON object")
    options = raw.get("options", ())
    return DatasetItem(
        id=str(raw["id"]),
        task=raw["task"],
        query=raw["query"],
        gold=raw["gold"],
        options=tuple(options) if isinstance(options, list) else options,
        personal_kg=tuple(tuple(t) if isinstance(t, list) else t
                          for t in raw.get("personal_kg", ())),
        kg_ref=raw.get("kg_ref"),
    )


def load_dataset(path: str | Path) -> tuple[list[DatasetItem], int]:
    """Parse a JSONL dataset; malformed items are skipped with a warning.

    A line that is not a JSON object (``[1, 2]``, ``null``) is malformed.
    An item's id names its trace file, so an item whose id is empty, holds a
    path separator or NUL, has no file-system encoding (a lone surrogate), or
    repeats an earlier item's id is malformed too, as is one whose query is
    not a non-empty string, whose ``options`` is not a list of non-empty
    strings, or with a ``personal_kg`` row that is not three strings.
    A relative ``kg_ref`` is resolved against the dataset file's directory,
    so the dataset loads the same from any working directory; an item whose
    resolved ``kg_ref`` is not a file is malformed.
    """
    items: list[DatasetItem] = []
    ids: set[str] = set()
    skipped = 0
    base = Path(path).parent
    with named_decode_errors(path), open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                item = parse_item(json.loads(line))
                if item.id in ids:
                    raise ValueError(f"repeated item id {item.id!r}")
                if not _names_a_file(item.id):
                    raise ValueError(f"item id {item.id!r} cannot name a trace file")
                if item.kg_ref:
                    item = replace(item, kg_ref=str(base / item.kg_ref))
                    if not Path(item.kg_ref).is_file():
                        raise ValueError(f"kg_ref {item.kg_ref!r} is not a file")
            except (ValueError, KeyError, TypeError) as exc:
                skipped += 1
                log.warning("skipping malformed item at line %d: %s", line_no, exc)
                continue
            ids.add(item.id)
            items.append(item)
    return items, skipped


def item_query(item: DatasetItem) -> Query:
    return Query(text=item.query, options=item.options, task=TASK_MAP[item.task])


def is_correct(item: DatasetItem, value: str, selected_option: Optional[int]) -> bool:
    """Gold comparison; Unknown never counts as correct."""
    if item.task == "preference":
        return value == "True" and selected_option == item.gold
    gold = str(item.gold).lower()
    if value == "True":
        return gold in _GOLD_TRUE
    if value == "False":
        return gold in _GOLD_FALSE
    return False


def _item_kg(item: DatasetItem, kg: KnowledgeGraph) -> KnowledgeGraph:
    if item.kg_ref:
        kg = KnowledgeGraph.load(item.kg_ref)
    if item.personal_kg:
        kg = kg.extended(item.personal_kg)
    return kg


def _create(path: str, started: threading.Lock) -> None:
    """Create ``path`` as an empty file unless it exists; a helper thread runs it.

    Releasing ``started`` first lets the caller, blocked on it, run again once
    the create call has let go of the GIL.
    """
    started.release()
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))


def run_eval(
    dataset_file: str | Path,
    kg: KnowledgeGraph,
    backend,
    embedder: Embedder,
    config: Optional[SearchConfig] = None,
    out_dir: str | Path = "results",
    baseline: bool = False,
) -> Metrics:
    """Run the engine (or the retrieve-and-read baseline) over a dataset.

    Writes one trace file per item under ``out_dir`` and appends the item's
    line to ``results.jsonl`` as soon as it finishes, so an exception mid-run
    leaves every earlier item's result; returns the aggregate metrics. An
    item whose ``kg_ref`` file cannot be read or parsed is logged, skipped
    and counted in ``skipped`` like a malformed line, and gets no trace file.

    One helper thread per call, which takes no option, creates each item's
    trace file empty while the engine answers the item; ``ReasoningTrace.save``
    then fills it on the calling thread. So ``trace_<id>.json`` exists while
    its item runs, and an item that raises leaves none. The helper is shut
    down before this function returns or raises.
    """
    config = config or SearchConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    items, skipped = load_dataset(dataset_file)

    correct = 0
    answered = 0
    precisions: list[float] = []
    rejected = 0
    verified = 0
    # Creating a file costs kernel time that the idle core spends while this
    # thread answers the item; ``save`` then only rewrites the file. The helper
    # does nothing else, since this thread waits whenever the helper holds the GIL.
    started = threading.Lock()
    started.acquire()
    with open(out_dir / "results.jsonl", "w", encoding="utf-8") as results, \
            ThreadPoolExecutor(max_workers=1) as creator:
        for item in items:
            try:
                item_kg = _item_kg(item, kg)
            except (KgParseError, UnicodeDecodeError, OSError) as exc:
                skipped += 1
                log.warning("skipping item %r: cannot load its KG: %s", item.id, exc)
                continue
            trace_path = out_dir / f"trace_{item.id}.json"
            created = creator.submit(_create, str(trace_path), started)
            try:
                # Block until the helper is in the create call: this thread seldom
                # lets go of the GIL while it answers, so the create would start late.
                started.acquire()
                query = item_query(item)
                if baseline:
                    answer, trace = baseline_retrieve_read(
                        item_kg, embedder, backend, query, k=config.top_k,
                    )
                else:
                    answer_fn = answer_multiple_choice if query.options else answer_query
                    result = answer_fn(item_kg, embedder, backend, query, config)
                    answer, trace = result.answer, result.trace
                    rejected += result.audit.rejected_citations
                created.result()  # re-raises the helper's OSError here
                doc = trace.save(trace_path)
            except BaseException:
                # Wait first, so the file is not created after the unlink; what the
                # helper could not create (a directory, say) is not this item's.
                if created.exception() is None:
                    trace_path.unlink(missing_ok=True)
                raise
            report = verify_trace(item_kg, doc)
            precisions.append(report.grounding_precision)
            verified += report.ok

            ok = is_correct(item, answer.value, answer.selected_option)
            correct += ok
            answered += answer.value != "Unknown"
            results.write(json.dumps({
                "id": item.id,
                "predicted": answer.value,
                "selected_option": answer.selected_option,
                "gold": item.gold,
                "correct": ok,
                "trace": str(trace_path),
                "verified": report.ok,
            }, sort_keys=True) + "\n")
            results.flush()  # a run killed later keeps every finished item's line
    n = len(precisions)
    metrics = Metrics(
        n_items=n,
        skipped=skipped,
        accuracy=(correct / n) if n else 0.0,
        answer_rate=(answered / n) if n else 0.0,
        grounding_precision=(sum(precisions) / n) if n else 1.0,
        rejected_citations=rejected,
        verified=verified,
    )
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return metrics
