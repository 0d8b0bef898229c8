"""Immutable triple store with label/alias resolution and 1-hop subgraph extraction.

Triples are (head, relation, tail) with the head always a known entity id.
Tails may be entity ids, free text, or numbers. The triples and indexes are
read-only after loading; the one thing that grows is a cache of hub heads' id
arrays, filled on first use (see ``KnowledgeGraph``). The store is safe to
share across concurrent query evaluations; ``extended`` overlays a delta on it
without mutating it.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
import unicodedata
from collections import ChainMap
from collections.abc import KeysView, MutableMapping, Sequence
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Collection, Iterable, Iterator, NamedTuple, Optional

import numpy as np

_NUMBER_RE = re.compile(r"^[+-]?\d+(\.\d+)?$")
_SEPARATORS_RE = re.compile(r"[\t\n\r]")
# characters of lines ``load`` reads per chunk; bounds its transient memory
_CHUNK_CHARS = 1 << 18

# A head's id array is cached only when the head has more triples than this.
# Building the array takes about 2 us for 64 ids against 89 us for a 4e3-id
# hub (np.fromiter in a loop, 2-vCPU VM), and each cached array holds at
# least 112 bytes beside the head's list. Caching every head instead raised
# the qa_sparse benchmark's peak RSS from 110 to 114 MB and saved no time.
HUB_MIN_IDS = 64


class KgParseError(ValueError):
    """Raised for malformed triple or label files, naming the offending line."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def normalize(surface: str) -> str:
    """Canonical form used for all name matching: NFC, lowercase, single spaces."""
    return " ".join(unicodedata.normalize("NFC", surface).split()).lower()


def parse_number(token: str) -> Optional[Decimal]:
    """Parse a tail/comparand as a number, or None if it is not one.

    Only a full match of optional sign, digits, optional decimal part counts;
    anything else is text.
    """
    if _NUMBER_RE.match(token):
        return Decimal(token)
    return None


class Triple(NamedTuple):
    """One immutable triple, built on demand by ``KnowledgeGraph.triple``."""

    id: int
    head: str
    relation: str
    tail: str


_new_tuple = tuple.__new__
_NO_IDS = np.empty(0, dtype=np.intp)


def id_array(triple_ids: Iterable[int]) -> np.ndarray:
    """The ids as one sorted, distinct ``np.intp`` array.

    An integer array that already is sorted and distinct is returned as it
    is, after one pass that checks it, so passing a ``Subgraph``'s ``ids``
    on costs no copy.
    """
    if isinstance(triple_ids, np.ndarray):
        ids = triple_ids.astype(np.intp, copy=False)
    else:
        ids = np.fromiter(triple_ids, dtype=np.intp)
    if np.count_nonzero(ids[1:] > ids[:-1]) < len(ids) - 1:
        ids = _distinct(np.sort(ids))
    return ids


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The sorted ``ids`` without repeats; ``np.unique`` is an order of magnitude slower."""
    first = np.empty(len(ids), dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return ids[first]


def drop_ids(ids: np.ndarray, drop: Collection[int]) -> np.ndarray:
    """The sorted, distinct ``ids`` without the ids in ``drop``.

    Each id of ``drop`` is looked up by binary search. ``np.isin`` sorts
    both arrays instead, which costs several times more on the few ids a
    branch has consumed.
    """
    if not drop or not len(ids):
        return ids
    wanted = np.fromiter(drop, dtype=np.intp, count=len(drop))
    pos = ids.searchsorted(wanted)
    keep = np.ones(len(ids), dtype=bool)
    keep[pos[ids.take(pos, mode="clip") == wanted]] = False
    return ids[keep]


@dataclass(frozen=True, eq=False)
class Subgraph:
    """Triples whose head lies in an anchor set.

    ``ids`` is the one representation: a sorted, distinct, read-only
    ``np.intp`` array, built once by ``KnowledgeGraph.one_hop_subgraph`` and
    passed on unchanged to pruning; every single-anchor subgraph of a hub
    shares the KG's cached array. ``triple_ids`` is the same set as a
    frozenset, built on first read for callers that want a set.
    """

    ids: np.ndarray

    def __post_init__(self):
        self.ids.setflags(write=False)

    @functools.cached_property
    def triple_ids(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())

    def union(self, other: "Subgraph") -> "Subgraph":
        """The triples of both subgraphs."""
        ids = np.concatenate((self.ids, other.ids))
        ids.sort()
        return Subgraph(_distinct(ids))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgraph):
            return NotImplemented
        return np.array_equal(self.ids, other.ids)


class KnowledgeGraph:
    """Triple columns plus label, alias, and head indexes.

    The triples are stored as three parallel columns of interned strings
    (heads, relations, tails); ``triple(i)`` builds the ``Triple`` of row
    ``i`` when it is asked for, and ``triples`` is a read-only sequence
    view over the rows. Triple ids are insertion ordinals; duplicate content
    lines produce distinct triples so citations stay stable. The first label
    of an entity is its primary label and every later one an alias; a head
    without a label acts as its own, so ``labels`` holds every entity. Each
    alias list keeps its ids in the order they were added, and each
    ``head_index`` list its triple ids in ascending order, so
    ``one_hop_subgraph`` builds its sorted id array without a set.

    The rows and indexes do not change after loading, but the KG is not
    plainly read-only: ``_head_ids`` fills a cache of read-only id arrays,
    one per hub head (more than ``HUB_MIN_IDS`` triples), on the head's
    first ``one_hop_subgraph``, so a hub is turned into an array once. Two
    threads that miss at once both build the same array and keep one.

    ``extended`` builds an overlay rather than a copy: each of its columns
    reads the base's column below ``len(base)`` and its own above, and each
    of its indexes is a ``ChainMap`` whose first map holds only the delta's
    entries and which falls through to the base's index for every other key.
    Base ids are unchanged, delta ids start at ``len(base)``, and an alias
    list keeps the base's order with new ids after it. Index lists are
    replaced when they grow, never appended to, so an overlay's writes land
    in its first maps and the base is never mutated; it stays safe to share.
    An overlay costs O(delta) to build and to free, whatever the base's
    size; it holds the base's containers, so they live as long as it does.
    Its hub cache starts empty, so it never serves a base array for a head
    its delta grew. A loaded KG keeps plain lists and dicts.
    """

    def __init__(
        self,
        triples: Iterable[tuple[str, str, str]] = (),
        labels: Iterable[tuple[str, str]] = (),
    ):
        self._heads: _Column = []
        self._relations: _Column = []
        self._tails: _Column = []
        self.labels: MutableMapping[str, str] = {}
        self._aliases: MutableMapping[str, list[str]] = {}
        self._max_alias_len = 0
        self.head_index: MutableMapping[str, list[int]] = {}
        self._head_arrays: dict[str, np.ndarray] = {}
        self._add(*_columns(triples), labels)

    @property
    def entities(self) -> KeysView[str]:
        """Every entity id: each labelled entity and each triple head."""
        return self.labels.keys()

    @property
    def triples(self) -> Sequence[Triple]:
        """The triples in id order, as a read-only view over the columns."""
        return _Triples(self)

    def _add(
        self,
        heads: list[str],
        relations: list[str],
        tails: list[str],
        labels: Iterable[tuple[str, str]],
    ) -> None:
        """Add labels, then the rows of three equal-length columns.

        An index entry that grows is replaced by a new list, never appended
        to, so an overlay's writes land in its own first maps (see
        ``extended``) and the base's lists stay as they were.
        """
        for entity_id, label in labels:
            if entity_id not in self.labels:
                self.labels[entity_id] = label
            self._add_alias(label, entity_id)
        start = len(self._heads)
        self._heads.extend(heads)
        self._relations.extend(relations)
        self._tails.extend(tails)
        grouped: dict[str, list[int]] = {}
        for triple_id, head in enumerate(heads, start):
            ids = grouped.get(head)
            if ids is None:
                grouped[head] = [triple_id]
            else:
                ids.append(triple_id)
        head_index = self.head_index
        for head, ids in grouped.items():
            known = head_index.get(head)
            if known is not None:
                head_index[head] = known + ids
                continue
            head_index[head] = ids
            # Heads without an explicit label act as their own label.
            if head not in self.labels:
                self.labels[head] = head
                self._add_alias(head, head)

    def _add_alias(self, surface: str, entity_id: str) -> None:
        key = normalize(surface)
        self._max_alias_len = max(self._max_alias_len, len(key))
        ids = self._aliases.get(key, ())
        if entity_id not in ids:
            self._aliases[key] = [*ids, entity_id]

    # -- loading / saving ----------------------------------------------------

    @classmethod
    def load(cls, triples_file: str | Path, labels_file: str | Path | None = None) -> "KnowledgeGraph":
        """Load a KG from the 3-column triples TSV and optional labels TSV.

        Each file is read in chunks of about ``_CHUNK_CHARS`` characters of
        whole lines, and each chunk is parsed straight into interned string
        columns, so each repeated head, relation or tail is stored once and
        no per-row object is built. A line with the wrong number of
        tab-separated columns raises ``KgParseError`` naming it.
        """
        columns = _read_columns(triples_file, 3)
        labels = zip(*_read_columns(labels_file, 2)) if labels_file is not None else ()
        kg = cls()
        kg._add(*columns, labels)
        return kg

    def save(self, triples_file: str | Path) -> None:
        """Write the triples back as TSV; reload yields identical triples.

        Raises ``ValueError`` naming the first triple with a tab or line
        break in a field, which the format cannot hold, before the file is
        opened.
        """
        for triple_id, row in enumerate(zip(self._heads, self._relations, self._tails)):
            if _SEPARATORS_RE.search("".join(map(str, row))):
                raise ValueError(
                    f"triple {triple_id} {row!r} has a tab or line break in a field; "
                    "the triples TSV cannot hold it"
                )
        with open(triples_file, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(
                f"{h}\t{r}\t{t}\n" for h, r, t in zip(self._heads, self._relations, self._tails)
            )

    def extended(
        self,
        extra_triples: Iterable[tuple[str, str, str]],
        extra_labels: Iterable[tuple[str, str]] = (),
    ) -> "KnowledgeGraph":
        """An overlay KG with extra triples and labels appended (see the class doc).

        A label for an entity that already has one becomes an alias only.
        """
        heads, relations, tails = _columns(extra_triples)
        grown = object.__new__(type(self))
        grown._heads = _Stacked(self._heads)
        grown._relations = _Stacked(self._relations)
        grown._tails = _Stacked(self._tails)
        grown.labels = ChainMap({}, self.labels)
        grown._aliases = ChainMap({}, self._aliases)
        grown._max_alias_len = self._max_alias_len
        grown.head_index = ChainMap({}, self.head_index)
        grown._head_arrays = {}
        grown._add(heads, relations, tails, extra_labels)
        return grown

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._heads)

    def triple(self, triple_id: int) -> Triple:
        """The triple with this id; a negative id counts from the end, as on a list."""
        if triple_id < 0:
            triple_id += len(self._heads)
            if triple_id < 0:
                raise IndexError("triple id out of range")
        # tuple.__new__ skips the NamedTuple's Python-level __new__, the
        # dearest part of this call
        return _new_tuple(Triple, (
            triple_id, self._heads[triple_id], self._relations[triple_id], self._tails[triple_id],
        ))

    def has_triple(self, triple_id) -> bool:
        # bool is an int subclass, but a JSON true/false is not a triple id
        return type(triple_id) is int and 0 <= triple_id < len(self._heads)

    def label_of(self, entity_id: str) -> str:
        return self.labels.get(entity_id, entity_id)

    def resolve_label(self, surface: str) -> list[str]:
        """Entity ids whose primary label or alias equals normalize(surface)."""
        return list(self._aliases.get(normalize(surface), ()))

    def alias_index(self) -> dict[str, list[str]]:
        """Normalized surface form -> entity ids (read-only view for linking)."""
        return self._aliases

    def max_alias_len(self) -> int:
        """Length of the longest normalized alias; no longer span can match."""
        return self._max_alias_len

    def tail_entity(self, triple: Triple) -> Optional[str]:
        """The tail as an entity id, if it resolves to a known entity."""
        return triple.tail if triple.tail in self.labels else None

    def rows(self, triple_ids: Sequence[int]) -> Iterator[tuple[str, str, str]]:
        """The (head, relation, tail) of each id, in order, without building a ``Triple``.

        Ids must lie in ``[0, len(self))``.
        """
        return zip(*(
            map(column.__getitem__, triple_ids)
            for column in (self._heads, self._relations, self._tails)
        ))

    def one_hop_subgraph(self, anchors: Iterable[str]) -> Subgraph:
        """All triples whose head is in the anchor set."""
        heads = [a for a in dict.fromkeys(anchors) if a in self.head_index]
        if len(heads) == 1:
            # a head's ids ascend, so one anchor's array is sorted and distinct
            return Subgraph(self._head_ids(heads[0]))
        # distinct heads share no id, so their concatenation needs only a sort
        ids = np.concatenate([_NO_IDS, *map(self._head_ids, heads)])
        ids.sort()
        return Subgraph(ids)

    def _head_ids(self, head: str) -> np.ndarray:
        """The head's triple ids as a read-only ``np.intp`` array.

        The one writer of the hub cache: a head with more than
        ``HUB_MIN_IDS`` ids is cached on first use. ``setdefault`` keeps the
        first of two arrays built by threads that missed at once.
        """
        ids = self._head_arrays.get(head)
        if ids is None:
            listed = self.head_index[head]
            ids = np.fromiter(listed, dtype=np.intp, count=len(listed))
            ids.setflags(write=False)
            if len(listed) > HUB_MIN_IDS:
                ids = self._head_arrays.setdefault(head, ids)
        return ids


class _Stacked:
    """The base's column followed by the overlay's own; ``extend`` adds to the own.

    Indexes are non-negative: ``KnowledgeGraph.triple`` resolves a negative id
    before it reads a column.
    """

    __slots__ = ("base", "own")

    def __init__(self, base: "_Column"):
        self.base = base
        self.own: list[str] = []

    def extend(self, values: Iterable[str]) -> None:
        self.own.extend(values)

    def __len__(self) -> int:
        return len(self.base) + len(self.own)

    def __getitem__(self, i: int) -> str:
        n = len(self.base)
        return self.base[i] if i < n else self.own[i - n]

    def __iter__(self) -> Iterator[str]:
        return itertools.chain(self.base, self.own)


_Column = list[str] | _Stacked


class _Triples(Sequence):
    """A KG's rows as ``Triple``s, built as they are read."""

    __slots__ = ("_kg",)

    def __init__(self, kg: KnowledgeGraph):
        self._kg = kg

    def __len__(self) -> int:
        return len(self._kg)

    def __getitem__(self, i: int) -> Triple:
        return self._kg.triple(i)

    def __iter__(self) -> Iterator[Triple]:
        kg = self._kg
        return map(Triple, itertools.count(), kg._heads, kg._relations, kg._tails)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def _columns(rows: Iterable[tuple[str, str, str]]) -> tuple[list[str], list[str], list[str]]:
    """The heads, relations and tails of (head, relation, tail) rows."""
    heads, relations, tails = [], [], []
    for h, r, t in rows:
        heads.append(h)
        relations.append(r)
        tails.append(t)
    return heads, relations, tails


def _read_columns(path: str | Path, width: int) -> list[list[str]]:
    """The interned columns of a ``width``-column TSV file.

    A chunk of lines is checked line by line for ``width - 1`` tabs, then
    split in one call: with each line break made a tab, field ``k`` of every
    line sits at ``k``, ``k + width``, ... of the split. The text layer has
    already turned every CRLF or lone CR into a plain line break.
    """
    columns: list[list[str]] = [[] for _ in range(width)]
    tabs = width - 1
    line_no = 0
    with open(path, encoding="utf-8") as f:
        while lines := f.readlines(_CHUNK_CHARS):
            counts = list(map(str.count, lines, itertools.repeat("\t")))
            if counts.count(tabs) != len(lines):
                bad = next(i for i, count in enumerate(counts) if count != tabs)
                raise KgParseError(
                    str(path), line_no + bad + 1,
                    f"expected {width} tab-separated columns, got {counts[bad] + 1}",
                )
            fields = "".join(lines).replace("\n", "\t").split("\t")
            end = width * len(lines)  # drops the empty field after a final line break
            for k, column in enumerate(columns):
                column.extend(map(sys.intern, fields[k:end:width]))
            line_no += len(lines)
    return columns
