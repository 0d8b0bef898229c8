"""Immutable triple store with label/alias resolution and 1-hop subgraph extraction.

Triples are (head, relation, tail) with the head always a known entity id.
Tails may be entity ids, free text, or numbers. The store is read-only after
loading and safe to share across concurrent query evaluations.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

_NUMBER_RE = re.compile(r"^[+-]?\d+(\.\d+)?$")
_WS_RE = re.compile(r"\s+")


class KgParseError(ValueError):
    """Raised for malformed triple or label files, naming the offending line."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def normalize(surface: str) -> str:
    """Canonical form used for all name matching: NFC, lowercase, single spaces."""
    s = unicodedata.normalize("NFC", surface)
    return _WS_RE.sub(" ", s).strip().lower()


def parse_number(token: str) -> Optional[Decimal]:
    """Parse a tail/comparand as a number, or None if it is not one.

    Only a full match of optional sign, digits, optional decimal part counts;
    anything else is text.
    """
    if _NUMBER_RE.match(token):
        return Decimal(token)
    return None


class Triple(NamedTuple):
    """One immutable triple; a tuple, so a large KG stays small in memory."""

    id: int
    head: str
    relation: str
    tail: str


@dataclass(frozen=True)
class Subgraph:
    """Triples whose head lies in an anchor set."""

    triple_ids: frozenset[int]


class KnowledgeGraph:
    """Triple collection plus label, alias, and head indexes.

    Triple ids are insertion ordinals; duplicate content lines produce
    distinct triples so citations stay stable.
    """

    def __init__(
        self,
        triples: Iterable[tuple[str, str, str]] = (),
        labels: Iterable[tuple[str, str]] = (),
    ):
        self.triples: list[Triple] = [
            Triple(i, h, r, t) for i, (h, r, t) in enumerate(triples)
        ]
        self.labels: dict[str, str] = {}
        self._aliases: dict[str, list[str]] = {}
        self._max_alias_len = 0
        for entity_id, label in labels:
            if entity_id not in self.labels:
                self.labels[entity_id] = label
            self._add_alias(label, entity_id)
        self.head_index: dict[str, list[int]] = {}
        for t in self.triples:
            self.head_index.setdefault(t.head, []).append(t.id)
        # Heads without an explicit label act as their own label.
        for head in self.head_index:
            if head not in self.labels:
                self.labels[head] = head
                self._add_alias(head, head)
        self.entities: set[str] = set(self.labels)

    def _add_alias(self, surface: str, entity_id: str) -> None:
        key = normalize(surface)
        self._max_alias_len = max(self._max_alias_len, len(key))
        ids = self._aliases.setdefault(key, [])
        if entity_id not in ids:
            ids.append(entity_id)

    # -- loading / saving ----------------------------------------------------

    @classmethod
    def load(cls, triples_file: str | Path, labels_file: str | Path | None = None) -> "KnowledgeGraph":
        """Load a KG from the 3-column triples TSV and optional labels TSV.

        Column strings are interned, so each repeated head, relation or tail
        is stored once.
        """
        triples = []
        for line_no, line in enumerate(_read_lines(triples_file), start=1):
            cols = line.split("\t")
            if len(cols) != 3:
                raise KgParseError(
                    str(triples_file), line_no,
                    f"expected 3 tab-separated columns, got {len(cols)}",
                )
            triples.append(tuple(map(sys.intern, cols)))
        labels = []
        if labels_file is not None:
            for line_no, line in enumerate(_read_lines(labels_file), start=1):
                cols = line.split("\t")
                if len(cols) != 2:
                    raise KgParseError(
                        str(labels_file), line_no,
                        f"expected 2 tab-separated columns, got {len(cols)}",
                    )
                labels.append((cols[0], cols[1]))
        return cls(triples, labels)

    def save(self, triples_file: str | Path) -> None:
        """Write the triples back as TSV; reload yields identical triples."""
        with open(triples_file, "w", encoding="utf-8", newline="\n") as f:
            for t in self.triples:
                f.write(f"{t.head}\t{t.relation}\t{t.tail}\n")

    def extended(
        self,
        extra_triples: Iterable[tuple[str, str, str]],
        extra_labels: Iterable[tuple[str, str]] = (),
    ) -> "KnowledgeGraph":
        """A new KG with extra triples appended (the original is untouched)."""
        triples = [(t.head, t.relation, t.tail) for t in self.triples]
        triples.extend(extra_triples)
        labels = list(self.labels.items())
        for surface, ids in self._aliases.items():
            for entity_id in ids:
                if normalize(self.labels.get(entity_id, "")) != surface:
                    labels.append((entity_id, surface))
        labels.extend(extra_labels)
        return KnowledgeGraph(triples, labels)

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.triples)

    def triple(self, triple_id: int) -> Triple:
        return self.triples[triple_id]

    def has_triple(self, triple_id) -> bool:
        # bool is an int subclass, but a JSON true/false is not a triple id
        return type(triple_id) is int and 0 <= triple_id < len(self.triples)

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
        return triple.tail if triple.tail in self.entities else None

    def one_hop_subgraph(self, anchors: Iterable[str]) -> Subgraph:
        """All triples whose head is in the anchor set."""
        ids: set[int] = set()
        for a in anchors:
            ids.update(self.head_index.get(a, ()))
        return Subgraph(triple_ids=frozenset(ids))


def _read_lines(path: str | Path) -> Iterable[str]:
    with open(path, encoding="utf-8") as f:
        for line in f:
            yield line.rstrip("\n")
