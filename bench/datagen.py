"""Seeded synthetic knowledge graphs, datasets and answer plans.

``generate(workload, seed, out_dir)`` writes the files the program reads
through its public loaders (``kg.tsv``, ``labels.tsv`` and dataset JSONL)
and returns, in memory, the plan the rule-based responder follows and the
answer each item must get. Expected answers come from the facts the
generator wrote, never from a run of the engine.

Every random choice draws from ``random.Random`` seeded with a string made
of the seed and a purpose, so the same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WORKLOADS = ("qa_hub", "qa_sparse", "pref_eval", "baseline_rr")

# KG size per workload. qa_hub and qa_sparse share one KG: four hubs with
# ~4e3 out-triples each plus 1e4 ordinary entities, ~9.4e4 triples and
# ~1.2e4 aliases in all. Hubs are sized so that 100 hub items, each scoring
# one or two hub subgraphs, fit in about 20 s on a 2-core machine.
# pref_eval's base KG (~2.2e4 triples) is large enough that the per-item
# ``extended`` rebuild dominates; baseline_rr's (~6e3) keeps a whole-KG item
# near 0.15 s.
KG_SIZES = {
    "qa": {"hubs": 4, "hub_bulk": 4_000, "entities": 10_000},
    "pref": {"hubs": 0, "hub_bulk": 0, "entities": 2_800},
    "baseline": {"hubs": 0, "hub_bulk": 0, "entities": 800},
}
KG_OF = {"qa_hub": "qa", "qa_sparse": "qa", "pref_eval": "pref", "baseline_rr": "baseline"}

# Items generated per run, several times what a run uses today so that a
# faster engine does not run out; a run stops when its time is up. Each
# pref_eval JSONL chunk is one ``run_eval`` call.
ITEM_COUNTS = {"qa_hub": 3_000, "qa_sparse": 6_000, "pref_eval": 3_000, "baseline_rr": 3_000}
PREF_CHUNK = 20

_SYLLABLES = (
    "ka lo mi ra ven tor bel sa nu dri fen gal hom jor kel lum mar nor pel "
    "quo rin sul tav vor wen zel bru cor dax eth fio gur hal ith jun kro "
    "lys mov nek osk pry qua rud syl tek uth vex wyn yor zan"
).split()

ORG_NUMERIC = (
    "founding year", "employee count", "branch count", "fleet size",
    "patent count", "office count", "board size", "depot count",
    "warehouse count", "charter year", "audit score", "member count",
)
PERSON_NUMERIC = (
    "age", "height", "shoe size", "birth month", "jersey number", "chess rating",
)
NUMERIC_RANGE = {
    "founding year": (1800, 2020), "charter year": (1800, 2020),
    "employee count": (5, 50_000), "member count": (10, 90_000),
    "audit score": (1, 100), "age": (18, 95), "height": (150, 200),
    "shoe size": (35, 48), "birth month": (1, 12), "jersey number": (1, 99),
    "chess rating": (800, 2800),
}
_DEFAULT_RANGE = (1, 400)
_NUMERIC = frozenset(ORG_NUMERIC + PERSON_NUMERIC)
SECTORS = (
    "mining", "farming", "shipping", "banking", "textiles", "software",
    "brewing", "forestry", "printing", "fishing", "tourism", "pottery",
)
OCCUPATIONS = (
    "painter", "welder", "baker", "pilot", "nurse", "tailor", "surveyor",
    "librarian", "plumber", "chemist", "jeweller", "cartographer",
)
ACTIVITIES = (
    "hiking", "jazz", "chess", "sailing", "cycling", "painting", "fishing",
    "opera", "baking", "climbing", "knitting", "rowing", "tennis", "poetry",
    "gardening", "birding", "dancing", "archery", "skating", "karaoke",
)
AWARDS = ("gold", "silver", "harbour", "river", "summit", "lantern", "meridian", "anvil")
HUB_OFFICERS = (
    "chief executive", "chair", "treasurer", "auditor", "legal counsel",
    "chief engineer", "press officer", "archivist", "secretary", "ombudsman",
)
HUB_BULK_ENTITY = ("lists member", "holds stake in", "supplies", "sponsors")


@dataclass
class Entity:
    id: str
    label: str
    kind: str  # "org" | "person" | "hub"
    alias: Optional[str] = None
    facts: dict[str, str] = field(default_factory=dict)  # single-valued relation -> tail


@dataclass
class Plan:
    """What the responder knows about one query (its world knowledge).

    ``axioms`` maps the option text (``None`` outside multiple choice) to the
    response for each successive branch; an empty string stands for a
    response with no ``AXIOM`` line. ``judge`` maps a premise to
    ``(subject label, relation, tail, verdict)``, where the verdict is
    ``SATISFIED``, ``VIOLATED`` or ``UNCITED`` (a verdict without evidence).
    ``mei`` maps a premise to the entity name to report as missing evidence.
    ``baseline`` is ``(subject label, relation, tail, reply)``.
    """

    entities: list[str]
    axioms: dict[Optional[str], list[str]]
    judge: dict[str, tuple[str, str, str, str]] = field(default_factory=dict)
    mei: dict[str, str] = field(default_factory=dict)
    baseline: Optional[tuple[str, str, str, str]] = None


@dataclass
class Item:
    id: str
    task: str  # dataset task: "qa" | "claim" | "preference"
    query: str
    gold: object
    expected: tuple[str, Optional[int]]  # (answer value, selected_option)
    kind: str
    options: tuple[str, ...] = ()
    personal_kg: tuple[tuple[str, str, str], ...] = ()


@dataclass
class Generated:
    kg_file: Path
    labels_file: Path
    dataset_files: list[Path]
    items: list[Item]
    plans: dict[str, Plan]  # query text -> plan
    triples: int


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"groundedqa-bench:{seed}:{purpose}")


class _Names:
    """Unique two-word synthetic names that never collide with English words."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        n = self.rng.choice((2, 2, 3))
        return "".join(self.rng.choice(_SYLLABLES) for _ in range(n)).capitalize()

    def name(self) -> str:
        while True:
            name = f"{self.word()} {self.word()}"
            if name.lower() not in self.used:
                self.used.add(name.lower())
                return name


def _us(label: str) -> str:
    return label.replace(" ", "_")


class _Kg:
    def __init__(self, kind: str, seed: int, scale: float):
        sizes = KG_SIZES[kind]
        rng = _rng(seed, f"kg:{kind}")
        self.names = _Names(rng)
        self.rng = rng
        self.triples: list[tuple[str, str, str]] = []
        self.entities: list[Entity] = []
        n = max(40, int(sizes["entities"] * scale))
        for i in range(n):
            kind_i = "org" if i % 2 == 0 else "person"
            self.entities.append(self._new(f"E{i:06d}", kind_i))
        self.orgs = [e for e in self.entities if e.kind == "org"]
        self.persons = [e for e in self.entities if e.kind == "person"]
        for e in self.entities:
            self._ordinary_facts(e)
        self.hubs: list[Entity] = []
        for h in range(sizes["hubs"]):
            self.hubs.append(self._hub(f"H{h:03d}", max(50, int(sizes["hub_bulk"] * scale))))

    def _new(self, entity_id: str, kind: str) -> Entity:
        e = Entity(entity_id, self.names.name(), kind)
        if self.rng.random() < 0.2:
            e.alias = self.names.name()
        return e

    def _add(self, e: Entity, relation: str, tail: str, single: bool = True) -> None:
        self.triples.append((e.id, relation, tail))
        if single:
            e.facts[relation] = tail

    def _number(self, relation: str) -> str:
        lo, hi = NUMERIC_RANGE.get(relation, _DEFAULT_RANGE)
        return str(self.rng.randint(lo, hi))

    def _ordinary_facts(self, e: Entity) -> None:
        rng = self.rng
        # At most 9 out-triples each, so one top-10 pruning round takes them all.
        if e.kind == "org":
            for rel in rng.sample(ORG_NUMERIC, 4):
                self._add(e, rel, self._number(rel))
            self._add(e, "sector", rng.choice(SECTORS))
            self._add(e, "founded by", rng.choice(self.persons).id)
            for partner in rng.sample(self.orgs, rng.randint(1, 3)):
                self._add(e, "partner of", partner.id, single=False)
        else:
            for rel in rng.sample(PERSON_NUMERIC, 4):
                self._add(e, rel, self._number(rel))
            self._add(e, "occupation", rng.choice(OCCUPATIONS))
            self._add(e, "member of", rng.choice(self.orgs).id)
            for friend in rng.sample(self.persons, rng.randint(1, 2)):
                self._add(e, "friend of", friend.id, single=False)

    def _hub(self, hub_id: str, bulk: int) -> Entity:
        rng = self.rng
        hub = self._new(hub_id, "hub")
        for rel in ORG_NUMERIC:
            self._add(hub, rel, self._number(rel))
        for rel, person in zip(HUB_OFFICERS, rng.sample(self.persons, len(HUB_OFFICERS))):
            self._add(hub, rel, person.id)
        for _ in range(bulk):
            r = rng.random()
            if r < 0.6:
                self._add(hub, rng.choice(HUB_BULK_ENTITY), rng.choice(self.entities).id, single=False)
            elif r < 0.8:
                self._add(hub, "catalog entry", self.names.word().lower(), single=False)
            else:
                self._add(hub, "ledger amount", str(rng.randint(100_000, 999_999)), single=False)
        return hub

    def by_id(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities + self.hubs}

    def write(self, out_dir: Path) -> tuple[Path, Path]:
        kg_file, labels_file = out_dir / "kg.tsv", out_dir / "labels.tsv"
        with open(kg_file, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in self.triples)
        with open(labels_file, "w", encoding="utf-8", newline="\n") as f:
            for e in self.entities + self.hubs:
                f.write(f"{e.id}\t{e.label}\n")
                if e.alias:
                    f.write(f"{e.id}\t{e.alias}\n")
        return kg_file, labels_file


# -- items ---------------------------------------------------------------


def _axiom_response(sentence: str, axiom: str) -> str:
    return f"{sentence}\nAXIOM: {axiom}"


def _threshold(rng: random.Random, value: int, relation: str) -> int:
    lo, hi = NUMERIC_RANGE.get(relation, _DEFAULT_RANGE)
    span = max(2, (hi - lo) // 5)
    while True:
        t = value + rng.randint(-span, span)
        if t != value and t > 0:
            return t


def _numeric_query(rng, label: str, relation: str, value: int, phrase: str,
                   task: Optional[str] = None):
    """(query text, task, op, threshold, truth) for a comparison on one fact."""
    t = _threshold(rng, value, relation)
    at_least = rng.random() < 0.5
    op, words = (">=", "at least") if at_least else ("<", "below")
    truth = value >= t if at_least else value < t
    task = task or rng.choice(("qa", "claim"))
    if task == "qa":
        return f"Is the {phrase} of {label} {words} {t}?", task, op, t, truth
    return f"The {phrase} of {label} is {words} {t}.", task, op, t, truth


def _gold(task: str, truth: bool) -> str:
    if task == "qa":
        return "Yes" if truth else "No"
    return "Correct" if truth else "Incorrect"


def _name_for(rng: random.Random, e: Entity) -> str:
    """The name the LLM stand-in reports: the label, sometimes the alias."""
    return e.alias if e.alias and rng.random() < 0.3 else e.label


def _hub_items(kg: _Kg, seed: int, n: int) -> tuple[list[Item], dict[str, Plan]]:
    """Queries anchored on a few hubs, picked with a Zipf-like skew.

    Four in ten items ask about an officer of the hub, so they need one MEI
    expansion; the rest compare one numeric fact of the hub itself. The
    fixed share keeps the per-item time distribution the same across seeds.
    """
    rng = _rng(seed, "items:qa_hub")
    weights = [1.0 / (i + 1) for i in range(len(kg.hubs))]
    by_id = kg.by_id()
    items, plans = [], {}
    kinds = ["two_hop"] * 4 + ["one_hop"] * 6
    while len(items) < n:
        rng.shuffle(kinds)
        for kind in kinds:
            hub = rng.choices(kg.hubs, weights)[0]
            if kind == "one_hop":
                subject = hub
                rel = rng.choice(ORG_NUMERIC)
                value, phrase = int(hub.facts[rel]), rel
            else:
                officer = rng.choice(HUB_OFFICERS)
                subject = by_id[hub.facts[officer]]
                rel, value = _numeric_fact(rng, subject)
                phrase = f"{rel} of the {officer}"
            text, task, op, t, truth = _numeric_query(rng, hub.label, rel, value, phrase)
            if text in plans:
                continue
            axiom = f"{_us(rel)}({_us(subject.label)}) {op} {t}"
            plan = Plan(
                entities=[_name_for(rng, hub)],
                axioms={None: [_axiom_response(f"The answer follows from the {rel} of {subject.label}.", axiom)]},
            )
            if kind == "two_hop":
                plan.mei[axiom] = _name_for(rng, subject)
            items.append(Item(f"hub{len(items):05d}", task, text, _gold(task, truth),
                              ("True" if truth else "False", None), kind))
            plans[text] = plan
    return items[:n], plans


def _sparse_items(kg: _Kg, seed: int, n: int) -> tuple[list[Item], dict[str, Plan]]:
    """One distinct low-degree anchor per query, over a fixed mix of shapes.

    Per ten items: three single-hop symbolic, two single-hop judged, two
    two-hop (one MEI expansion), one whose first response has no AXIOM line,
    one whose first branch gets an uncited judge verdict and an unresolvable
    MEI name, and one with no evidence at all (expected Unknown).
    """
    rng = _rng(seed, "items:qa_sparse")
    by_id = kg.by_id()
    anchors = list(kg.entities)
    rng.shuffle(anchors)
    kinds = (["one_hop"] * 3 + ["judge"] * 2 + ["two_hop"] * 2
             + ["no_axiom", "uncited", "no_evidence"])
    items, plans = [], {}
    pool = iter(anchors)
    while len(items) < n:
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            x = next(pool, None)
            if x is None:
                return items, plans
            item, plan = _sparse_item(rng, by_id, x, kind, len(items))
            if item.query not in plans:
                items.append(item)
                plans[item.query] = plan
    return items[:n], plans


def _numeric_fact(rng, e: Entity) -> tuple[str, int]:
    rels = sorted(r for r in e.facts if r in _NUMERIC)
    rel = rng.choice(rels)
    return rel, int(e.facts[rel])


def _symbolic_branch(rng, x: Entity) -> tuple[str, str, str, bool]:
    """(query, task, axiom response, truth) for a comparison on a numeric fact of x."""
    rel, value = _numeric_fact(rng, x)
    text, task, op, t, truth = _numeric_query(rng, x.label, rel, value, rel)
    axiom = f"{_us(rel)}({_us(x.label)}) {op} {t}"
    return text, task, _axiom_response(f"It depends on the {rel} of {x.label}.", axiom), truth


def _text_fact(x: Entity) -> tuple[str, str, tuple[str, ...], str]:
    if x.kind == "org":
        return "sector", x.facts["sector"], SECTORS, "in_{}_sector"
    return "occupation", x.facts["occupation"], OCCUPATIONS, "works_as_{}"


def _sparse_item(rng, by_id, x: Entity, kind: str, index: int) -> tuple[Item, Plan]:
    item_id = f"sparse{index:05d}"
    names = [_name_for(rng, x)]
    if kind in ("one_hop", "no_axiom"):
        text, task, response, truth = _symbolic_branch(rng, x)
        axioms = [response] if kind == "one_hop" else ["", response]
        plan = Plan(entities=names, axioms={None: axioms})
    elif kind in ("judge", "uncited"):
        rel, value, choices, pattern = _text_fact(x)
        asked = value if rng.random() < 0.5 else rng.choice([c for c in choices if c != value])
        premise = f"{pattern.format(asked)}({_us(x.label)})"
        first = _axiom_response(f"{x.label} would need a {rel} of {asked}.", premise)
        if kind == "judge":
            truth = asked == value
            task = rng.choice(("qa", "claim"))
            text = (f"Is the {rel} of {x.label} {asked}?" if task == "qa"
                    else f"The {rel} of {x.label} is {asked}.")
            verdict = "SATISFIED" if truth else "VIOLATED"
            plan = Plan(entities=names, axioms={None: [first]},
                        judge={premise: (x.label, rel, value, verdict)})
        else:
            text, task, response, truth = _symbolic_branch(rng, x)
            plan = Plan(entities=names, axioms={None: [first, response]},
                        judge={premise: (x.label, rel, value, "UNCITED")},
                        mei={premise: "Nobody Ofnote"})
    elif kind == "two_hop":
        link = "founded by" if x.kind == "org" else "member of"
        y = by_id[x.facts[link]]
        rel, value = _numeric_fact(rng, y)
        phrase = f"{rel} of the {'founder' if x.kind == 'org' else 'organisation'}"
        text, task, op, t, truth = _numeric_query(rng, x.label, rel, value, phrase)
        axiom = f"{_us(rel)}({_us(y.label)}) {op} {t}"
        plan = Plan(entities=names,
                    axioms={None: [_axiom_response(f"It depends on the {rel} of {y.label}.", axiom)]},
                    mei={axiom: _name_for(rng, y)})
    else:  # no_evidence
        award = rng.choice(AWARDS)
        text = f"Has {x.label} ever received the {award} award?"
        task, truth = "qa", False
        axioms = [
            _axiom_response(f"{x.label} would have won the {award} award.", f"won_{award}_award({_us(x.label)})"),
            _axiom_response(f"{x.label} would hold the {award} award.", f"holds_{award}_award({_us(x.label)})"),
        ]
        plan = Plan(entities=names, axioms={None: axioms})
        item = Item(item_id, task, text, _gold(task, truth), ("Unknown", None), kind)
        return item, plan
    return Item(item_id, task, text, _gold(task, truth), ("True" if truth else "False", None), kind), plan


def _pref_items(kg: _Kg, seed: int, n: int) -> tuple[list[Item], dict[str, Plan]]:
    """Multiple-choice items, each with a personal KG for a new user.

    The user likes exactly one of three options; the expected selection is
    that option's index, each index once per three items in seeded order.
    """
    rng = _rng(seed, "items:pref_eval")
    names = _Names(rng)
    names.used = set(kg.names.used)
    items, plans = [], {}
    golds: list[int] = []
    while len(items) < n:
        if not golds:
            golds = rng.sample(range(3), 3)
        gold = golds.pop()
        user = names.name()
        acts = rng.sample(ACTIVITIES, 6)
        options_acts, extra_like, dislike = acts[:3], acts[3], acts[4]
        personal = (
            (user, "likes", options_acts[gold]),
            (user, "likes", extra_like),
            (user, "dislikes", dislike),
            (user, "age", str(rng.randint(18, 90))),
            (user, "lives near", rng.choice(kg.orgs).id),
        )
        options = tuple(f"an afternoon of {a}" for a in options_acts)
        text = f"Which of these would {user} enjoy most?"
        axioms = {
            opt: [_axiom_response(f"{user} would enjoy {act} if {user} likes it.",
                                  f'likes({_us(user)}) = "{act}"')]
            for opt, act in zip(options, options_acts)
        }
        plans[text] = Plan(entities=[user], axioms=axioms)
        items.append(Item(f"pref{len(items):05d}", "preference", text, gold, ("True", gold),
                          "preference", options, personal))
    return items, plans


def _baseline_items(kg: _Kg, seed: int, n: int) -> tuple[list[Item], dict[str, Plan]]:
    """Yes/no questions on the sector of an org or the occupation of a person.

    Half ask about the true value. Text facts keep the evidence triple among
    the k nearest to the question under the hashed embedding; numeric
    comparisons phrased in prose do not, because words like "of" and the
    threshold number match thousands of unrelated triples.
    """
    rng = _rng(seed, "items:baseline_rr")
    items, plans = [], {}
    while len(items) < n:
        x = rng.choice(kg.entities)
        rel, value, choices, _ = _text_fact(x)
        asked = value if rng.random() < 0.5 else rng.choice([c for c in choices if c != value])
        text = (f"Is {x.label} in the {asked} sector?" if x.kind == "org"
                else f"Does {x.label} have the occupation {asked}?")
        if text in plans:
            continue
        truth = asked == value
        plans[text] = Plan(entities=[], axioms={},
                           baseline=(x.label, rel, value, "Yes." if truth else "No."))
        items.append(Item(f"base{len(items):05d}", "qa", text, _gold("qa", truth),
                          ("True" if truth else "False", None), "baseline"))
    return items, plans


_ITEM_MAKERS = {
    "qa_hub": _hub_items,
    "qa_sparse": _sparse_items,
    "pref_eval": _pref_items,
    "baseline_rr": _baseline_items,
}


def _dataset_line(item: Item) -> str:
    raw = {"id": item.id, "task": item.task, "query": item.query, "gold": item.gold}
    if item.options:
        raw["options"] = list(item.options)
    if item.personal_kg:
        raw["personal_kg"] = [list(t) for t in item.personal_kg]
    return json.dumps(raw, sort_keys=True, ensure_ascii=False) + "\n"


def generate(workload: str, seed: int, out_dir: str | Path, scale: float = 1.0,
             n_items: Optional[int] = None) -> Generated:
    """Write the workload's KG, labels and dataset files under ``out_dir``.

    ``scale`` shrinks the KG and ``n_items`` the item count (both for tests);
    the defaults are the benchmark's sizes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kg = _Kg(KG_OF[workload], seed, scale)
    kg_file, labels_file = kg.write(out_dir)
    items, plans = _ITEM_MAKERS[workload](kg, seed, n_items or ITEM_COUNTS[workload])
    chunk = PREF_CHUNK if workload == "pref_eval" else len(items)
    files = []
    for start in range(0, len(items), chunk):
        path = out_dir / f"dataset_{start // chunk:04d}.jsonl"
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(_dataset_line(item) for item in items[start:start + chunk])
        files.append(path)
    return Generated(kg_file, labels_file, files, items, plans, len(kg.triples))
