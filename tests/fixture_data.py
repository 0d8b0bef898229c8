"""Shared fixture KGs, scripts, and dataset items for the test suite.

Each scenario bundles a small KG, a scripted backend transcript, and the
expected outcome, so end-to-end tests, the acceptance suite, and the demo
scripts all draw from one place.
"""

from __future__ import annotations

import json
from pathlib import Path

from groundedqa import KnowledgeGraph

# -- scenario 1: single-hop, symbolically satisfied at depth 0 ---------------

ADULT_KG = KnowledgeGraph(
    triples=[
        ("Q1", "is_a_politician", "yes"),
        ("Q1", "age", "45"),
        ("Q1", "citizenship", "Italy"),
    ],
    labels=[("Q1", "Virginia Raggi")],
)

ADULT_QUERY = "Is Virginia Raggi an adult politician?"

ADULT_SCRIPT = {
    "entity_extract": ["ENTITIES: Virginia Raggi"],
    "axiom": [
        "Adults are at least 18 years old.\n"
        "AXIOM: is_a_politician(Virginia_Raggi) AND age(Virginia_Raggi) >= 18"
    ],
    "triple_select": ["SELECT: 1,2"],
}

# -- scenario 2: two-hop chain answered only after one expansion -------------

TWO_HOP_KG = KnowledgeGraph(
    triples=[
        ("Q_B", "first_wife", "Q_C"),
        ("Q_B", "occupation", "politician"),
        ("Q_C", "place_of_birth", "Bologna"),
        ("Q_C", "occupation", "actress"),
    ],
    labels=[("Q_B", "Silvio Berlusconi"), ("Q_C", "Carla Dalloglio")],
)

TWO_HOP_QUERY = "Was Silvio Berlusconi's first wife born in Bologna?"

TWO_HOP_SCRIPT = {
    "entity_extract": ["ENTITIES: Silvio Berlusconi"],
    "axiom": [
        "If his first wife's birthplace is Bologna, the answer is yes.\n"
        "AXIOM: place_of_birth(Carla_Dalloglio) = Bologna"
    ],
    "triple_select": ["SELECT: 1,2", "SELECT: 1,2"],
    "judge": ["STATUS: UNKNOWN"],
    "mei": ["MISSING: birthplace of the first wife\nENTITY: Carla Dalloglio"],
}

# Same scenario with the usable MEI line replaced by an undecipherable one:
# the branch cannot expand, so with breadth 1 the query ends Unknown.
TWO_HOP_SCRIPT_NO_MEI = {
    "entity_extract": ["ENTITIES: Silvio Berlusconi"],
    "axiom": TWO_HOP_SCRIPT["axiom"],
    "triple_select": ["SELECT: 1,2"],
    "judge": ["STATUS: UNKNOWN"],
    "mei": ["I cannot tell."],
}

# -- scenario 3: contradiction cited at depth 0 -------------------------------

QUINCE_KG = KnowledgeGraph(
    triples=[
        ("Q1", "age", "45"),
        ("Q1", "citizenship", "Italy"),
    ],
    labels=[("Q1", "Virginia Raggi")],
)

QUINCE_QUERY = "Would it make sense for Virginia Raggi to ask for a quinceañera?"

QUINCE_SCRIPT = {
    "entity_extract": ["ENTITIES: Virginia Raggi"],
    "axiom": [
        "A quinceañera makes sense for a girl from Latin America whose age is near 15.\n"
        "AXIOM: is_from_Latin_America(Virginia_Raggi) AND age(Virginia_Raggi) < 20"
    ],
    "triple_select": ["SELECT: 1,2"],
    "judge": ["STATUS: UNKNOWN"],
}

# -- scenario 4: preference matching with a personal-KG veto ------------------

PREFERENCE_SHARED_KG = KnowledgeGraph(
    triples=[
        ("R1", "main_ingredient", "pork"),
        ("R1", "contains_ingredient", "garlic"),
        ("R1", "preparation", "pulled"),
        ("R2", "main_ingredient", "pork"),
        ("R2", "preparation", "pulled"),
    ],
    labels=[
        ("R1", "Pulled Pork in a Crockpot with garlic"),
        ("R2", "Shredded barbecued pork shoulder"),
    ],
)

PERSONAL_KG_TRIPLES = [
    ("Sam", "medical_condition", "allium allergy"),
    ("Sam", "age", "29"),
]

PREFERENCE_KG = PREFERENCE_SHARED_KG.extended(PERSONAL_KG_TRIPLES)

PREFERENCE_QUERY = "Sam: I like eating pulled meats, but not beef or chicken."

PREFERENCE_OPTIONS = (
    "Pulled Pork in a Crockpot with garlic and orange juice",
    "Shredded barbecued pork shoulder",
)

PREFERENCE_GOLD = 1  # the distractor (option 0) violates the allium allergy

PREFERENCE_SCRIPT = {
    # one linking answer per item, shared by both options
    "entity_extract": [
        "ENTITIES: Sam; Pulled Pork in a Crockpot with garlic; Shredded barbecued pork shoulder",
    ],
    "axiom": [
        "The dish must be pulled and must not conflict with Sam's allergies.\n"
        "AXIOM: preparation(Pulled_Pork_in_a_Crockpot_with_garlic) = pulled"
        " AND medical_condition(Sam) != allium_allergy",
        "The dish must be pulled and its main ingredient must not be beef.\n"
        "AXIOM: preparation(Shredded_barbecued_pork_shoulder) = pulled"
        " AND main_ingredient(Shredded_barbecued_pork_shoulder) != beef",
    ],
    "triple_select": ["SELECT: 1", "SELECT: 1"],
}

# -- scenario 5: unknown everywhere (for eval metrics) ------------------------

UNKNOWN_SCRIPT = {
    "entity_extract": ["ENTITIES: Silvio Berlusconi"],
    "axiom": [
        "If he won a Nobel prize the answer is yes.\n"
        "AXIOM: nobel_prize(Silvio_Berlusconi) = physics",
        "No usable rule comes to mind.",
    ],
    "triple_select": ["SELECT:"],
    "judge": ["STATUS: UNKNOWN"],
    "mei": ["ENTITY only, nothing else"],
}

UNKNOWN_QUERY = "Did Silvio Berlusconi win the Nobel prize in physics?"


def merge_scripts(*scripts: dict) -> dict:
    """Concatenate role lists in order, for multi-item eval runs."""
    merged: dict[str, list[str]] = {}
    for script in scripts:
        for role, lines in script.items():
            merged.setdefault(role, []).extend(lines)
    return merged


def write_eval_fixture(tmp_path: Path) -> tuple[Path, Path, Path, dict]:
    """A 4-item dataset (3 correct, 1 Unknown) over the two-hop KG.

    Returns (dataset_path, triples_path, labels_path, script). Items carry
    their own kg_ref / personal_kg where the shared KG does not apply.
    """
    kg_dir = tmp_path / "kg"
    kg_dir.mkdir(exist_ok=True)
    two_hop_triples = kg_dir / "two_hop.tsv"
    TWO_HOP_KG.save(two_hop_triples)
    two_hop_labels = kg_dir / "two_hop_labels.tsv"
    two_hop_labels.write_text(
        "Q_B\tSilvio Berlusconi\nQ_C\tCarla Dalloglio\n", encoding="utf-8"
    )

    adult_triples = kg_dir / "adult.tsv"
    ADULT_KG.save(adult_triples)
    quince_triples = kg_dir / "quince.tsv"
    QUINCE_KG.save(quince_triples)
    pref_triples = kg_dir / "preference.tsv"
    PREFERENCE_SHARED_KG.save(pref_triples)

    # kg_ref points at bare triples files; heads then act as their own labels,
    # so per-item queries use the raw ids as surface forms.
    items = [
        {
            "id": "adult-1", "task": "qa",
            "query": "Is Q1 an adult politician?", "gold": "Yes",
            "kg_ref": str(adult_triples),
        },
        {
            "id": "quince-1", "task": "claim",
            "query": "It would make sense for Q1 to ask for a quinceañera.",
            "gold": "Incorrect",
            "kg_ref": str(quince_triples),
        },
        {
            "id": "twohop-1", "task": "qa",
            "query": "Was Q_B's first wife born in Bologna?", "gold": "Yes",
            "kg_ref": str(two_hop_triples),
        },
        {
            "id": "nobel-1", "task": "qa",
            "query": "Did Q_B win the Nobel prize in physics?", "gold": "No",
            "kg_ref": str(two_hop_triples),
        },
    ]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(
        "".join(json.dumps(item) + "\n" for item in items), encoding="utf-8",
    )

    # Queries use raw ids, so scripted entity names must as well.
    def with_ids(script, mapping):
        fixed = {}
        for role, lines in script.items():
            fixed[role] = [_replace_all(line, mapping) for line in lines]
        return fixed

    names_to_ids = {
        "Virginia Raggi": "Q1",
        "Virginia_Raggi": "Q1",
        "Silvio Berlusconi": "Q_B",
        "Silvio_Berlusconi": "Q_B",
        "Carla Dalloglio": "Q_C",
        "Carla_Dalloglio": "Q_C",
    }
    script = merge_scripts(
        with_ids(ADULT_SCRIPT, names_to_ids),
        with_ids(QUINCE_SCRIPT, names_to_ids),
        with_ids(TWO_HOP_SCRIPT, names_to_ids),
        with_ids(UNKNOWN_SCRIPT, names_to_ids),
    )
    return dataset, two_hop_triples, two_hop_labels, script


def _replace_all(text: str, mapping: dict[str, str]) -> str:
    for old, new in mapping.items():
        text = text.replace(old, new)
    return text
