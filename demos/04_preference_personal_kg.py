"""Preference matching with a personal KG veto.

Two pulled-pork recipes fit the stated preference. The first is rejected
because Sam's personal KG records an allium allergy and the recipe contains
garlic; the second satisfies its rule and gets selected. Options are tried
in order and the first fully satisfied one wins.
"""

from groundedqa import (
    HashedEmbedder,
    KnowledgeGraph,
    Query,
    ScriptedBackend,
    answer_multiple_choice,
    verify_trace,
)

shared_kg = KnowledgeGraph(
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

# per-user facts merged on top of the shared KG
kg = shared_kg.extended([
    ("Sam", "medical_condition", "allium allergy"),
    ("Sam", "age", "29"),
])

backend = ScriptedBackend({
    # linking runs once per query, so one answer serves both options
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
})

options = (
    "Pulled Pork in a Crockpot with garlic and orange juice",
    "Shredded barbecued pork shoulder",
)
query = Query(
    text="Sam: I like eating pulled meats, but not beef or chicken.",
    options=options,
    task="multiple_choice",
)
result = answer_multiple_choice(kg, HashedEmbedder(), backend, query)

for step in result.trace.steps:
    if step["kind"] == "OptionResult":
        print(f"option {step['payload']['option']}: {step['payload']['value']}"
              f"  ({options[step['payload']['option']]})")
    if step["kind"] == "PremiseGrounding" and step["payload"]["status"] == "Violated":
        tid = step["payload"]["evidence"][0]
        t = kg.triple(tid)
        print(f"  vetoed by personal fact: ({t.head}, {t.relation}, {t.tail})")

print()
print("selected option:", result.answer.selected_option)
print("verifier ok:", verify_trace(kg, result.trace.to_dict()).ok)
