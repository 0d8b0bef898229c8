"""Refute a claim by citing the triple that contradicts it.

The surfaced rule requires an age near 15; the KG says 45. One premise is
Violated with a citation, the conjunction collapses to False, and the
answer carries the contradicting triple in its trace.
"""

from groundedqa import (
    HashedEmbedder,
    KnowledgeGraph,
    Query,
    ScriptedBackend,
    answer_query,
    verify_trace,
)

kg = KnowledgeGraph(
    triples=[("Q1", "age", "45"), ("Q1", "citizenship", "Italy")],
    labels=[("Q1", "Virginia Raggi")],
)

backend = ScriptedBackend({
    "entity_extract": ["ENTITIES: Virginia Raggi"],
    "axiom": [
        "A quinceañera makes sense for a girl from Latin America whose age is near 15.\n"
        "AXIOM: is_from_Latin_America(Virginia_Raggi) AND age(Virginia_Raggi) < 20"
    ],
    "triple_select": ["SELECT: 1,2"],
    "judge": ["STATUS: UNKNOWN"],  # the KG is silent on where she is from
})

query = Query(
    text="It would make sense for Virginia Raggi to ask for a quinceañera.",
    task="claim",
)
result = answer_query(kg, HashedEmbedder(), backend, query)

print("claim:", query.text)
print("verdict:", result.answer.value)
print()
for step in result.trace.steps:
    if step["kind"] == "PremiseGrounding":
        p = step["payload"]
        print(f"  {p['premise']}: {p['status']}", end="")
        if p["evidence"]:
            tid = p["evidence"][0]
            t = kg.triple(tid)
            print(f"  <- triple {tid}: ({t.head}, {t.relation}, {t.tail})")
        else:
            print()

print()
print("verifier ok:", verify_trace(kg, result.trace.to_dict()).ok)
