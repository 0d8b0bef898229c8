"""Answer a yes/no question in one hop, then inspect the trace.

The LLM is played by a scripted backend so the run is fully reproducible:
it extracts the entity, proposes a rule, and picks triples; the engine
grounds both premises symbolically against the KG and answers True.
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
    triples=[
        ("Q1", "is_a_politician", "yes"),
        ("Q1", "age", "45"),
        ("Q1", "citizenship", "Italy"),
    ],
    labels=[("Q1", "Virginia Raggi")],
)

backend = ScriptedBackend({
    "entity_extract": ["ENTITIES: Virginia Raggi"],
    "axiom": [
        "Adults are at least 18 years old.\n"
        "AXIOM: is_a_politician(Virginia_Raggi) AND age(Virginia_Raggi) >= 18"
    ],
    "triple_select": ["SELECT: 1,2"],
})

query = Query(text="Is Virginia Raggi an adult politician?")
result = answer_query(kg, HashedEmbedder(), backend, query)

print("question:", query.text)
print("answer:", result.answer.value)
print()
print("trace steps:")
for step in result.trace.steps:
    print(f"  [{step['seq']}] {step['kind']} (branch={step['branch']}, depth={step['depth']})")
    if step["kind"] == "PremiseGrounding":
        p = step["payload"]
        print(f"        {p['premise']} -> {p['status']} citing triples {p['evidence']}")

report = verify_trace(kg, result.trace.to_dict())
print()
print("verifier ok:", report.ok)
print("grounding precision:", report.grounding_precision)
