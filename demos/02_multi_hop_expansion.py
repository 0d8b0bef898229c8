"""A two-hop question that needs a missing-evidence expansion.

The query only mentions Berlusconi, but the rule is about his first wife.
Grounding her birthplace against Berlusconi's one-hop triples comes back
Unknown, so the engine names the gap, adds the wife as a new anchor, pulls
in her triples, and settles the premise on the second pass.
"""

from groundedqa import (
    HashedEmbedder,
    KnowledgeGraph,
    Query,
    ScriptedBackend,
    SearchConfig,
    answer_query,
    verify_trace,
)

kg = KnowledgeGraph(
    triples=[
        ("Q_B", "first_wife", "Q_C"),
        ("Q_B", "occupation", "politician"),
        ("Q_C", "place_of_birth", "Bologna"),
        ("Q_C", "occupation", "actress"),
    ],
    labels=[("Q_B", "Silvio Berlusconi"), ("Q_C", "Carla Dalloglio")],
)

script = {
    "entity_extract": ["ENTITIES: Silvio Berlusconi"],
    "axiom": [
        "If his first wife's birthplace is Bologna, the answer is yes.\n"
        "AXIOM: place_of_birth(Carla_Dalloglio) = Bologna"
    ],
    "triple_select": ["SELECT: 1,2", "SELECT: 1,2"],
    "judge": ["STATUS: UNKNOWN"],
    "mei": ["MISSING: birthplace of the first wife\nENTITY: Carla Dalloglio"],
}

query = Query(text="Was Silvio Berlusconi's first wife born in Bologna?")
result = answer_query(kg, HashedEmbedder(), ScriptedBackend(script), query)

print("question:", query.text)
print("answer:", result.answer.value)
print()
for step in result.trace.steps:
    if step["kind"] == "MEI":
        print("gap identified:", step["payload"]["missing"])
        print("new anchor:", step["payload"]["resolved"])
    if step["kind"] == "Evaluation":
        print(f"evaluation at depth {step['depth']}: {step['payload']['value']}")

print()
print("verifier ok:", verify_trace(kg, result.trace.to_dict()).ok)

# Same question, but the gap description is unusable. With a single branch
# the engine has nowhere left to go and it abstains instead of guessing.
script_stuck = dict(script, mei=["I cannot tell."], triple_select=["SELECT: 1,2"])
stuck = answer_query(
    kg, HashedEmbedder(), ScriptedBackend(script_stuck), query,
    SearchConfig(max_breadth=1),
)
print()
print("with an unusable gap description:", stuck.answer.value)
