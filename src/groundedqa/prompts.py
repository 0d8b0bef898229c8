"""Prompt templates for every LLM role.

Templates are original content (no upstream prompts exist to reuse). Each
one states the task, gives a short worked example, and pins the exact
response line format that the parsers in :mod:`groundedqa.llm` expect.
Rendering is deterministic; numbered triple lists are 1-based, in triple-id
order for the engine's roles and in distance order for the baseline.
"""

from __future__ import annotations

from typing import Mapping


class PromptContextError(KeyError):
    """A template field required by the role is missing from the context."""


_TEMPLATES = {
    "entity_extract": """\
Identify the named entities that the question or claim is about. List only \
entities that facts could be looked up for; ignore generic concepts.

Example:
Question: Do I need separate visas to see the Venus of Willendorf and attend the Olympics this summer?
ENTITIES: Venus of Willendorf; 2024 Summer Olympics

Respond with exactly one line in the form:
ENTITIES: name; name; ...

Question: {query}
""",
    "axiom": """\
State one commonsense rule that would decide the answer to the query, as a \
single sentence followed by its structured form. The structured form is a \
disjunction of conjunctive premises: predicates `name(Entity_Ref)` and \
functions `name(Entity_Ref) op literal` with op in = != < <= > >=. Use crisp \
operators only, underscores for spaces in names, and double quotes for string \
literals.

Example:
Query: Would it make sense for Virginia Raggi to ask for a quinceañera?
If Virginia Raggi is a girl from Latin America and her age is near 15, it would make sense for her to ask for a quinceañera.
AXIOM: is_a_girl_from_Latin_America(Virginia_Raggi) AND age(Virginia_Raggi) <= 17

Query: {query}
{option_section}{prior_section}Respond with the sentence, then one line:
AXIOM: <structured form>
""",
    "triple_select": """\
From the numbered facts below, pick the ones relevant to checking the rule. \
Respond with exactly one line in the form `SELECT: i,j,...` (1-based indices, \
possibly empty).

Rule: {axiom_text}

Facts:
{numbered_triples}

SELECT:
""",
    "judge": """\
Decide whether the premise is SATISFIED, VIOLATED, or UNKNOWN given only the \
numbered facts below. Cite the fact numbers that justify a SATISFIED or \
VIOLATED verdict; without a citation the verdict cannot be accepted. If the \
facts neither support nor contradict the premise, answer UNKNOWN.

Example:
Premise: died_by_assassination(Abraham_Lincoln)
Facts:
1. Abraham Lincoln manner of death assassination
STATUS: SATISFIED
EVIDENCE: 1

Premise: {premise_text}

Facts:
{numbered_triples}

Respond with two lines:
STATUS: SATISFIED|VIOLATED|UNKNOWN
EVIDENCE: i,j,...
""",
    "mei": """\
The premises below could not be decided from the current facts. Name what \
evidence is missing and which single entity's facts would provide it. The \
entity must be one mentioned in the query or in the facts below.

Query: {query}
Rule: {axiom_text}
Undecided premises:
{unsatisfied}

Current facts:
{numbered_triples}

Respond with two lines:
MISSING: <what is missing>
ENTITY: <entity name>
""",
    "baseline": """\
Answer the question using the facts below. Reply with a short direct answer \
starting with Yes or No, or say "I don't know".

Facts:
{numbered_triples}

Question: {query}
Answer:
""",
}


def number_lines(items: list[str]) -> str:
    """1-based numbered list, one item per line."""
    return "\n".join(f"{i}. {item}" for i, item in enumerate(items, start=1))


def _axiom_sections(context: Mapping[str, object]) -> dict[str, str]:
    option = context.get("option")
    prior = list(context["prior_axioms"])
    prior_section = ""
    if prior:
        prior_lines = "\n".join(f"- {a}" for a in prior)
        prior_section = (
            "Do not repeat any of these previously tried rules; "
            f"produce a different one:\n{prior_lines}\n"
        )
    return {
        "option_section": f"Option under consideration: {option}\n" if option else "",
        "prior_section": prior_section,
    }


def render_prompt(role: str, context: Mapping[str, object]) -> str:
    """Instantiate the template for a role; a field it names is required in ``context``.

    A missing field raises ``PromptContextError`` naming it. The axiom role
    builds two of its fields from the optional ``option`` and the required
    ``prior_axioms`` context fields.
    """
    template = _TEMPLATES.get(role)
    if template is None:
        raise PromptContextError(f"unknown role {role!r}")
    try:
        if role == "axiom":
            context = {**context, **_axiom_sections(context)}
        return template.format_map(context)
    except KeyError as exc:
        raise PromptContextError(f"role {role!r} requires context field {exc.args[0]!r}") from None
