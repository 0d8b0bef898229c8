"""``tools/same_traces.py``: the hash is stable and moves with a prompt byte."""

import importlib.util
from pathlib import Path

from groundedqa import prompts

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("same_traces", ROOT / "tools/same_traces.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_traces_is_stable_and_sees_one_changed_prompt_byte(monkeypatch):
    tool = _tool()
    first = tool.same_traces(ROOT / "src", "baseline_rr", 101, 5)
    assert first[1] == 5
    assert tool.same_traces(ROOT / "src", "baseline_rr", 101, 5) == first
    monkeypatch.setitem(prompts._TEMPLATES, "baseline", prompts._TEMPLATES["baseline"] + " ")
    assert tool.same_traces(ROOT / "src", "baseline_rr", 101, 5)[0] != first[0]
