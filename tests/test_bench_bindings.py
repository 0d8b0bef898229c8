"""The traced benchmark run wraps functions by module binding; keep them bound.

``bench/spans.py`` patches every ``TARGETS`` function in each groundedqa
module that binds it and expects the ``module:name`` bindings listed in
``EXPECTED_HITS`` to be called. A refactor that drops one of those imports
would only show up as a "wrapper never hit" in a traced benchmark run;
these checks fail first.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def _module(short):
    return importlib.import_module("groundedqa" if short == "groundedqa" else f"groundedqa.{short}")


def _target(module, attr):
    obj = _module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", spans.TARGETS, ids=[f"{m}.{a}" for m, a in spans.TARGETS])
def test_every_target_resolves(module, attr):
    assert callable(_target(module, attr))
    if "." in attr:  # methods are patched on the class that defines them
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(_module(module), cls_name))


BINDINGS = sorted({key for hits in spans.EXPECTED_HITS.values() for key in hits if ":" in key})


@pytest.mark.parametrize("binding", BINDINGS)
def test_expected_binding_is_the_target_function(binding):
    short, name = binding.split(":")
    targets = [_target(m, a) for m, a in spans.TARGETS if a == name]
    assert len(targets) == 1, f"{name} is not a wrapped target"
    assert vars(_module(short)).get(name) is targets[0], f"{binding} is not bound"
