"""The benchmark tracer wraps library functions by name and reports a
missing one only as "absent", after which that layer's metrics read 0.
These tests fail instead when a traced name or a field the tracer's
hooks read goes away."""

import importlib
import importlib.util
import os

import pytest

from convlink import model
from helpers import tiny_world

TRACING_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("owner_path,attr,name", load_tracing().TARGETS)
def test_traced_target_exists(owner_path, attr, name):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    # the tracer looks the attribute up in the owner's own namespace
    assert vars(owner).get(attr) is not None, name


def test_prepare_hook_fields_exist(monkeypatch):
    # perfbench/run.py's _prepare_hook reads these from the first
    # positional argument and the result of each prepare_mention call
    w = tiny_world(seed=3)
    calls = []
    real = model.prepare_mention
    monkeypatch.setattr(model, "prepare_mention",
                        lambda *args: calls.append(args) or real(*args))
    [prep] = model.prepare_corpus(w.targets, [w.doc])
    [args] = calls
    assert isinstance(args[0].config.toggles.use_sparse, bool)
    assert len(prep.queries) == 2
    assert len(prep.cand.candidates) == 3
    assert prep.mention.gold_entity == "E1"
    assert prep.gold_index == prep.cand.candidates.index("E1")
