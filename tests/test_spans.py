"""The benchmark's span targets must be callables that the package defines.

``perfbench/spans.py`` wraps each target by replacing ``vars(owner)[attr]``,
so a target that is inherited or gone makes ``Tracer.install`` raise
``KeyError``.  The benchmark's own tests catch that; this test keeps it in
the main suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("name, module, path", TARGETS,
                         ids=[f"{module}.{path}" for _, module, path in TARGETS])
def test_span_target_is_defined_by_its_owner(name, module, path):
    owner = importlib.import_module(module)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"span {name}: {module}.{path} is not in its owner's own vars"
