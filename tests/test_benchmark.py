"""The names ``benchmark/tracer.py`` wraps by name must stay in the package:
a benchmark run stops at the first one it cannot find."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmark" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"flowcast.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"flowcast.{layer}.{name}"
    for layer, cls_name, method, is_classmethod in tracer.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"flowcast.{layer}"), cls_name)
        raw = vars(cls).get(method)
        assert callable(getattr(raw, "__func__", raw)), f"{cls_name}.{method}"
        assert isinstance(raw, classmethod) == is_classmethod, f"{cls_name}.{method}"
