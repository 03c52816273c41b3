"""Spans and call counts recorded around the flowcast public functions.

The benchmark does not edit the package.  ``install`` replaces each traced
function with a wrapper wherever the package binds it: module globals
(including names one module imported from another), function defaults
such as ``loocv(..., fitter=fit_pls_kernel)``, and the two bank-cache
methods.  A wrapper always counts its calls per operation, which is cheap
enough for the untraced run; it records a span only while the tracer is
enabled.  A span is ``[id, parent, name, start, end, phase, op]`` and stays
in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Traced functions per layer.  Scalar helpers called millions of times a day
# (``delay.movement_delay``) are left out so tracing cannot swamp the run.
# ``segment_cost`` and ``fit_value`` are traced so that the controller's
# calls into the fit are charged to segmentation, not to controller.
TRACED = {
    "flowdata": ("load_dataset", "save_dataset", "split_at"),
    "synth": ("generate",),
    "lowrank": ("fit_pca",),
    "pls": ("fit_pls_kernel", "predict", "loocv"),
    "segmentation": ("cost_table", "optimal_segmentation", "segment_cost",
                     "fit_value"),
    "controller": ("build_model_bank", "run_controller"),
    "delay": ("green_splits", "simulate_day", "lower_bound_delay"),
    "cli": ("main",),
}
# Methods traced on their class: (module, class, method, is_classmethod).
TRACED_METHODS = (
    ("controller", "PlsModelBank", "to_json", False),
    ("controller", "PlsModelBank", "from_json", True),
)
LAYERS = tuple(TRACED)


class Tracer:
    """Span store and per-operation call counters for one benchmark run."""

    def __init__(self) -> None:
        self.reset()

    def reset(self, workload: str = "") -> None:
        self.workload = workload
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.op = ""
        self.calls: Counter = Counter()   # (op, span name) -> calls
        self.hooks: dict = {}             # span name -> fn(span, args, kwargs, result)

    def begin(self, phase: str, op: str) -> None:
        self.phase, self.op = phase, op

    def calls_in(self, op: str, name: str) -> int:
        return self.calls[(op, name)]

    def parent_name(self, span: list) -> str | None:
        return None if span[1] is None else self.spans[span[1]][2]

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[(tracer.op, name)] += 1
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [len(tracer.spans), parent, name, time.perf_counter(), None,
                    tracer.phase, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, phase, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": start,
                    "end": end, "phase": phase, "op": op,
                    "workload": self.workload,
                }) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _package_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "flowcast" or n.startswith("flowcast."))]


def install(tracer: Tracer) -> None:
    """Route every traced function of the loaded package through ``tracer``."""
    swaps = {}
    for layer, names in TRACED.items():
        module = importlib.import_module(f"flowcast.{layer}")
        for name in names:
            fn = getattr(module, name)
            if getattr(fn, "__wrapped_by_bench__", False):
                raise RuntimeError("flowcast is already traced in this process")
            swaps[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    modules = _package_modules()
    # Defaults first, while the globals still hold the original functions.
    for module in modules:
        for value in vars(module).values():
            defaults = getattr(value, "__defaults__", None)
            if callable(value) and defaults:
                value.__defaults__ = tuple(swaps.get(id(d), d) for d in defaults)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in swaps:
                setattr(module, attr, swaps[id(value)])
    for layer, cls_name, method, is_classmethod in TRACED_METHODS:
        cls = getattr(sys.modules[f"flowcast.{layer}"], cls_name)
        raw = vars(cls)[method]
        fn = raw.__func__ if is_classmethod else raw
        wrapped = tracer.wrap(f"{layer}.{cls_name}.{method}", fn)
        setattr(cls, method, classmethod(wrapped) if is_classmethod else wrapped)
