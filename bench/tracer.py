"""Spans around the public functions of mslab, recorded from outside.

`Tracer.install()` replaces every binding of each function in `FUNCTIONS`
and `METHODS` in every loaded `mslab.*` namespace with a wrapper that
records one span (name, start, end, parent). The `suite` and `cli` modules
import names directly and the acceptance batteries are reached through
`ACCEPTANCE_BATTERIES` lambdas that read module globals, so patching every
binding is what makes the spans complete. `Tracer.restore()` puts the
original objects back.

Spans stay in memory; `write_jsonl` writes them once, at the end.

Leaf functions called millions of times, such as `rado.rado_adjacent` and
`rado.rado_metric`, are left unwrapped: their time counts as self time of
the wrapped function that calls them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

FUNCTIONS = {
    "metric": ("validate_metric", "is_katetov", "kuratowski_embed", "truncate_katetov"),
    "urysohn": (
        "fraisse_step", "finite_injectivity_check", "ma_extension", "uwmt_extension",
        "prop53_extension", "back_and_forth_extend", "nonproper_witness", "injectivity_chain",
    ),
    "randgen": (
        "random_ma_request", "random_metric_space", "random_katetov_values",
        "random_sphere_point", "random_disjoint_parts",
    ),
    "banach": ("hilbert_check", "lp_counterexample", "disjoint_support_identity", "radial_profile_check"),
    "weak": ("restrict_katetov",),
    "rado": ("rado_extension_witness", "rado_metric_space"),
    "serialization": ("load_space", "load_approximant"),
    "report": ("canonical_json",),
}
METHODS = {"urysohn": {"Approximant": ("from_space", "as_metric_space")}}
BATTERIES = (
    "extensions", "kuratowski", "lp", "hilbert", "profiles",
    "disjoint", "rado", "urysohn", "nonproper", "chain",
)
ROUNDS = (1, 2, 3, 4)


def _on_validate(tracer, args, result, seconds):
    tracer.count("metric.validate_metric.points", len(args[0]))
    if not result:
        tracer.count("metric.validate_metric.fail_verdicts")


def _on_load(tracer, args, result, seconds):
    tracer.count("serialization.bytes_read", os.path.getsize(args[0]))


def _on_fraisse(tracer, args, result, seconds):
    prefix = f"urysohn.fraisse_step.round{result.rounds}"
    tracer.count(prefix + ".s", seconds)
    tracer.count(prefix + ".points_added", result.n_points - args[0].n_points)


def _on_injectivity(tracer, args, result, seconds):
    tracer.count("urysohn.finite_injectivity_check.functions", result.counts["functions"])


OBSERVERS = {
    "metric.validate_metric": _on_validate,
    "serialization.load_space": _on_load,
    "serialization.load_approximant": _on_load,
    "urysohn.fraisse_step": _on_fraisse,
    "urysohn.finite_injectivity_check": _on_injectivity,
}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{mod}.{cls}.{m}" for mod, classes in METHODS.items() for cls, ms in classes.items() for m in ms]
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for b in BATTERIES:
        units[f"suite.battery_{b}.s"] = "s"
    units["metric.validate_metric.points"] = "count"
    units["metric.validate_metric.fail_verdicts"] = "count"
    for k in ROUNDS:
        units[f"urysohn.fraisse_step.round{k}.s"] = "s"
        units[f"urysohn.fraisse_step.round{k}.points_added"] = "count"
    units["urysohn.fraisse_step.round4.points_per_s"] = "1/s"
    units["urysohn.fraisse_step.round4.new_point_ratio"] = "ratio"
    units["urysohn.finite_injectivity_check.functions"] = "count"
    units["serialization.bytes_read"] = "B"
    units["trace.overhead_ratio"] = "ratio"
    return units


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their durations add up.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(self, args, result, end - start)
            return result

        return traced

    def install(self) -> "Tracer":
        import mslab.cli  # noqa: F401  (loads every mslab module)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "mslab" or n.startswith("mslab.")]
        wrappers = {}
        for mod, fns in FUNCTIONS.items():
            for fn in fns:
                orig = getattr(sys.modules["mslab." + mod], fn)
                wrappers[id(orig)] = (orig, self._wrap(f"{mod}.{fn}", orig))
        suite = sys.modules["mslab.suite"]
        for b in BATTERIES:
            orig = getattr(suite, "battery_" + b)
            wrappers[id(orig)] = (orig, self._wrap(f"suite.battery_{b}", orig))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(sys.modules["mslab." + mod], cls_name)
                for m in methods:
                    orig = cls.__dict__[m]
                    name = f"{mod}.{cls_name}.{m}"
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(name, orig.__func__))
                    else:
                        new = self._wrap(name, orig)
                    self._patched.append((cls, m, orig))
                    setattr(cls, m, new)
        return self

    def restore(self) -> None:
        while self._patched:
            target, attr, orig = self._patched.pop()
            setattr(target, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics from the spans and counters; 0 for a layer
        the workload never reached."""
        values = {name: 0.0 for name in metric_units()}
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            if name.startswith("suite.battery_"):
                values[name + ".s"] += end - start
            else:
                values[name + ".calls"] += 1
                values[name + ".self_s"] += own
        values.update(self.counters)
        r4 = "urysohn.fraisse_step.round4"
        if values[r4 + ".s"] > 0:
            values[r4 + ".points_per_s"] = values[r4 + ".points_added"] / values[r4 + ".s"]
        functions = values["urysohn.finite_injectivity_check.functions"]
        if functions > 0:
            values[r4 + ".new_point_ratio"] = values[r4 + ".points_added"] / functions
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
