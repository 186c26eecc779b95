"""Layer spans recorded from outside the package.

`Tracer.install` replaces, for the duration of a traced instance, the
names through which each layer is called (the module globals the callers
bind, and methods on the classes) with wrappers that append one span per
call: name, parent span index, start, end and an optional note taken from
the result.  Spans stay in memory; `summarize` turns them into per-layer
calls, inclusive time and self time (duration minus the time covered by
child spans).

Every wrapper adds a Python frame, so the traced run sits deeper on the
stack than the untraced one.  The interpreter turns Python's RecursionError
into a `stack-overflow` verdict, so a few deep-recursion verdicts (and their
step counts) can differ between the two runs; `run.py` reports that as
counter drift and never checks correctness on the traced run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

RUN_SPAN = "run"  # the span around one navigate call


def _execution_note(trace):
    return trace.outcome.status, trace.steps


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start, end, note)
        self.current = -1
        self._saved: list = []

    def wrap(self, name: str, fn, note=None):
        spans = self.spans

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = self.current
            self.current = index
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self.current = parent
                spans[index] = (name, parent, start, end,
                                note(result) if note and result is not None else None)

        return traced

    def _patch(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def install(self, api) -> None:
        """Wrap every layer boundary of one imported package (see Api)."""
        engine, validate = api.engine, api.validate
        self._patch(engine, "run_suite", "faultloc.run_suite")
        self._patch(engine, "suspiciousness", "faultloc.suspiciousness")
        self._patch(api.faultloc, "execute", "interp.execute", _execution_note)
        self._patch(engine, "build_pool", "ingredients.pool")
        self._patch(engine, "mine_templates", "ingredients.pool")
        self._patch(engine, "select_ingredient", "ingredients.select_ingredient")
        self._patch(engine, "transform_ingredient", "ingredients.transform_ingredient", len)
        self._patch(engine, "print_tree", "printer.print_tree")
        self._patch(api.ingredients, "print_tree", "printer.print_tree")
        self._patch(engine.RepairSession, "materialize", "engine.materialize")
        self._patch(api.ast.SourceProject, "clone", "ast.clone")
        self._patch(api.ast.SourceProject, "reindex", "ast.reindex")
        for cls in vars(api.operators).values():
            if (isinstance(cls, type) and issubclass(cls, api.operators.RepairOperator)
                    and "mutate" in cls.__dict__ and cls is not api.operators.RepairOperator):
                self._patch(cls, "mutate", "operators.mutate")
        self._patch(engine, "check_project", "types.check_project")
        self._patch(api.types, "check_project", "types.check_project")
        self._patch(engine, "validate_variant", "validate.search")
        self._patch(validate, "validate_variant", "validate.refine")
        self._patch(validate, "make_file_diff", "diffs.make_file_diff")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class Layer:
    calls: int = 0
    s: float = 0.0  # inclusive: summed span durations
    self_s: float = 0.0  # durations minus time covered by child spans
    by_outcome: dict = field(default_factory=dict)  # interp.execute only
    trees: int = 0  # ingredients.transform_ingredient only


def summarize(spans) -> dict[str, Layer]:
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers: dict[str, Layer] = {}
    for index, (name, parent, start, end, note) in enumerate(spans):
        layer = layers.setdefault(name, Layer())
        duration = end - start
        layer.calls += 1
        layer.s += duration
        layer.self_s += duration - covered[index]
        if name == "interp.execute" and note is not None:
            status, steps = note
            bucket = layer.by_outcome.setdefault(status, [0, 0.0, 0])
            bucket[0] += 1
            bucket[1] += duration
            bucket[2] += steps
        elif name == "ingredients.transform_ingredient" and note is not None:
            layer.trees += note
    return layers


def per_layer_metrics(layers: dict[str, Layer]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json as (value, unit)."""
    def get(name: str) -> Layer:
        return layers.get(name, Layer())

    out: dict[str, tuple[float, str]] = {}
    execute = get("interp.execute")
    for status in ("normal", "error", "timeout"):
        calls, seconds, steps = execute.by_outcome.get(status, [0, 0.0, 0])
        out[f"interp.execute.{status}.calls"] = (calls, "count")
        out[f"interp.execute.{status}.s"] = (seconds, "s")
        out[f"interp.execute.{status}.steps"] = (steps, "count")
    for name in ("ast.clone", "ast.reindex", "types.check_project", "printer.print_tree",
                 "validate.search", "validate.refine", "ingredients.transform_ingredient"):
        out[f"{name}.calls"] = (get(name).calls, "count")
        out[f"{name}.s"] = (get(name).s, "s")
    for name in ("operators.mutate", "ingredients.select_ingredient", "ingredients.pool",
                 "faultloc.run_suite", "faultloc.suspiciousness", "diffs.make_file_diff"):
        out[f"{name}.s"] = (get(name).s, "s")
    out["ast.clone.self_s"] = (get("ast.clone").self_s, "s")
    out["engine.materialize.self_s"] = (get("engine.materialize").self_s, "s")
    trees = get("ingredients.transform_ingredient").trees
    out["ingredients.transform_ingredient.trees"] = (trees, "count")
    searched = get("validate.search").calls
    out["ingredients.validations_per_tree"] = (searched / trees if trees else 0.0, "ratio")
    out["run.self_s"] = (get(RUN_SPAN).self_s, "s")
    return out
