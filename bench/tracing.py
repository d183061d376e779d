"""Outside-in tracing: spans around calls into traceavert's public functions.

The tracer replaces each function at the attribute the CLI resolves at call
time (a module attribute, a classmethod, or a name ``cli.py`` imported into
its own namespace) and restores the original afterwards.  Nothing in ``src/``
is edited.  Spans are kept in memory as (name, start, end, parent, op, attrs)
and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from pathlib import Path
from time import perf_counter

CASE_TYPES = ("miss", "sym", "pers", "ct", "app_minus", "app_plus")

#: every per-layer metric :func:`layer_metrics` reports, with its unit
UNITS = {
    "taf.calibrate_ms": "ms",
    "taf.build_ms": "ms",
    "taf.builds_per_op": "count",
    "taf.share": "fraction",
    "cases.load_ms": "ms",
    "cases.validate_ms": "ms",
    "cases.weeks_per_s": "1/s",
    "counterfactual.reconstruct_ms": "ms",
    "counterfactual.rt_ms": "ms",
    "cli.self_ms": "ms",
    "cli.report_bytes": "bytes",
    **{f"oracle.{case_type}_ms": "ms" for case_type in CASE_TYPES},
    "oracle.trees_per_s": "1/s",
    "oracle.useful_cell_frac": "fraction",
    "oracle.tree_sd": "fraction",
    "params.resolve_ms": "ms",
    "params.validate_ms": "ms",
    "infectivity.profile_ms": "ms",
    "trace.overhead_frac": "fraction",
}


def _weeks(args, kwargs, result):
    return {"weeks": len(result)}


def _oracle(args, kwargs, result):
    case_type, cfg = args[:2]
    return {
        "case_type": case_type,
        "trees": cfg.trees,
        "standard_error": result.standard_error,
    }


#: (module, attribute path, span name, attribute recorder)
TARGETS = (
    ("traceavert.taf", "calibrate_variant", "taf.calibrate", None),
    ("traceavert.taf", "LambdaTable.build", "taf.build", None),
    ("traceavert.infectivity", "InfectivityProfile.from_params", "infectivity.profile", None),
    ("traceavert.cases", "load_fixture", "cases.load", _weeks),
    ("traceavert.cases", "load_presplit_csv", "cases.load", _weeks),
    ("traceavert.cases", "validate_series", "cases.validate", None),
    ("traceavert.counterfactual", "averted_ct", "counterfactual.reconstruct", None),
    ("traceavert.counterfactual", "averted_app", "counterfactual.reconstruct", None),
    ("traceavert.counterfactual", "rt_series", "counterfactual.rt", None),
    ("traceavert.oracle", "empirical_case_type_taf", "oracle.simulate", _oracle),
    # cli.py imports these by name, so they are wrapped in its namespace
    ("traceavert.cli", "validate", "params.validate", None),
    ("traceavert.cli", "params_from_config", "params.resolve", None),
    ("traceavert.cli", "apply_overrides", "params.resolve", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        self.spans.append({"name": name, "start": perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "op": self.op, "attrs": {}})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, record):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if record is not None:
                self.spans[index]["attrs"] = record(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one simply records nothing."""
        for module_name, path, name, record in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                wrapped = classmethod(self._wrap(static.__func__, name, record))
            else:
                wrapped = self._wrap(static, name, record)
            self._restore.append((owner, attr, static))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], untraced_ms: list[float], report_bytes: list[int],
                  useful_cell_frac: float) -> dict[str, float]:
    """Per-layer figures, per traced op, from the spans of the traced ops.

    Times are totals over the traced ops divided by their number, so the
    layer times of an op add up to its duration.  A name's time counts only
    its outermost spans (``load_fixture`` calls ``load_presplit_csv``).
    """
    ops = [s for s in spans if s["name"] == "op"]
    n = len(ops)
    children: dict[int, list[dict]] = {}
    for index, span in enumerate(spans):
        span["index"] = index
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def outermost(name: str) -> list[dict]:
        found = []
        for span in spans:
            parent = span["parent"]
            while parent is not None and spans[parent]["name"] != name:
                parent = spans[parent]["parent"]
            if span["name"] == name and parent is None:
                found.append(span)
        return found

    def total(name: str) -> float:
        return sum(_duration(s) for s in outermost(name))

    def self_time(name: str) -> float:
        return sum(_duration(s) - sum(_duration(c) for c in children.get(s["index"], []))
                   for s in outermost(name))

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / n

    op_time = sum(_duration(s) for s in ops)
    builds = outermost("taf.build")
    taf_time = total("taf.build")
    loads = outermost("cases.load")
    cases_time = total("cases.load") + total("cases.validate")
    oracle = outermost("oracle.simulate")
    oracle_time = sum(_duration(s) for s in oracle)
    rt_time = sum(_duration(s) for s in outermost("counterfactual.rt")
                  if spans[s["parent"]]["name"] == "op")
    traced_ms = [1000.0 * _duration(s) for s in ops]

    metrics = {
        "taf.calibrate_ms": per_op_ms(total("taf.calibrate")),
        "taf.build_ms": per_op_ms(self_time("taf.build")),
        "taf.builds_per_op": len(builds) / n,
        "taf.share": taf_time / op_time,
        "cases.load_ms": per_op_ms(total("cases.load")),
        "cases.validate_ms": per_op_ms(total("cases.validate")),
        "cases.weeks_per_s": (sum(s["attrs"].get("weeks", 0) for s in loads) / cases_time
                              if cases_time else 0.0),
        "counterfactual.reconstruct_ms": per_op_ms(total("counterfactual.reconstruct")),
        "counterfactual.rt_ms": per_op_ms(rt_time),
        "cli.self_ms": per_op_ms(self_time("op")),
        "cli.report_bytes": statistics.fmean(report_bytes),
    }
    for case_type in CASE_TYPES:
        metrics[f"oracle.{case_type}_ms"] = per_op_ms(
            sum(_duration(s) for s in oracle if s["attrs"].get("case_type") == case_type))
    metrics.update({
        "oracle.trees_per_s": (sum(s["attrs"]["trees"] for s in oracle) / oracle_time
                               if oracle_time else 0.0),
        "oracle.useful_cell_frac": useful_cell_frac,
        "oracle.tree_sd": (statistics.fmean(s["attrs"]["standard_error"] * s["attrs"]["trees"] ** 0.5
                                            for s in oracle) if oracle else 0.0),
        "params.resolve_ms": per_op_ms(total("params.resolve")),
        "params.validate_ms": per_op_ms(total("params.validate")),
        "infectivity.profile_ms": per_op_ms(total("infectivity.profile")),
        "trace.overhead_frac": statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0,
    })
    return metrics
