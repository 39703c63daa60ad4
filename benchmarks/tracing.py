"""Spans around the calls into each noisymax layer, recorded from outside.

The tracer replaces module attributes (``infer.multiply`` and so on) with
timing wrappers while it is installed; ``query_posterior`` looks those names
up at call time, so its children are captured without touching the package.
Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from noisymax import bench, factorize, infer, model
from noisymax.factorize import Strategy
from noisymax.model import GuardExceededError

# (module, attribute) pairs wrapped while tracing.  Private helpers are left
# alone: they are implementation details that may disappear.
TRACED = (
    (bench, "generate"),
    (model, "parse_network"),
    (factorize, "expand"),
    (infer, "query_posterior"),
    (infer, "multiply"),
    (infer, "marginalize"),
    (infer, "restrict"),
)
QUERY_CHILDREN = ("multiply", "marginalize", "restrict")

OK, ABORTED, ERROR = "ok", "aborted", "error"


class Tracer:
    """Records spans ``[name, start, end, parent, cell, info]``.  ``cell`` is
    the index of the cell being run, or None during set-up; ``parent`` is the
    index of the enclosing span, or None."""

    def __init__(self):
        self.spans: list[list] = []
        self.cell: int | None = None
        self._stack: list[int] = []
        self._originals = {(mod, attr): getattr(mod, attr) for mod, attr in TRACED}

    def install(self):
        for (mod, attr), fn in self._originals.items():
            setattr(mod, attr, self._wrap(attr, fn))

    def uninstall(self):
        for (mod, attr), fn in self._originals.items():
            setattr(mod, attr, fn)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.cell, None]
            spans.append(span)
            stack.append(index)
            status, result = ERROR, None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                status = OK
                return result
            except GuardExceededError:
                status = ABORTED
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                span[5] = _info(name, args, result, status)

        return traced

    def dump(self, path, cells):
        doc = {
            "fields": ["name", "start", "end", "parent", "cell", "info"],
            "cells": [{"group": c.group, "strategy": c.strategy.value} for c in cells],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _info(name, args, result, status):
    """Counts taken at the layer boundary."""
    if name == "parse_network":
        return {"bytes": len(args[0])}
    if name == "expand":
        info = {"strategy": args[1].value, "status": status}
        if result is not None:
            expanded, report = result
            info.update(
                encoding=report.encoding_total,
                total=report.entry_total,
                aux=len(expanded.auxiliary_ids),
            )
        return info
    if name == "query_posterior":
        info = {"status": status}
        if result is not None:
            stats = result[1]
            info.update(relevant=stats.relevant_vars, eliminated=len(stats.ordering))
        return info
    if name == "multiply":
        return {"in": args[0].size + args[1].size, "out": 0 if result is None else result.size}
    return None


PER_STRATEGY = (
    ("factorize.expand_ms", "ms"),
    ("factorize.expand_calls", "count"),
    ("factorize.encoding_entries", "entries"),
    ("factorize.total_entries", "entries"),
    ("factorize.aux_vars", "vars"),
    ("factorize.guard_aborts", "count"),
    ("infer.query_ms", "ms"),
    ("infer.self_ms", "ms"),
    ("infer.multiply_ms", "ms"),
    ("infer.multiply_calls", "count"),
    ("infer.multiply_entries", "entries"),
    ("infer.multiply_mentries_per_s", "Mentries/s"),
    ("infer.multiply_bytes", "bytes"),
    ("infer.marginalize_ms", "ms"),
    ("infer.marginalize_calls", "count"),
    ("infer.restrict_ms", "ms"),
    ("infer.restrict_calls", "count"),
    ("infer.relevant_vars_mean", "vars"),
    ("infer.eliminated_vars_mean", "vars"),
    ("infer.guard_aborts", "count"),
    ("infer.aborted_ms", "ms"),
    ("infer.useful_entry_ratio", "ratio"),
)
SHARED = (
    ("bench.generate_ms", "ms"),
    ("model.parse_ms", "ms"),
    ("model.json_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = dict(SHARED)
    for s in Strategy:
        units.update({f"{name}.{s.value}": unit for name, unit in PER_STRATEGY})
    return units


def per_layer(spans, cells, cell_status, setups: int, passes: int, overhead: float) -> dict:
    """Per-layer metrics from the spans of ``setups`` traced set-ups and
    ``passes`` traced passes over ``cells``.  Times and counts are per set-up
    for set-up spans and per pass for cell spans; a ratio or mean with no
    samples reads 0."""
    # Raw totals per phase, divided once at the end so counts stay exact.
    setup_sums, pass_sums = defaultdict(float), defaultdict(float)
    means = defaultdict(list)
    child_ms = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None and name in QUERY_CHILDREN:
            child_ms[parent] += (end - start) * 1e3

    for index, (name, start, end, _, cell, info) in enumerate(spans):
        ms = (end - start) * 1e3
        sums = setup_sums if cell is None else pass_sums
        if name == "generate":
            sums["bench.generate_ms"] += ms
            continue
        if name == "parse_network":
            sums["model.parse_ms"] += ms
            sums["model.json_bytes"] += info["bytes"]
            continue
        s = info["strategy"] if name == "expand" else cells[cell].strategy.value
        if name == "expand":
            sums[f"factorize.expand_ms.{s}"] += ms
            sums[f"factorize.expand_calls.{s}"] += 1
            if info["status"] == ABORTED:
                sums[f"factorize.guard_aborts.{s}"] += 1
            elif info["status"] == OK:
                sums[f"factorize.encoding_entries.{s}"] += info["encoding"]
                sums[f"factorize.total_entries.{s}"] += info["total"]
                sums[f"factorize.aux_vars.{s}"] += info["aux"]
        elif name == "query_posterior":
            sums[f"infer.query_ms.{s}"] += ms
            sums[f"infer.self_ms.{s}"] += ms - child_ms[index]
            if info["status"] == ABORTED:
                sums[f"infer.guard_aborts.{s}"] += 1
                sums[f"infer.aborted_ms.{s}"] += ms
            elif info["status"] == OK:
                means[f"infer.relevant_vars_mean.{s}"].append(info["relevant"])
                means[f"infer.eliminated_vars_mean.{s}"].append(info["eliminated"])
        else:
            sums[f"infer.{name}_ms.{s}"] += ms
            sums[f"infer.{name}_calls.{s}"] += 1
            if name == "multiply":
                sums[f"infer.multiply_entries.{s}"] += info["out"]
                sums[f"infer.multiply_bytes.{s}"] += 8 * (info["in"] + info["out"])
                if cell_status[cell] == OK:
                    sums[f"useful.{s}"] += info["out"]

    sums = defaultdict(float)
    for key in set(setup_sums) | set(pass_sums):
        sums[key] = setup_sums[key] / setups + pass_sums[key] / passes
    values = {name: 0.0 for name in per_layer_units()}
    values.update({k: v for k, v in sums.items() if k in values})
    values.update({k: sum(v) / len(v) for k, v in means.items()})
    for s in Strategy:
        entries = sums[f"infer.multiply_entries.{s.value}"]
        ms = sums[f"infer.multiply_ms.{s.value}"]
        if ms > 0:
            values[f"infer.multiply_mentries_per_s.{s.value}"] = entries / ms / 1e3
        if entries > 0:
            values[f"infer.useful_entry_ratio.{s.value}"] = sums[f"useful.{s.value}"] / entries
    values["trace.overhead_frac"] = overhead
    return values
