"""Closed-loop runner: one client, one cell at a time, timed from outside.

A run sets the workload up in a batch before its passes, and makes as many
whole passes over its cells as fit in the requested time, at least one.
Between the cells of untraced passes it sets up again in further batches, so
that set-up is sampled across the run as the cells are.  Deterministic counts
come from the cells' outcomes and must repeat on every pass.  A cell's time
is its fastest untraced pass, and a batch's time its fastest set-up: on a
shared machine, interference only ever adds time, and the fastest repeat is
the one it disturbed least.  The latency median and tail are then taken over
cells, and ``setup_s`` is the median over batches.  With tracing on,
untraced and traced passes alternate, and the per-layer metrics come from
the traced ones and the first set-up batch.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from noisymax.infer import InferenceError
from noisymax.model import GuardExceededError

from tracing import ABORTED, ERROR, OK, Tracer, per_layer, per_layer_units
from workloads import GUARD_ENTRIES, GUARD_MULTS, Suite

# Each batch of set-ups runs at least SETUP_REPEATS times and until
# SETUP_SECONDS have gone by, at most SETUP_MAX_REPEATS times.  One batch runs
# before the passes, and one between cells whenever SETUP_EVERY seconds have
# gone by since the last, so that the reported median spans the run rather
# than one moment of a machine whose speed drifts.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.15
SETUP_MAX_REPEATS = 25
SETUP_EVERY = 1.0
AGREEMENT_ATOL = 1e-9
# The tail is the highest of these percentiles with at least ten cells beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "mults_total": "count",
    "peak_entries_max": "entries",
    "peak_rss_mb": "MB",
}


@dataclass
class Report:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    problems: list[str]
    details: dict


def tail_percentile(cells: int) -> float:
    for p in TAIL_LADDER:
        if cells * (1.0 - p / 100.0) >= 10:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _run_pass(cells, tracer: Tracer | None, between_cells=None):
    """One pass over every cell; returns per-cell (status, seconds, outcome or error).
    ``between_cells``, if given, is called untimed before each cell."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for index, cell in enumerate(cells):
            if between_cells is not None:
                between_cells()
            if tracer is not None:
                tracer.cell = index
            start = time.perf_counter()
            try:
                outcome, status = cell.run(), OK
            except GuardExceededError:
                outcome, status = None, ABORTED
            except InferenceError as exc:
                outcome, status = f"{type(exc).__name__}: {exc}", ERROR
            results.append((status, time.perf_counter() - start, outcome))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.cell = None
    return results


def _check(cells, results, references) -> list[str]:
    """Every completed cell must match its group's references and the first
    completed cell of its group; an inference error is always wrong."""
    problems = []
    seen: dict[str, tuple] = {}
    for cell, (status, _, outcome) in zip(cells, results):
        label = f"{cell.group} {cell.strategy.value}"
        if status == ERROR:
            problems.append(f"{label}: {outcome}")
            continue
        if status != OK:
            continue
        expected = list(references.get(cell.group, ()))
        if cell.group in seen:
            expected.append(seen[cell.group])
        for reference in expected:
            deviation = max(
                float(np.abs(a - b).max()) for a, b in zip(outcome.answers, reference)
            )
            if deviation > AGREEMENT_ATOL:
                problems.append(f"{label}: deviation {deviation:.3e}")
        seen.setdefault(cell.group, outcome.answers)
    return problems


def _counts(results) -> tuple[int, int]:
    """The paper's cost model per pass; an aborted cell is charged the guard."""
    mults, peak = 0, 0
    for status, _, outcome in results:
        if status == OK:
            mults += outcome.multiplications
            peak = max(peak, outcome.peak_entries)
        elif status == ABORTED:
            mults += GUARD_MULTS
            peak = max(peak, GUARD_ENTRIES)
    return mults, peak


def _fastest(passes) -> list[float]:
    """Each cell's fastest time over the given passes."""
    return [min(times) for times in zip(*([r[1] for r in results] for results in passes))]


def _fastest_total(passes) -> float:
    return sum(_fastest(passes))


def _set_up(suite: Suite, tracer: Tracer | None, batches: list[list[float]]):
    """One batch of timed set-ups; returns the cells of the last one."""
    batch: list[float] = []
    while len(batch) < SETUP_REPEATS or (
        sum(batch) < SETUP_SECONDS and len(batch) < SETUP_MAX_REPEATS
    ):
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            cells = suite.setup()
        finally:
            batch.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
    batches.append(batch)
    return cells


def run(suite: Suite, seconds: float, trace: bool) -> tuple[Report, Tracer | None, list]:
    tracer = Tracer() if trace else None
    setup_batches: list[list[float]] = []
    cells = _set_up(suite, tracer, setup_batches)
    traced_setups = len(setup_batches[0]) if trace else 0
    references = suite.references()
    last_batch = time.perf_counter()

    def set_up_now_and_then():
        nonlocal last_batch
        if time.perf_counter() - last_batch >= SETUP_EVERY:
            _set_up(suite, None, setup_batches)
            last_batch = time.perf_counter()

    problems: list[str] = []
    first = None
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        is_traced = trace and len(untraced) > len(traced)
        if is_traced:
            results = _run_pass(cells, tracer)
        else:
            results = _run_pass(cells, None, set_up_now_and_then)
        (traced if is_traced else untraced).append(results)
        problems += _check(cells, results, references)
        statuses = [r[0] for r in results]
        if first is None:
            first = results
        elif statuses != [r[0] for r in first] or _counts(results) != _counts(first):
            problems.append("cell outcomes differ between passes")
        # Whole passes only, as many as fit in the time; at least one of each kind.
        elapsed = time.perf_counter() - started
        fits = elapsed + elapsed / (len(untraced) + len(traced)) <= seconds
        if not fits and (not trace or traced):
            break

    attempted = len(cells)
    failed = sum(status == ABORTED for status, _, _ in first)
    tail = tail_percentile(attempted)
    details = {
        "cells": attempted,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "tail_percentile": tail,
        "failed_frac": failed / attempted,
        "pass_seconds": [round(sum(r[1] for r in results), 3) for results in untraced],
    }
    if trace:
        overhead = _fastest_total(traced) / _fastest_total(untraced) - 1.0
        status_by_cell = [r[0] for r in first]
        metrics = per_layer(
            tracer.spans, cells, status_by_cell, traced_setups, len(traced), overhead
        )
        units = per_layer_units()
    else:
        latencies = [t * 1e3 for t in _fastest(untraced)]
        completed = sum(status == OK for status, _, _ in first)
        mults, peak = _counts(first)
        metrics = {
            "setup_s": statistics.median(min(batch) for batch in setup_batches),
            "answers_per_s": completed / _fastest_total(untraced),
            "latency_ms_p50": nearest_rank(latencies, 50.0),
            "latency_ms_tail": nearest_rank(latencies, tail),
            "mults_total": mults,
            "peak_entries_max": peak,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    report = Report(metrics, units, attempted, failed, problems, details)
    return report, tracer, cells
