"""Synthetic network generators and the benchmark runner.

Generation is driven by a splitmix64 stream so that a given seed produces a
byte-identical serialized network on every platform.  The runner evaluates a
grid of (query, strategy) cells, enforces cross-strategy
agreement, and emits decade-bucketed cost histograms.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .factorize import TABLE_ENTRY_GUARD, ExpandedNetwork, Strategy, expand
from .infer import EliminationStats, Query, query_posterior
from .model import (
    Factor,
    GuardExceededError,
    Network,
    NoisyMaxCpd,
    TableCpd,
    Variable,
)

DEFAULT_GUARD_MULTS = 10**8
AGREEMENT_ATOL = 1e-9

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit stream; the algorithm is fixed so independent
    implementations generate identical networks from the same seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by modulus (fixed by convention)."""
        return lo + self.next_u64() % (hi - lo + 1)

    def sample(self, pool: Sequence[int], k: int) -> list[int]:
        """k items without replacement via partial Fisher-Yates."""
        items = list(pool)
        for i in range(k):
            j = self.randint(i, len(items) - 1)
            items[i], items[j] = items[j], items[i]
        return items[:k]


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for the synthetic generators.

    ``bn2o`` builds a two-level network: binary disease roots with small
    priors, and noisy-max findings whose parents are sampled from the
    diseases.  ``multilevel`` lets findings also take earlier findings as
    parents, producing a layered DAG; ``link_density`` scales its fan-in.
    """

    kind: str
    seed: int
    diseases: int
    findings: int
    max_parents: int
    effect_domain_size: int = 2
    link_density: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bn2o", "multilevel"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if min(self.diseases, self.findings, self.max_parents) < 1:
            raise ValueError("diseases, findings, and max_parents must all be >= 1")
        if self.effect_domain_size < 2:
            raise ValueError("effect_domain_size must be >= 2")
        if not 0.0 < self.link_density <= 1.0:
            raise ValueError("link_density must lie in (0, 1]")
        if self.max_parents > self.diseases:
            raise ValueError(
                f"infeasible spec: max_parents {self.max_parents} > diseases {self.diseases}"
            )


def _disease_prior(rng: SplitMix64) -> float:
    return 0.001 + rng.uniform() * 0.099


def _random_row(rng: SplitMix64, m: int) -> list[float]:
    row = [rng.uniform() for _ in range(m)]
    total = sum(row)
    while total == 0.0:
        row = [rng.uniform() for _ in range(m)]
        total = sum(row)
    return [x / total for x in row]


def _random_links(rng: SplitMix64, parents: Sequence[int], sizes: Sequence[int], m: int):
    return tuple([_random_row(rng, m) for _ in range(sizes[cause])] for cause in parents)


def generate(spec: GeneratorSpec) -> Network:
    """Deterministic synthetic network: the same spec yields a byte-identical
    serialization."""
    rng = SplitMix64(spec.seed)
    m = spec.effect_domain_size
    finding_domain = tuple(f"l{k}" for k in range(m))

    variables: list[Variable] = []
    nodes: list = []
    sizes: list[int] = []
    for d in range(spec.diseases):
        var = Variable(len(variables), f"d{d}", ("absent", "present"))
        variables.append(var)
        sizes.append(2)
        p = _disease_prior(rng)
        nodes.append(TableCpd(Factor((var.id,), [1.0 - p, p])))

    disease_ids = list(range(spec.diseases))
    for f_idx in range(spec.findings):
        var = Variable(len(variables), f"f{f_idx}", finding_domain)
        variables.append(var)
        sizes.append(m)
        if spec.kind == "bn2o":
            count = rng.randint(1, spec.max_parents)
            parents = sorted(rng.sample(disease_ids, count))
        else:
            pool = list(range(var.id))
            cap = min(spec.max_parents, len(pool))
            desired = rng.randint(1, cap)
            count = min(cap, max(1, round(desired * spec.link_density)))
            parents = sorted(rng.sample(pool, count))
        links = _random_links(rng, parents, sizes, m)
        nodes.append(NoisyMaxCpd(var.id, tuple(parents), links))

    return Network(tuple(variables), tuple(nodes))


@dataclass(frozen=True)
class BenchCell:
    """One (query, strategy) cell: the query's stats (partial if a guard
    tripped), its wall time, and the guard's message if one did."""

    query: str
    strategy: str
    stats: EliminationStats
    time_ms: float
    reason: str | None = None

    @property
    def status(self) -> str:
        return "ok" if self.reason is None else "aborted"


@dataclass(frozen=True)
class BenchReport:
    """Per-cell results; the decade histograms and totals are read from the
    cells, per strategy in ``strategies`` order.

    Everything except wall-clock times is a deterministic function of the
    inputs; :meth:`to_json` keeps times in a separate field so reports can
    be compared byte-for-byte modulo timing.
    """

    cells: tuple[BenchCell, ...]
    strategies: tuple[str, ...]
    query_count: int

    @property
    def histograms(self) -> dict[str, dict[str, int]]:
        """Cells per decade of multiplications, ascending, then ``aborted``."""
        hist: dict[str, dict[str, int]] = {s: {} for s in self.strategies}
        for c in sorted(self.cells, key=lambda c: (c.status != "ok", c.stats.multiplications)):
            bucket = _decade_bucket(c.stats.multiplications) if c.status == "ok" else "aborted"
            hist[c.strategy][bucket] = hist[c.strategy].get(bucket, 0) + 1
        return hist

    @property
    def totals(self) -> dict[str, dict[str, int]]:
        """Multiplications summed over completed cells, and the count of
        completed and aborted cells."""
        totals = {s: {"multiplications": 0, "completed": 0, "aborted": 0} for s in self.strategies}
        for c in self.cells:
            if c.status == "ok":
                totals[c.strategy]["multiplications"] += c.stats.multiplications
                totals[c.strategy]["completed"] += 1
            else:
                totals[c.strategy]["aborted"] += 1
        return totals

    def to_json(self) -> dict:
        return {
            "query_count": self.query_count,
            "cells": [
                {
                    "query": c.query,
                    "strategy": c.strategy,
                    **c.stats.counts(),
                    "status": c.status,
                    "reason": c.reason,
                }
                for c in self.cells
            ],
            "histograms": self.histograms,
            "totals": self.totals,
            "cell_times_ms": [c.time_ms for c in self.cells],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["query", "strategy", "mults", "peak", "time_ms", "status"])
        for c in self.cells:
            writer.writerow(
                [
                    c.query,
                    c.strategy,
                    c.stats.multiplications,
                    c.stats.peak_table_entries,
                    f"{c.time_ms:.3f}",
                    c.status,
                ]
            )
        return out.getvalue()


class AgreementError(Exception):
    """Completed strategies disagreed on a query beyond tolerance."""

    code = "agreement-error"

    def __init__(self, query: str, deviation: float):
        super().__init__(
            f"strategies disagree on query {query!r}: max deviation {deviation:.3e}"
        )
        self.query = query
        self.deviation = deviation


def _decade_bucket(mults: int) -> str:
    if mults < 10:
        return "0-9"
    k = len(str(mults)) - 1
    return f"{10**k}-{10**(k + 1) - 1}"


def query_label(net: Network, query: Query) -> str:
    names = [net.variables[t].name for t in query.targets]
    label = ",".join(names)
    if query.evidence:
        obs = ",".join(
            f"{net.variables[v].name}={net.variables[v].domain[s]}"
            for v, s in sorted(query.evidence.items())
        )
        label = f"{label}|{obs}"
    return label


def run_benchmark(
    net: Network,
    strategies: Sequence[Strategy],
    queries: Sequence[Query] | None = None,
    *,
    guard_mults: int = DEFAULT_GUARD_MULTS,
) -> BenchReport:
    """Run every (query, strategy) cell.  ``queries`` defaults to the
    marginal of every network variable.

    Each strategy is expanded once.  Cells that trip a guard are recorded
    as aborted, with the partial stats and the guard's message as
    ``reason``, and are excluded from the totals' multiplications and from
    the agreement check; every cell of a strategy whose expansion a guard
    refuses is aborted with that message and zero counts.  Any disagreement
    among completed cells beyond ``AGREEMENT_ATOL`` raises
    :class:`AgreementError`.  Every query runs under ``guard_mults`` and
    :data:`TABLE_ENTRY_GUARD`.
    """
    if queries is None:
        query_list = [Query((v.id,), {}) for v in net.variables]
    else:
        query_list = list(queries)

    # A strategy whose expansion a guard refuses keeps the refusal instead.
    nets: dict[Strategy, ExpandedNetwork | GuardExceededError] = {}
    for strategy in strategies:
        try:
            nets[strategy], _ = expand(net, strategy)
        except GuardExceededError as exc:
            nets[strategy] = exc

    cells: list[BenchCell] = []
    for query in query_list:
        label = query_label(net, query)
        answers: list[np.ndarray] = []
        for strategy in strategies:
            target = nets[strategy]
            start = time.perf_counter()
            if isinstance(target, GuardExceededError):
                stats, reason = EliminationStats(), str(target)
            else:
                try:
                    posterior, stats = query_posterior(
                        target,
                        query,
                        max_multiplications=guard_mults,
                        max_table_entries=TABLE_ENTRY_GUARD,
                    )
                    reason = None
                    answers.append(posterior.values)
                except GuardExceededError as exc:
                    stats, reason = exc.stats, str(exc)
            elapsed = (time.perf_counter() - start) * 1000.0
            cells.append(BenchCell(label, strategy.value, stats, elapsed, reason))
        if len(answers) > 1:
            # The largest spread per entry is the worst pairwise deviation.
            worst = float(np.ptp(np.stack(answers), axis=0).max())
            if worst > AGREEMENT_ATOL:
                raise AgreementError(label, worst)

    return BenchReport(tuple(cells), tuple(s.value for s in strategies), len(query_list))
