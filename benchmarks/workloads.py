"""Seeded workloads of the noisymax benchmark.

A workload is a suite of cells.  A cell answers one question under one
expansion strategy, through ``query_posterior``'s default heuristic.  Cells
of one group ask the same question, so every completed cell of a group must
give the same answer; a group may also carry reference answers computed
independently of the elimination engine.

Cells call the layers through their module attributes (``infer.query_posterior``,
``factorize.expand``, ...), so the tracer can wrap them at run time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from noisymax import bench, factorize, infer, model
from noisymax.factorize import Strategy
from noisymax.infer import Query

# The benchmark's own load: the seed's ``bench`` defaults, never the environment.
GUARD_MULTS = 10**8
GUARD_ENTRIES = 10**7

# ``brute_force_joint`` enumerates all m**(n + 1) contribution combinations of
# an effect in Python; beyond this it is slow, and its guard rejects wide
# effects with m >= 3.
BRUTE_FORCE_COMBINATIONS = 4096


@dataclass(frozen=True)
class Outcome:
    answers: tuple[np.ndarray, ...]
    multiplications: int
    peak_entries: int


@dataclass(frozen=True)
class Cell:
    group: str
    strategy: Strategy
    # Raises GuardExceededError when a guard trips.
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Suite:
    # Timed as set-up: everything a user does before the first question.
    setup: Callable[[], list[Cell]]
    # Untimed: group -> independent reference answers.
    references: Callable[[], dict[str, list[tuple[np.ndarray, ...]]]]


def _ask(expanded, query: Query):
    posterior, stats = infer.query_posterior(
        expanded, query, max_multiplications=GUARD_MULTS, max_table_entries=GUARD_ENTRIES
    )
    return posterior.values, stats


def _query_cell(expanded, query: Query) -> Outcome:
    answer, stats = _ask(expanded, query)
    return Outcome((answer,), stats.multiplications, stats.peak_table_entries)


def _load(spec: bench.GeneratorSpec) -> model.Network:
    """Generate, save and load a network, as a user of ``noisymax gen`` would."""
    return model.parse_network(model.serialize_network(bench.generate(spec)))


def _no_references() -> dict:
    return {}


# --- marginals-1200 ---------------------------------------------------------


def marginals(seed: int, diseases=400, findings=800, max_parents=8) -> Suite:
    """Every single-variable marginal of one seeded bn2o network with m = 2,
    no evidence, under all four strategies."""
    spec = bench.GeneratorSpec("bn2o", seed, diseases, findings, max_parents, 2)

    def setup() -> list[Cell]:
        net = _load(spec)
        expanded = {s: factorize.expand(net, s)[0] for s in Strategy}
        return [
            Cell(f"v{v}", s, partial(_query_cell, expanded[s], Query((v,))))
            for v in range(len(net.variables))
            for s in Strategy
        ]

    return Suite(setup, _no_references)


# --- bn2o-findings ----------------------------------------------------------

# The networks are fixed; --seed deals the diseases to the evidence patterns
# and draws the mixed evidence.  Between generator seeds, the structure alone moves one query's
# cost from 0.3M multiplications to a guard abort, which would swamp any
# change under test.  Generator seeds 3 and 2 are the lowest at which
# parent-divorcing answers and multiplicative aborts on the entry guard for
# the first disease: the regime where the paper's claim about wide fan-in
# should pay off.
FINDINGS_NETWORKS = (
    bench.GeneratorSpec("bn2o", 3, diseases=24, findings=24, max_parents=8, effect_domain_size=3),
    bench.GeneratorSpec("bn2o", 2, diseases=30, findings=40, max_parents=10, effect_domain_size=2),
)
FINDINGS_STRATEGIES = (Strategy.PARENT_DIVORCING, Strategy.MULTIPLICATIVE)
PATTERNS = ("positive", "negative", "mixed")


def _finding_patterns(spec: bench.GeneratorSpec, rng: random.Random) -> dict[str, dict[int, int]]:
    """All findings observed: at the top value, at the lowest value, and at
    a seeded value each."""
    top = spec.effect_domain_size - 1
    ids = range(spec.diseases, spec.diseases + spec.findings)
    return {
        "positive": {f: top for f in ids},
        "negative": {f: 0 for f in ids},
        "mixed": {f: rng.randint(0, top) for f in ids},
    }


def findings(seed: int, networks=FINDINGS_NETWORKS) -> Suite:
    """Posteriors of every disease given every finding, on BN2O networks.
    The seed deals the diseases out to the three evidence patterns and draws
    the mixed evidence; a pass queries each disease once, so its cost does
    not hang on which diseases the seed picks."""
    rng = random.Random(seed)
    plan = []
    for spec in networks:
        patterns = _finding_patterns(spec, rng)
        dealt = rng.sample(range(spec.diseases), spec.diseases)
        samples = {
            pattern: sorted(dealt[i :: len(PATTERNS)]) for i, pattern in enumerate(PATTERNS)
        }
        plan.append((spec, patterns, samples))

    def setup() -> list[Cell]:
        cells = []
        for index, (spec, patterns, samples) in enumerate(plan):
            net = _load(spec)
            expanded = {s: factorize.expand(net, s)[0] for s in FINDINGS_STRATEGIES}
            for pattern in PATTERNS:
                for disease in samples[pattern]:
                    query = Query((disease,), patterns[pattern])
                    group = f"net{index}/{pattern}/d{disease}"
                    cells.extend(
                        Cell(group, s, partial(_query_cell, expanded[s], query))
                        for s in FINDINGS_STRATEGIES
                    )
        return cells

    def references():
        refs = {}
        for index, (spec, patterns, samples) in enumerate(plan):
            text = model.serialize_network(bench.generate(spec))
            doc = json.loads(text)
            for disease in samples["negative"]:
                answer = _all_negative_posterior(doc, disease)
                refs[f"net{index}/negative/d{disease}"] = [(answer,)]
            # Positive and mixed findings have no cheap closed form, and most
            # multiplicative cells abort; a third expansion, never timed,
            # gives every such group a second answer.  An abort here stops
            # the run: the gate would be left without its reference.
            temporal = factorize.expand(model.parse_network(text), Strategy.TEMPORAL)[0]
            for pattern in ("positive", "mixed"):
                for disease in samples[pattern]:
                    answer, _ = _ask(temporal, Query((disease,), patterns[pattern]))
                    refs[f"net{index}/{pattern}/d{disease}"] = [(answer,)]
        return refs

    return Suite(setup, references)


def _all_negative_posterior(doc: dict, disease: int) -> np.ndarray:
    """P(disease | every finding at its lowest value) in closed form.

    A noisy-max effect takes its lowest value only when every contribution
    does, so the evidence factorizes over the diseases (Heckerman's
    Quickscore, negative findings): the posterior of one disease is its prior
    times the lowest-value link entry of each finding it causes.  A leak
    scales every disease state alike and cancels.
    """
    name = doc["variables"][disease]["name"]
    weights = None
    for node in doc["nodes"]:
        cpd = node["cpd"]
        if node["child"] == name:
            weights = np.array(cpd["values"], dtype=float)
        elif cpd["type"] == "noisy-max" and name in cpd["causes"]:
            rows = np.array(cpd["links"][cpd["causes"].index(name)], dtype=float)
            weights = weights * rows[:, 0]
    return weights / weights.sum()


# --- fanin-sweep ------------------------------------------------------------

FANIN_CAUSES = tuple(range(2, 21))
FANIN_DOMAINS = (2, 3, 4)


def _random_row(rng: random.Random, m: int) -> list[float]:
    row = [0.05 + rng.random() for _ in range(m)]
    total = sum(row)
    return [x / total for x in row]


def _fanin_doc(n: int, m: int, rng: random.Random) -> dict:
    """One noisy-max effect over n binary causes plus a leak.  An absent
    cause contributes the lowest effect value."""
    causes = [f"c{i}" for i in range(n)]
    absent = [1.0] + [0.0] * (m - 1)
    nodes = []
    for c in causes:
        p = 0.05 + 0.9 * rng.random()
        nodes.append({"child": c, "parents": [], "cpd": {"type": "table", "values": [1.0 - p, p]}})
    nodes.append(
        {
            "child": "e",
            "cpd": {
                "type": "noisy-max",
                "causes": causes,
                "links": [[absent, _random_row(rng, m)] for _ in causes],
                "leak": _random_row(rng, m),
            },
        }
    )
    variables = [{"name": c, "states": ["absent", "present"]} for c in causes]
    variables.append({"name": "e", "states": [f"l{k}" for k in range(m)]})
    return {"variables": variables, "nodes": nodes}


def _fanin_cell(net: model.Network, strategy: Strategy, effect: int, top: int) -> Outcome:
    expanded, _ = factorize.expand(net, strategy)
    p_effect, s1 = _ask(expanded, Query((effect,)))
    p_cause, s2 = _ask(expanded, Query((0,), {effect: top}))
    return Outcome(
        (p_effect, p_cause),
        s1.multiplications + s2.multiplications,
        max(s1.peak_table_entries, s2.peak_table_entries),
    )


def _fanin_closed_form(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """P(effect) and P(cause0 | effect = top) from cumulative link masses:
    P(effect <= a) is the product over contributions of P(contribution <= a)."""
    nodes = doc["nodes"]
    effect = nodes[-1]["cpd"]
    leak = np.cumsum(effect["leak"])
    per_cause = []
    for node, rows in zip(nodes[:-1], effect["links"]):
        absent_p, present_p = node["cpd"]["values"]
        cum = np.cumsum(rows, axis=1)
        per_cause.append((absent_p, present_p, cum))
    below = [a * cum[0] + p * cum[1] for a, p, cum in per_cause]
    at_most = leak * np.prod(below, axis=0)
    p_effect = np.diff(at_most, prepend=0.0)

    others = leak * np.prod(below[1:], axis=0)
    top = len(leak) - 1
    absent_p, present_p, cum = per_cause[0]
    joint = np.array(
        [
            prior * (cum[s, top] * others[top] - cum[s, top - 1] * others[top - 1])
            for s, prior in enumerate((absent_p, present_p))
        ]
    )
    return p_effect, joint / joint.sum()


def fanin(seed: int, causes=FANIN_CAUSES, domains=FANIN_DOMAINS) -> Suite:
    """One wide noisy-max effect per (n, m); each cell expands it and answers
    P(effect) and P(cause0 | effect = top)."""
    rng = random.Random(seed)
    docs = {(n, m): _fanin_doc(n, m, rng) for m in domains for n in causes}

    def setup() -> list[Cell]:
        cells = []
        for (n, m), doc in docs.items():
            net = model.parse_network(json.dumps(doc))
            cells.extend(
                Cell(f"n{n}/m{m}", s, partial(_fanin_cell, net, s, n, m - 1)) for s in Strategy
            )
        return cells

    def references():
        refs = {}
        for (n, m), doc in docs.items():
            answers = [_fanin_closed_form(doc)]
            if m ** (n + 1) <= BRUTE_FORCE_COMBINATIONS:
                net = model.parse_network(json.dumps(doc))
                answers.append(
                    (
                        infer.brute_force_joint(net, Query((n,))).values,
                        infer.brute_force_joint(net, Query((0,), {n: m - 1})).values,
                    )
                )
            refs[f"n{n}/m{m}"] = answers
        return refs

    return Suite(setup, references)


WORKLOADS: dict[str, Callable[[int], Suite]] = {
    "marginals-1200": marginals,
    "bn2o-findings": findings,
    "fanin-sweep": fanin,
}
