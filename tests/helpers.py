"""Shared builders for the test suite."""

from __future__ import annotations

from unittest import mock

import numpy as np

from noisymax import (
    ExpansionResult,
    Factor,
    GeneratorSpec,
    Network,
    NoisyMaxCpd,
    TableCpd,
    Variable,
    eliminate,
    generate,
    infer,
)


def noisy_or_network() -> Network:
    """Two-cause noisy-or with priors 0.5, activation 0.8 / 0.6, and
    degenerate rows for absent causes.  P(E=T) = 0.58."""
    variables = (
        Variable(0, "C1", ("F", "T")),
        Variable(1, "C2", ("F", "T")),
        Variable(2, "E", ("F", "T")),
    )
    nodes = (
        TableCpd(Factor((0,), [0.5, 0.5])),
        TableCpd(Factor((1,), [0.5, 0.5])),
        NoisyMaxCpd(
            2,
            (0, 1),
            ([[1, 0], [0.2, 0.8]], [[1, 0], [0.4, 0.6]]),
        ),
    )
    return Network(variables, nodes)


def references_doc(kind: str) -> dict:
    """A network document with variables ``a``, ``b`` and ``ab``, where
    ``ab`` is a ``"table"`` or ``"noisy-max"`` child of ``a`` and ``b``: one
    name spells two others."""
    if kind == "table":
        cpd = {"type": "table", "values": [0.5] * 8}
        node = {"child": "ab", "parents": ["a", "b"], "cpd": cpd}
    else:
        cpd = {"type": "noisy-max", "causes": ["a", "b"], "links": [[[1, 0], [0.2, 0.8]]] * 2}
        node = {"child": "ab", "cpd": cpd}
    prior = {"type": "table", "values": [0.5, 0.5]}
    return {
        "variables": [{"name": n, "states": ["F", "T"]} for n in ("a", "b", "ab")],
        "nodes": [{"child": n, "parents": [], "cpd": prior} for n in "ab"] + [node],
    }


def wide_noisy_or_network(m: int) -> Network:
    """Two causes with priors 0.5 and an m-state effect: an absent cause
    contributes state 0, a present one every state equally."""
    variables = (
        Variable(0, "C1", ("F", "T")),
        Variable(1, "C2", ("F", "T")),
        Variable(2, "E", tuple(f"l{k}" for k in range(m))),
    )
    rows = [[1.0] + [0.0] * (m - 1), [1.0 / m] * m]
    nodes = (
        TableCpd(Factor((0,), [0.5, 0.5])),
        TableCpd(Factor((1,), [0.5, 0.5])),
        NoisyMaxCpd(2, (0, 1), (rows, rows)),
    )
    return Network(variables, nodes)


def three_value_cpd():
    """Two-cause noisy-max over (L, M, H) with the worked link rows
    (.5, .3, .2) and (.4, .4, .2) for present causes."""
    variables = {
        0: Variable(0, "C1", ("F", "T")),
        1: Variable(1, "C2", ("F", "T")),
        2: Variable(2, "E", ("L", "M", "H")),
    }
    cpd = NoisyMaxCpd(
        2,
        (0, 1),
        (
            [[1, 0, 0], [0.5, 0.3, 0.2]],
            [[1, 0, 0], [0.4, 0.4, 0.2]],
        ),
    )
    return cpd, variables


def random_rows(rng: np.random.Generator, states: int, m: int) -> np.ndarray:
    rows = rng.random((states, m)) + 1e-3
    return rows / rows.sum(axis=1, keepdims=True)


def random_noisymax(
    rng: np.random.Generator,
    n_causes: int,
    m: int,
    max_cause_size: int = 3,
    with_leak: bool = False,
):
    """A standalone noisy-max node over fresh variables 0..n (effect last)."""
    variables = {}
    causes = []
    for i in range(n_causes):
        size = int(rng.integers(2, max_cause_size + 1))
        variables[i] = Variable(i, f"c{i}", tuple(f"s{k}" for k in range(size)))
        causes.append(i)
    effect = n_causes
    variables[effect] = Variable(effect, "e", tuple(f"a{k}" for k in range(m)))
    links = tuple(random_rows(rng, variables[c].size, m) for c in causes)
    leak = None
    if with_leak:
        leak = random_rows(rng, 1, m)[0]
    return NoisyMaxCpd(effect, tuple(causes), links, leak), variables


def recover_cpd(result: ExpansionResult, cpd: NoisyMaxCpd) -> Factor:
    """Multiply an expansion's factors and sum out its auxiliary variables.
    Returns the conditional table aligned to ``causes + (effect,)``."""
    return eliminate(result.factors, cpd.causes + (cpd.effect,))


def fixed_order(order):
    """Context in which ``eliminate`` plans ``order``, its eliminable
    variables in turn: min-fill returns it, and so does min-weight, so the
    search never plans another."""
    return mock.patch.object(
        infer,
        "_min_fill_order",
        lambda scopes, size, eliminable, by_weight=False: [v for v in order if v in eliminable],
    )


def random_network(seed: int, max_domain: int = 4) -> Network:
    """Small layered network (at most 12 variables) derived deterministically
    from the seed."""
    mix = SplitSeed(seed)
    diseases = 2 + mix(5)
    spec = GeneratorSpec(
        kind="multilevel" if seed % 2 else "bn2o",
        seed=seed,
        diseases=diseases,
        findings=1 + mix(6),
        max_parents=1 + mix(min(3, diseases)),
        effect_domain_size=2 + mix(max_domain - 1),
        link_density=1.0,
    )
    return generate(spec)


def single_effect_network(n: int, seed: int = 0) -> Network:
    """Two-level network: n binary causes with small priors feeding one
    noisy-or effect through random activation strengths."""
    rng = np.random.default_rng(seed)
    variables = tuple(Variable(i, f"d{i}", ("F", "T")) for i in range(n)) + (
        Variable(n, "e", ("F", "T")),
    )
    links = []
    for i in range(n):
        activation = rng.uniform(0.2, 0.9)
        links.append([[1, 0], [1 - activation, activation]])
    nodes = tuple(TableCpd(Factor((i,), [0.95, 0.05])) for i in range(n)) + (
        NoisyMaxCpd(n, tuple(range(n)), tuple(links)),
    )
    return Network(variables, nodes)


class SplitSeed:
    """Tiny deterministic parameter scrambler for test fixtures."""

    def __init__(self, seed: int):
        self.state = seed * 2654435761 % 2**32

    def __call__(self, bound: int) -> int:
        self.state = (self.state * 1103515245 + 12345) % 2**31
        return self.state % bound
