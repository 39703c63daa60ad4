"""Expansion of noisy-max nodes into plain factors.

Four strategies are provided.  The first three give each contribution its
own variable and join those into the effect through a tree of deterministic
max tables; one builder makes all three and only the tree's shape differs:

* ``trivial``              -- one flat node: a single dense table encoding the
  n-ary max over the contribution variables.
* ``parent-divorcing``     -- a balanced binary tree of binary-max tables.
* ``temporal``             -- a left-deep chain of binary-max tables (the
  leading identity node is elided by feeding the first contribution
  directly into the first combine).

The fourth does without the max tree:

* ``multiplicative``       -- for an effect with m values, m-1 two-state
  auxiliary variables, one per prefix of the effect domain.  State ``V``
  of prefix variable i carries, per cause, the cumulative probability that
  the cause contributes a value within the first i states; state ``I``
  carries 1.  A single signed selector table over the prefix variables
  turns the products of cumulative masses into effect probabilities by
  telescoping differences.  The per-cause tables stay pairwise; the joint
  product over all causes is never materialized.

All strategies marginalize back to the same conditional table, which
:func:`oracle_cpd` computes independently by enumerating every combination
of per-cause contributions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Callable, Iterator, Mapping

import numpy as np

from .model import (
    Factor,
    GuardExceededError,
    Network,
    NoisyMaxCpd,
    TableCpd,
    Variable,
)

V_STATE = "V"
I_STATE = "I"
PREFIX_DOMAIN = (V_STATE, I_STATE)

ORACLE_ENUMERATION_GUARD = 10**7
TABLE_ENTRY_GUARD = 10**7


class Strategy(Enum):
    """Closed enumeration of the expansion strategies."""

    TRIVIAL = "trivial"
    PARENT_DIVORCING = "parent-divorcing"
    TEMPORAL = "temporal"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class ExpansionResult:
    """Factors and auxiliary variables produced for one noisy-max node.

    ``encoding_entry_count`` counts only the machinery tables (max tables or
    the effect selector), not tables restating knowledge-engineer input;
    ``total_entry_count`` counts every emitted entry.
    """

    factors: tuple[Factor, ...]
    auxiliary_variables: tuple[Variable, ...]
    encoding_entry_count: int
    total_entry_count: int


def _contribution_rows(cpd: NoisyMaxCpd) -> list[tuple[int | None, np.ndarray]]:
    """Per-contribution link rows; the leak appears as a one-row table with
    no cause variable (a virtual always-on cause)."""
    rows = [(cause, link.rows) for cause, link in zip(cpd.causes, cpd.links)]
    if cpd.leak is not None:
        rows.append((None, cpd.leak.reshape(1, -1)))
    return rows


def oracle_cpd(cpd: NoisyMaxCpd, variables: Mapping[int, Variable]) -> Factor:
    """Exact conditional table P(effect | causes) by brute-force enumeration
    of all per-cause contribution combinations.  Scope is
    ``causes + (effect,)``; every child slice sums to one.

    Serves as the independent reference for every expansion strategy.
    """
    effect = variables[cpd.effect]
    m = effect.size
    contribs = _contribution_rows(cpd)
    if m ** len(contribs) > ORACLE_ENUMERATION_GUARD:
        raise GuardExceededError(
            f"{m}^{len(contribs)} contribution combinations exceed the enumeration guard"
        )
    cause_sizes = tuple(variables[c].size for c in cpd.causes)
    n_causes = len(cpd.causes)
    out = np.zeros(cause_sizes + (m,))
    for combo in itertools.product(range(m), repeat=len(contribs)):
        weight = reduce(
            np.multiply.outer, (contribs[j][1][:, combo[j]] for j in range(n_causes))
        )
        for j in range(n_causes, len(contribs)):
            weight = weight * contribs[j][1][0, combo[j]]
        out[..., max(combo)] += weight
    return Factor(cpd.causes + (cpd.effect,), out)


def _max_table(m: int, arity: int) -> np.ndarray:
    """Deterministic table of ``out = max(in_1, ..., in_arity)`` over an
    m-valued domain, with the output on the last axis."""
    if m ** (arity + 1) > TABLE_ENTRY_GUARD:
        raise GuardExceededError(f"max table would hold {m}^{arity + 1} entries")
    # Outer maxima, not np.indices: the index grid holds arity times more
    # integers than the table has input cells.
    mx = reduce(np.maximum.outer, [np.arange(m)] * arity)
    return (mx[..., None] == np.arange(m)).astype(float)


def _flat(ids: list[int]) -> list[list[int]]:
    return [[i] for i in ids]


def _balanced(ids: list[int]) -> list[list[int]]:
    mid = (len(ids) + 1) // 2
    return [ids[:mid], ids[mid:]]


def _chain(ids: list[int]) -> list[list[int]]:
    return [ids[:-1], ids[-1:]]


# How each max-based strategy splits a run of inputs among one node's children.
_Split = Callable[[list[int]], list[list[int]]]
_SPLITS: dict[Strategy, _Split] = {
    Strategy.TRIVIAL: _flat,
    Strategy.PARENT_DIVORCING: _balanced,
    Strategy.TEMPORAL: _chain,
}


def _max_tree(
    effect: Variable,
    contribs: list[tuple[int | None, np.ndarray]],
    fresh: Iterator[int],
    split: _Split,
) -> tuple[list[Factor], list[Variable], int]:
    """One contribution variable per contribution (carrying the effect
    domain, tied to its cause or, for the leak, a bare prior), joined into
    the effect by a tree of max tables whose shape ``split`` decides.
    Intermediate variables are allocated depth-first, in pre-order, after
    the contribution variables; each node's table follows its subtrees'.
    Returns the factors, the auxiliary variables and the max-table entry
    count."""
    m = effect.size
    factors, aux_vars = [], []
    for position, (cause, rows) in enumerate(contribs):
        if cause is None:
            var = Variable(next(fresh), f"{effect.name}__leak", effect.domain)
            factors.append(Factor((var.id,), rows[0]))
        else:
            var = Variable(next(fresh), f"{effect.name}__in{position}", effect.domain)
            factors.append(Factor((cause, var.id), rows))
        aux_vars.append(var)

    # An explicit stack of (output, remaining parts, inputs so far) instead
    # of recursion: a temporal chain is as deep as the node has causes.
    tables: dict[int, np.ndarray] = {}
    encoding = 0
    stack = [(effect.id, iter(split([v.id for v in aux_vars])), [])]
    while stack:
        out, parts, inputs = stack[-1]
        part = next(parts, None)
        if part is None:
            stack.pop()
            arity = len(inputs)
            if arity not in tables:
                tables[arity] = _max_table(m, arity)
            factors.append(Factor(tuple(inputs) + (out,), tables[arity]))
            encoding += tables[arity].size
        elif len(part) == 1:
            inputs.append(part[0])
        else:
            vid = next(fresh)
            aux_vars.append(Variable(vid, f"{effect.name}__max{vid}", effect.domain))
            inputs.append(vid)
            stack.append((vid, iter(split(part)), []))
    return factors, aux_vars, encoding


def _selector_values(m: int) -> np.ndarray:
    """Signed selector over the m-1 prefix variables and the effect.

    Axis order: prefix variables 1..m-1 (states V=0, I=1), then the effect.
    For each prefix j the lone-V pattern contributes +1 at effect value j-1
    and -1 at effect value j; the all-I pattern contributes +1 at the top
    effect value.  Entries lie in {-1, 0, +1} and sum to one.
    """
    values = np.zeros((2,) * (m - 1) + (m,))
    all_i = (1,) * (m - 1)
    values[all_i + (m - 1,)] = 1.0
    for j in range(1, m):
        pattern = [1] * (m - 1)
        pattern[j - 1] = 0
        values[tuple(pattern) + (j - 1,)] = 1.0
        values[tuple(pattern) + (j,)] = -1.0
    return values


def _multiplicative(
    effect: Variable,
    contribs: list[tuple[int | None, np.ndarray]],
    fresh: Iterator[int],
) -> tuple[list[Factor], list[Variable], int]:
    """m-1 two-state prefix variables, one pairwise cumulative table per
    (prefix, contribution), and one signed effect selector.  No table over
    more than one cause is ever produced.  Returns the factors, the prefix
    variables and the selector's entry count."""
    m = effect.size
    prefix_ids, aux_vars, factors = [], [], []
    for i in range(1, m):
        var = Variable(next(fresh), f"{effect.name}__cum{i}", PREFIX_DOMAIN)
        prefix_ids.append(var.id)
        aux_vars.append(var)
        for cause, rows in contribs:
            v_row = rows[:, :i].sum(axis=1)
            if cause is None:
                factors.append(Factor((var.id,), np.array([v_row[0], 1.0])))
            else:
                factors.append(Factor((var.id, cause), np.stack([v_row, np.ones_like(v_row)])))

    selector = Factor(tuple(prefix_ids) + (effect.id,), _selector_values(m))
    factors.append(selector)
    return factors, aux_vars, selector.size


def expand_cpd(
    cpd: NoisyMaxCpd,
    variables: Mapping[int, Variable],
    strategy: Strategy,
    id_base: int | None = None,
) -> ExpansionResult:
    """Expand one noisy-max node under ``strategy``.  Auxiliary ids start at
    ``id_base`` (default: one past the largest id in ``variables``).  A lone
    contribution is its own conditional table under every strategy."""
    contribs = _contribution_rows(cpd)
    if len(contribs) == 1:
        (cause, rows), = contribs
        factor = Factor((cause, cpd.effect), rows)
        return ExpansionResult((factor,), (), 0, factor.size)
    effect = variables[cpd.effect]
    fresh = itertools.count(max(variables) + 1 if id_base is None else id_base)
    if strategy is Strategy.MULTIPLICATIVE:
        factors, aux_vars, encoding = _multiplicative(effect, contribs, fresh)
    else:
        factors, aux_vars, encoding = _max_tree(effect, contribs, fresh, _SPLITS[strategy])
    return ExpansionResult(
        tuple(factors), tuple(aux_vars), encoding, sum(f.size for f in factors)
    )


def encoding_entries(strategy: Strategy, n_contributions: int, m: int) -> int:
    """Entry count of the machinery tables a strategy would emit for
    ``n_contributions`` contributions over an m-valued effect."""
    if n_contributions == 1:
        return 0
    if strategy is Strategy.TRIVIAL:
        return m ** (n_contributions + 1)
    if strategy is Strategy.MULTIPLICATIVE:
        return m * 2 ** (m - 1)
    # Every binary tree over n leaves has n-1 combines of m**3 entries.
    if strategy in (Strategy.PARENT_DIVORCING, Strategy.TEMPORAL):
        return (n_contributions - 1) * m**3
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass(frozen=True)
class SizeRow:
    child: str
    strategy: str
    encoding_entries: int
    total_entries: int
    auxiliary_count: int


@dataclass(frozen=True)
class SizeReport:
    """Per-node size accounting for one expansion pass."""

    strategy: Strategy
    rows: tuple[SizeRow, ...]

    @property
    def encoding_total(self) -> int:
        return sum(r.encoding_entries for r in self.rows)

    @property
    def entry_total(self) -> int:
        return sum(r.total_entries for r in self.rows)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "nodes": [
                {
                    "child": r.child,
                    "strategy": r.strategy,
                    "encoding_entries": r.encoding_entries,
                    "total_entries": r.total_entries,
                    "auxiliary_count": r.auxiliary_count,
                }
                for r in self.rows
            ],
            "totals": {
                "encoding_entries": self.encoding_total,
                "total_entries": self.entry_total,
            },
        }


@dataclass(frozen=True)
class ExpandedNetwork:
    """A plain factor network: the original variables plus any auxiliary
    variables, one factor group per original node.  Factors may hold
    negative entries; this container has no normalization invariants."""

    source: Network
    variables: Mapping[int, Variable]
    factors: tuple[Factor, ...]
    groups: tuple[tuple[int, ...], ...]  # per original node, its factors' indices

    @property
    def original_ids(self) -> range:
        return range(len(self.source.variables))

    @property
    def auxiliary_ids(self) -> tuple[int, ...]:
        n = len(self.source.variables)
        return tuple(vid for vid in self.variables if vid >= n)

    def size_of(self, vid: int) -> int:
        return self.variables[vid].size


def expand(net: Network, strategy: Strategy) -> tuple[ExpandedNetwork, SizeReport]:
    """Apply ``strategy`` to every noisy-max node of ``net``.  The result
    contains only plain factors and preserves the original variable set;
    the report aggregates per-node entry counts (zero rows when the network
    has no noisy-max nodes)."""
    variables: dict[int, Variable] = {v.id: v for v in net.variables}
    next_id = len(net.variables)
    factors: list[Factor] = []
    groups: list[tuple[int, ...]] = []
    rows: list[SizeRow] = []

    for node in net.nodes:
        if isinstance(node, TableCpd):
            factors.append(node.factor)
            groups.append((len(factors) - 1,))
            continue
        result = expand_cpd(node, variables, strategy, id_base=next_id)
        for aux in result.auxiliary_variables:
            variables[aux.id] = aux
        next_id += len(result.auxiliary_variables)
        start = len(factors)
        factors.extend(result.factors)
        groups.append(tuple(range(start, len(factors))))
        rows.append(
            SizeRow(
                net.var(node.effect).name,
                strategy.value,
                result.encoding_entry_count,
                result.total_entry_count,
                len(result.auxiliary_variables),
            )
        )

    expanded = ExpandedNetwork(net, variables, tuple(factors), tuple(groups))
    return expanded, SizeReport(strategy, tuple(rows))
