"""Discrete-network model: variables, dense factors, noisy-max declarations,
structural validation, and the on-disk JSON format.

Tables are dense numpy arrays.  A factor over scope ``(v1, ..., vk)`` stores
one entry per joint assignment in row-major order with the LAST scope
variable varying fastest, so ``values.ravel()`` is the canonical flat layout
and ``numpy.ravel_multi_index`` maps assignments to flat offsets.  Entries of a
factor may be negative or exceed one; only conditional tables supplied in
network files are required to normalize.

Networks are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import graphlib
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

LINK_ROW_ATOL = 1e-12
TABLE_SLICE_ATOL = 1e-9


class NetworkError(Exception):
    """Base class for model construction and validation failures."""

    code = "network-error"


class NetworkSyntaxError(NetworkError):
    """The document is not syntactically valid JSON; carries the position."""

    code = "syntax-error"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(NetworkError):
    """Structurally malformed network: missing keys, bad shapes, duplicates."""

    code = "schema-error"


class CycleError(NetworkError):
    """The parent graph contains a directed cycle."""

    code = "cycle-detected"


class DanglingReferenceError(NetworkError):
    """A node references a variable that does not exist."""

    code = "dangling-reference"


class MalformedDistributionError(NetworkError):
    """A probability row or table slice does not normalize (or is negative)."""

    code = "malformed-distribution"


class GuardExceededError(Exception):
    """A resource guard tripped: enumeration size, table entries, or
    multiplication budget.  ``stats`` carries the partial counts of the
    elimination that tripped it, if any."""

    code = "guard-exceeded"

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


def _require_probabilities(values: np.ndarray, context: str):
    """Every entry non-negative and not NaN (``json.loads`` reads ``NaN``,
    and ``null`` converts to NaN); an infinite entry fails its sum check."""
    if not (values >= 0).all():
        kind = "negative" if (values < 0).any() else "non-finite"
        raise MalformedDistributionError(f"{context}: {kind} probability")


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered finite domain.

    The ``id`` is the variable's position in its network.  For effect
    variables of noisy-max nodes the domain order is semantic: state 0 is the
    lowest value under the max operator, the last state the highest.
    """

    id: int
    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        if len(self.domain) < 2:
            raise SchemaError(f"variable {self.name!r}: domain needs at least 2 states")
        if len(set(self.domain)) != len(self.domain):
            raise SchemaError(f"variable {self.name!r}: duplicate state names")

    @property
    def size(self) -> int:
        return len(self.domain)


@dataclass(frozen=True, eq=False)
class Factor:
    """A real-valued dense table over a scope of variable ids.

    ``values`` has one axis per scope variable, in scope order; a C-order
    ravel therefore matches the row-major, last-variable-fastest layout.
    Entries are arbitrary reals (negative values are legal).  Every axis
    has two states or more, as every :class:`Variable` has.
    """

    scope: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        scope = tuple(self.scope)
        values = np.asarray(self.values, dtype=float)
        if len(set(scope)) != len(scope):
            raise ValueError(f"duplicate variable in factor scope {scope}")
        if values.ndim != len(scope):
            raise ValueError(
                f"factor values have {values.ndim} axes for a scope of {len(scope)}"
            )
        if min(values.shape, default=2) < 2:
            raise ValueError(f"factor of shape {values.shape} has an axis of fewer than 2 states")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "values", values)

    @classmethod
    def _of(cls, scope: tuple[int, ...], values) -> "Factor":
        """Unchecked constructor for tables the engine derives from checked
        factors (a numpy scalar from a full reduction becomes a 0-d array)."""
        f = object.__new__(cls)
        f.__dict__.update(scope=scope, values=np.asarray(values))
        return f

    @classmethod
    def from_flat(cls, scope: Sequence[int], sizes: Sequence[int], flat) -> "Factor":
        """Build a factor from the canonical flat layout."""
        values = np.asarray(flat, dtype=float)
        expected = math.prod(sizes) if sizes else 1
        if values.ndim != 1:
            raise ValueError(f"expected a flat list of {expected} entries, got {values.ndim} axes")
        if values.size != expected:
            raise ValueError(f"expected {expected} entries, got {values.size}")
        return cls(tuple(scope), values.reshape(tuple(sizes)))

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factor):
            return NotImplemented
        return self.scope == other.scope and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class NoisyMaxCpd:
    """An unexpanded noisy-max node: the effect is distributed as the max of
    independent per-cause contributions, each drawn from its link rows.
    ``links[i][c][a]`` is the probability that ``causes[i]``, in state ``c``,
    contributes effect value ``a``; every row is a distribution over the
    effect domain.

    The optional ``leak`` is a distribution over the effect domain acting as
    one extra, always-on contribution (a virtual cause with a single state).
    """

    effect: int
    causes: tuple[int, ...]
    links: tuple[np.ndarray, ...]
    leak: np.ndarray | None = None

    def __post_init__(self):
        causes = tuple(self.causes)
        links = tuple(np.asarray(rows, dtype=float) for rows in self.links)
        for cause, rows in zip(causes, links):
            if rows.ndim != 2:
                raise SchemaError(f"link table for cause {cause}: rows must be 2-D")
            _require_probabilities(rows, f"link table for cause {cause}")
            sums = rows.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > LINK_ROW_ATOL):
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise MalformedDistributionError(
                    f"link table for cause {cause}: row {bad} sums to {float(sums[bad])}"
                )
        if not causes:
            raise SchemaError(f"noisy-max node {self.effect}: needs at least one cause")
        if len(set(causes)) != len(causes):
            raise SchemaError(f"noisy-max node {self.effect}: duplicate cause")
        if self.effect in causes:
            raise SchemaError(f"noisy-max node {self.effect}: effect listed as its own cause")
        if len(links) != len(causes):
            raise SchemaError(
                f"noisy-max node {self.effect}: {len(links)} link tables for {len(causes)} causes"
            )
        leak = self.leak
        if leak is not None:
            leak = np.asarray(leak, dtype=float)
            if leak.ndim != 1:
                raise SchemaError(f"noisy-max node {self.effect}: leak must be a vector")
            _require_probabilities(leak, f"noisy-max node {self.effect}: leak")
            if abs(leak.sum() - 1.0) > LINK_ROW_ATOL:
                raise MalformedDistributionError(
                    f"noisy-max node {self.effect}: leak is not a distribution"
                )
        object.__setattr__(self, "causes", causes)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "leak", leak)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoisyMaxCpd):
            return NotImplemented
        # Equal causes imply equally many link tables.
        return (
            self.effect == other.effect
            and self.causes == other.causes
            and all(np.array_equal(a, b) for a, b in zip(self.links, other.links))
            and (self.leak is None) == (other.leak is None)
            and (self.leak is None or np.array_equal(self.leak, other.leak))
        )


@dataclass(frozen=True, eq=False)
class TableCpd:
    """A plain conditional table.  The factor scope is ``parents + (child,)``
    and every child slice (sum over the last axis) equals one."""

    factor: Factor

    def __post_init__(self):
        if not self.factor.scope:
            raise SchemaError("table node: empty scope")
        values = self.factor.values
        _require_probabilities(values, f"table for variable {self.child}")
        sums = values.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > TABLE_SLICE_ATOL):
            raise MalformedDistributionError(
                f"table for variable {self.child}: child slices do not sum to 1"
            )

    @property
    def child(self) -> int:
        return self.factor.scope[-1]

    @property
    def parents(self) -> tuple[int, ...]:
        return self.factor.scope[:-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableCpd):
            return NotImplemented
        return self.factor == other.factor


Node = Union[TableCpd, NoisyMaxCpd]


def node_child(node: Node) -> int:
    return node.effect if isinstance(node, NoisyMaxCpd) else node.child


def node_parents(node: Node) -> tuple[int, ...]:
    return node.causes if isinstance(node, NoisyMaxCpd) else node.parents


@dataclass(frozen=True, eq=False)
class Network:
    """A directed acyclic network: one node (table or noisy-max) per variable.

    ``variables[i].id == i``; nodes may be passed in any order and are
    realigned so that ``nodes[i]`` governs variable ``i``.  Construction
    validates every structural invariant and raises a :class:`NetworkError`
    subclass on the first violation.
    """

    variables: tuple[Variable, ...]
    nodes: tuple[Node, ...]

    def __post_init__(self):
        variables = tuple(self.variables)
        if not variables:
            raise SchemaError("network needs at least one variable")
        for position, var in enumerate(variables):
            if var.id != position:
                raise SchemaError(
                    f"variable {var.name!r} has id {var.id}, expected position {position}"
                )
        seen: set[str] = set()
        for var in variables:
            if var.name in seen:
                raise SchemaError(f"duplicate variable name {var.name!r}")
            seen.add(var.name)

        n = len(variables)
        by_child: dict[int, Node] = {}
        for node in self.nodes:
            for ref in (node_child(node),) + node_parents(node):
                if not 0 <= ref < n:
                    raise DanglingReferenceError(f"node references unknown variable id {ref}")
            child = node_child(node)
            if child in by_child:
                raise SchemaError(f"variable {variables[child].name!r} has two nodes")
            by_child[child] = node
        missing = [variables[i].name for i in range(n) if i not in by_child]
        if missing:
            raise SchemaError(f"variables without a node: {missing}")

        aligned = tuple(by_child[i] for i in range(n))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "nodes", aligned)
        self._check_shapes()
        self._check_acyclic()

    def _check_shapes(self):
        for node in self.nodes:
            child = node_child(node)
            if isinstance(node, TableCpd):
                expected = tuple(self.variables[v].size for v in node.factor.scope)
                if node.factor.values.shape != expected:
                    raise SchemaError(
                        f"table for {self.variables[child].name!r}: shape "
                        f"{node.factor.values.shape} does not match domains {expected}"
                    )
            else:
                m = self.variables[node.effect].size
                for cause, rows in zip(node.causes, node.links):
                    expected = (self.variables[cause].size, m)
                    if rows.shape != expected:
                        raise SchemaError(
                            f"noisy-max {self.variables[child].name!r}: link for "
                            f"{self.variables[cause].name!r} has shape "
                            f"{rows.shape}, expected {expected}"
                        )
                if node.leak is not None and node.leak.shape != (m,):
                    raise SchemaError(
                        f"noisy-max {self.variables[child].name!r}: leak length "
                        f"{node.leak.shape[0]}, expected {m}"
                    )

    def _check_acyclic(self):
        graph = {child: node_parents(node) for child, node in enumerate(self.nodes)}
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as exc:
            # exc.args[1] is one cycle, its first variable repeated at the end.
            cycle = [self.variables[i].name for i in exc.args[1][:-1]]
            raise CycleError(f"cycle detected among variables {cycle}") from None

    @property
    def names(self) -> dict[str, int]:
        return {v.name: v.id for v in self.variables}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.variables == other.variables and self.nodes == other.nodes


def _require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def _as_state_list(value, context: str) -> list:
    _require(isinstance(value, list) and value, f"{context}: expected a non-empty list")
    return value


def _floats(value, context: str) -> np.ndarray:
    """``value``, nested JSON lists of numbers, as a float array.  Booleans
    and strings are rejected: numpy would read ``true`` as 1.0 and ``"0.5"``
    as 0.5.  An integer too large for a float is a malformed distribution,
    as ``1e400`` (read as infinity) is."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (bool, str)):
            raise SchemaError(f"{context}: {json.dumps(item)} is not a number")
        if isinstance(item, list):
            stack.extend(item)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: {exc}") from None
    except OverflowError as exc:
        raise MalformedDistributionError(f"{context}: {exc}") from None


def parse_network(text: str) -> Network:
    """Parse and validate a network document (see :func:`serialize_network`
    for the schema).  Raises a :class:`NetworkError` subclass on any defect:
    JSON syntax (with position), schema violations, dangling references,
    cycles, or malformed distributions."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise NetworkSyntaxError("document nested too deeply") from None

    _require(isinstance(doc, dict), "top-level value must be an object")
    _require("variables" in doc, "missing 'variables'")
    _require("nodes" in doc, "missing 'nodes'")

    variables = []
    for i, entry in enumerate(_as_state_list(doc["variables"], "'variables'")):
        _require(isinstance(entry, dict), f"variables[{i}]: expected an object")
        _require("name" in entry and "states" in entry, f"variables[{i}]: needs name and states")
        name, states = entry["name"], _as_state_list(entry["states"], f"variables[{i}].states")
        if not isinstance(name, str):
            raise SchemaError(f"variables[{i}].name: {json.dumps(name)} is not a string")
        for k, state in enumerate(states):
            if not isinstance(state, str):
                label = json.dumps(state)
                raise SchemaError(f"variables[{i}].states[{k}]: {label} is not a string")
        variables.append(Variable(i, name, tuple(states)))
    name_to_id = {}
    for var in variables:
        if var.name in name_to_id:
            raise SchemaError(f"duplicate variable name {var.name!r}")
        name_to_id[var.name] = var.id

    def resolve(name, context: str) -> int:
        _require(isinstance(name, str), f"{context}: variable reference {name!r} is not a string")
        if name not in name_to_id:
            raise DanglingReferenceError(f"{context}: unknown variable {name!r}")
        return name_to_id[name]

    def resolve_list(names, context: str, key: str) -> tuple[int, ...]:
        _require(isinstance(names, list), f"{context}.{key}: expected a list of variable names")
        return tuple(resolve(name, context) for name in names)

    nodes: list[Node] = []
    raw_nodes = doc["nodes"]
    _require(isinstance(raw_nodes, list), "'nodes': expected a list")
    for i, entry in enumerate(raw_nodes):
        context = f"nodes[{i}]"
        _require(isinstance(entry, dict), f"{context}: expected an object")
        _require("child" in entry and "cpd" in entry, f"{context}: needs child and cpd")
        child = resolve(entry["child"], context)
        cpd = entry["cpd"]
        _require(isinstance(cpd, dict) and "type" in cpd, f"{context}.cpd: needs a type")
        kind = cpd["type"]
        if kind == "table":
            parents = resolve_list(entry.get("parents", []), context, "parents")
            _require("values" in cpd, f"{context}.cpd: table needs values")
            scope = parents + (child,)
            sizes = tuple(variables[v].size for v in scope)
            try:
                factor = Factor.from_flat(scope, sizes, _floats(cpd["values"], context))
            except ValueError as exc:
                raise SchemaError(f"{context}: {exc}") from None
            nodes.append(TableCpd(factor))
        elif kind == "noisy-max":
            _require("causes" in cpd and "links" in cpd, f"{context}.cpd: needs causes and links")
            causes = resolve_list(cpd["causes"], context, "cpd.causes")
            parents = entry.get("parents", cpd["causes"])
            if parents != cpd["causes"]:
                listed = json.dumps(parents)
                raise SchemaError(f"{context}.parents: {listed} is not cpd.causes, in order")
            raw_links = cpd["links"]
            _require(isinstance(raw_links, list), f"{context}.cpd.links: expected a list")
            links = tuple(
                _floats(rows, f"{context}.cpd.links[{k}]") for k, rows in enumerate(raw_links)
            )
            leak = cpd.get("leak")
            if leak is not None:
                leak = _floats(leak, f"{context}.cpd.leak")
            nodes.append(NoisyMaxCpd(child, causes, links, leak))
        else:
            raise SchemaError(f"{context}.cpd: unknown type {kind!r}")

    return Network(tuple(variables), tuple(nodes))


def serialize_network(net: Network) -> str:
    """Canonical JSON form.  ``parse_network(serialize_network(net))`` is
    structurally identical to ``net``.

    Schema::

        {"variables": [{"name": str, "states": [str, ...]}, ...],
         "nodes": [{"child": str, "parents": [str, ...],
                    "cpd": {"type": "table", "values": [num, ...]}}
                   | {"child": str,
                      "cpd": {"type": "noisy-max", "causes": [str, ...],
                              "links": [[[num, ...], ...], ...],
                              "leak": [num, ...]?}}]}

    Table values use the canonical flat layout over scope ``parents + child``;
    ``links[i][c][a]`` is the link row entry for cause ``i`` in state ``c``
    contributing effect value ``a``; state order in ``states`` is the
    semantic order of the max operator.
    """
    names = [v.name for v in net.variables]
    doc_nodes = []
    for node in net.nodes:
        if isinstance(node, TableCpd):
            doc_nodes.append(
                {
                    "child": names[node.child],
                    "parents": [names[p] for p in node.parents],
                    "cpd": {"type": "table", "values": node.factor.values.ravel().tolist()},
                }
            )
        else:
            cpd = {
                "type": "noisy-max",
                "causes": [names[c] for c in node.causes],
                "links": [rows.tolist() for rows in node.links],
            }
            if node.leak is not None:
                cpd["leak"] = node.leak.tolist()
            doc_nodes.append({"child": names[node.effect], "cpd": cpd})
    doc = {
        "variables": [{"name": v.name, "states": list(v.domain)} for v in net.variables],
        "nodes": doc_nodes,
    }
    return json.dumps(doc, indent=2) + "\n"
