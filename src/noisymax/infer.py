"""Exact inference by variable elimination over dense factors.

The engine runs on expanded networks (plain factors only) and tolerates
negative entries everywhere except in the final, fully marginalized target
table, where tiny negative residue from exact cancellations is clamped to
zero.  Elimination cost is instrumented: scalar multiplications are counted
one per output entry per binary product, and the peak intermediate table
size is tracked.

``brute_force_joint`` answers the same queries from the original network by
enumerating the full joint; it shares no code path with elimination and acts
as the independent test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .factorize import ExpandedNetwork, oracle_cpd
from .model import Factor, GuardExceededError, Network, NoisyMaxCpd, node_parents

JOINT_STATE_GUARD = 2**22
NEGATIVE_MASS_RTOL = 1e-9


class InferenceError(Exception):
    """Base class for inference failures."""

    code = "inference-error"


class ZeroPosteriorError(InferenceError):
    """The normalization constant is zero: the evidence has probability
    zero, or the signed factors cancelled completely."""

    code = "zero-posterior"


class NegativeMassError(InferenceError):
    """The final unnormalized table is more negative than cancellation
    round-off can explain."""

    code = "negative-mass"


@dataclass(frozen=True)
class Query:
    """Marginal or posterior query: joint over ``targets`` given the
    observed ``evidence`` states."""

    targets: tuple[int, ...]
    evidence: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        targets = tuple(self.targets)
        evidence = dict(self.evidence)
        if not targets:
            raise ValueError("query needs at least one target")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target")
        overlap = set(targets) & set(evidence)
        if overlap:
            raise ValueError(f"variables {sorted(overlap)} are both target and evidence")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "evidence", evidence)


@dataclass
class EliminationStats:
    multiplications: int = 0
    peak_table_entries: int = 0
    ordering: list[int] = field(default_factory=list)
    relevant_vars: int = 0
    pruned_states: int = 0  # dropped by the evidence pass, restricted-away variables' included
    min_unnormalized: float = 0.0


def multiply(a: Factor, b: Factor, stats: EliminationStats | None = None) -> Factor:
    """Pointwise product.  The output scope is ``a``'s scope followed by
    ``b``'s new variables; the multiplication count grows by the output
    entry count."""
    pos_b = {v: i for i, v in enumerate(b.scope)}
    a_set = set(a.scope)
    new = [v for v in b.scope if v not in a_set]
    for i, v in enumerate(a.scope):
        j = pos_b.get(v)
        if j is not None and a.values.shape[i] != b.values.shape[j]:
            raise ValueError(
                f"domain size mismatch for shared variable {v}: "
                f"{a.values.shape[i]} vs {b.values.shape[j]}"
            )
    out_scope = a.scope + tuple(new)

    a_vals = a.values.reshape(a.values.shape + (1,) * len(new))
    order = [pos_b[v] for v in out_scope if v in pos_b]
    b_vals = b.values.transpose(order) if order else b.values
    b_shape = tuple(
        b.values.shape[pos_b[v]] if v in pos_b else 1 for v in out_scope
    )
    b_vals = b_vals.reshape(b_shape)

    out = a_vals * b_vals
    if stats is not None:
        stats.multiplications += out.size
        if out.size > stats.peak_table_entries:
            stats.peak_table_entries = out.size
    return Factor(out_scope, out)


def marginalize(f: Factor, v: int) -> Factor:
    """Sum ``v`` out of the factor.  Negative entries may cancel."""
    if v not in f.scope:
        raise ValueError(f"variable {v} not in scope {f.scope}")
    axis = f.scope.index(v)
    return Factor(f.scope[:axis] + f.scope[axis + 1 :], f.values.sum(axis=axis))


def restrict(f: Factor, v: int, state: int) -> Factor:
    """Instantiate evidence: keep the selected slice and drop ``v``."""
    if v not in f.scope:
        raise ValueError(f"variable {v} not in scope {f.scope}")
    axis = f.scope.index(v)
    if not 0 <= state < f.values.shape[axis]:
        raise ValueError(f"state {state} out of range for variable {v}")
    taken = f.values[(slice(None),) * axis + (state,)]
    return Factor(f.scope[:axis] + f.scope[axis + 1 :], taken)


def align(f: Factor, scope: Sequence[int]) -> Factor:
    """Reorder axes to the given scope (a permutation of the factor's)."""
    scope = tuple(scope)
    if set(scope) != set(f.scope) or len(scope) != len(f.scope):
        raise ValueError(f"{scope} is not a permutation of {f.scope}")
    if scope == f.scope:
        return f
    perm = [f.scope.index(v) for v in scope]
    return Factor(scope, f.values.transpose(perm))


def eliminate(
    factors: Iterable[Factor],
    keep: Sequence[int],
    *,
    order: Sequence[int] | None = None,
    stats: EliminationStats | None = None,
    max_multiplications: int | None = None,
    max_table_entries: int | None = None,
) -> Factor:
    """Sum every variable outside ``keep`` out of the product of
    ``factors`` and return the result aligned to ``keep``.

    Unless an explicit ``order`` is given, the next variable is the one
    whose elimination adds the fewest fill edges (min-fill, Kjaerulff 1990),
    ties going to the fewest entries in the product of the live factors
    containing it (sizes read from the factor shapes), then to the smallest
    id; both counts are updated edge by edge, never re-measured.  An
    explicit order must cover every eliminable variable; other entries are
    skipped.  Products are taken in factor insertion order (given factors
    first, then each summed-out table), and both guards are checked from the
    scope sizes before a product is allocated; a tripped guard raises
    :class:`GuardExceededError` carrying the partial ``stats``.
    """
    if stats is None:
        stats = EliminationStats()
    live: dict[int, Factor] = {}
    var_index: dict[int, set[int]] = {}
    next_fid = 0

    def insert(f: Factor):
        nonlocal next_fid
        live[next_fid] = f
        for u in f.scope:
            var_index.setdefault(u, set()).add(next_fid)
        next_fid += 1

    def product(fids: Sequence[int]) -> Factor:
        result = live[fids[0]]
        for fid in fids[1:]:
            f = live[fid]
            entries = result.values.size
            for u, s in zip(f.scope, f.values.shape):
                if u not in result.scope:
                    entries *= s
            if max_table_entries is not None and entries > max_table_entries:
                raise GuardExceededError(
                    f"intermediate table of {entries} entries exceeds the guard", stats
                )
            if (
                max_multiplications is not None
                and stats.multiplications + entries > max_multiplications
            ):
                raise GuardExceededError(
                    f"{stats.multiplications + entries} multiplications exceed the guard", stats
                )
            result = multiply(result, f, stats)
        return result

    size: dict[int, int] = {}
    for f in factors:
        insert(f)
        size.update(zip(f.scope, f.values.shape))
    eliminable = set(var_index) - set(keep)

    if order is not None:
        given = [v for v in order if v in eliminable]
        missing = eliminable - set(given)
        if missing:
            raise ValueError(f"explicit order misses eliminable variables {sorted(missing)}")
        sequence = iter(given)
    else:
        # Interaction graph: u, w adjacent when a live factor holds both.
        # key[u] = [fill (non-adjacent neighbour pairs), product entries, u].
        adj: dict[int, set[int]] = {}
        cover: dict[int, tuple[int, ...]] = {}  # u's largest factor's scope
        for scope in sorted((f.scope for f in live.values()), key=len, reverse=True):
            for u in scope:
                if u in adj:
                    adj[u].update(scope)
                else:
                    adj[u] = set(scope)
                    cover[u] = scope
        key: dict[int, list[int]] = {}
        for u, nbrs in adj.items():
            # Every missing pair has an end outside u's largest factor.  nbrs
            # still holds u, so the product counts u's own size; r has left
            # pending, so whether adj[r] still holds r changes nothing.
            fill = 0
            rest = nbrs.difference(cover[u])
            if rest:
                pending = set(nbrs)
                for r in rest:
                    pending.discard(r)
                    fill += len(pending - adj[r])
            key[u] = [fill, math.prod(map(size.__getitem__, nbrs)), u]
            nbrs.discard(u)
        candidates = {u: key[u] for u in eliminable}

    def next_variable() -> int:
        if order is not None:
            return next(sequence)
        v = min(candidates.values())[2]
        del candidates[v]
        nbrs = adj.pop(v)
        if key[v][0]:
            for a, b in itertools.combinations(nbrs, 2):
                if b not in adj[a]:
                    # Fill edge a-b: it closes a gap for each common neighbour
                    # and opens one between each end and its other neighbours.
                    common = adj[a] & adj[b]
                    for c in common:
                        key[c][0] -= 1
                    for x, y in ((a, b), (b, a)):
                        key[x][0] += len(adj[x]) - len(common)
                        key[x][1] *= size[y]
                        adj[x].add(y)
        for a in nbrs:
            near, ka = adj[a], key[a]
            # v formed a missing pair with each of a's neighbours outside the clique.
            ka[0] -= len(near) - len(nbrs)
            ka[1] //= size[v]
            near.discard(v)
        return v

    while eliminable:
        v = next_variable()
        eliminable.discard(v)
        fids = sorted(var_index[v])
        joint = product(fids)
        for fid in fids:
            for u in live.pop(fid).scope:
                var_index[u].discard(fid)
        summed = marginalize(joint, v)
        if summed.size > stats.peak_table_entries:
            stats.peak_table_entries = summed.size
        insert(summed)
        stats.ordering.append(v)

    result = product(sorted(live))
    if result.size > stats.peak_table_entries:
        stats.peak_table_entries = result.size
    if set(result.scope) != set(keep):
        raise InferenceError(f"elimination left scope {result.scope}, expected {tuple(keep)}")
    return align(result, keep)


def _relevant_ancestors(net: ExpandedNetwork, query: Query) -> set[int]:
    """Original ids of the targets, the evidence and all their ancestors.
    Every other node is barren: its factor group sums to one over its child
    and auxiliary variables, so dropping it leaves posteriors unchanged."""
    nodes = net.source.nodes
    kept: set[int] = set()
    stack = [*query.targets, *query.evidence]
    while stack:
        v = stack.pop()
        if v not in kept:
            kept.add(v)
            stack.extend(node_parents(nodes[v]))
    return kept


def _drop_dead_states(
    factors: list[Factor], keep: Sequence[int], touched: Iterable[int], stats: EliminationStats
) -> list[Factor]:
    """Drop every state of a variable outside ``keep`` whose slice is all zero
    in some factor, and restrict away any variable left with one state, to a
    fixpoint.  Exact for signed factors: every term with a dead state is zero.
    Scans only the ``touched`` (evidence-sliced) factors and those a drop
    slices, since a network's own zeros repeat on every query; writes no table."""
    factors = list(factors)
    holders: dict[int, list[int]] | None = None
    work = set(touched)
    while work:
        i = work.pop()
        scope, values = factors[i].scope, factors[i].values
        for axis, (v, n) in enumerate(zip(scope, values.shape)):
            # Cheap witness before the full scan: a nonzero entry on the line
            # through the last state of every other axis proves its state live.
            line = (-1,) * axis + (slice(None),) + (-1,) * (len(scope) - axis - 1)
            if v in keep or values[line].all():
                continue
            others = tuple(a for a in range(len(scope)) if a != axis)
            live = np.flatnonzero((values != 0).any(axis=others))
            if len(live) == n:
                continue
            if len(live) == 0:
                raise ZeroPosteriorError(f"evidence leaves variable {v} no state of nonzero mass")
            if holders is None:
                holders = {}
                for j, f in enumerate(factors):
                    for u in f.scope:
                        holders.setdefault(u, []).append(j)
            for j in holders.pop(v) if len(live) == 1 else holders[v]:
                f = factors[j]
                if len(live) == 1:
                    factors[j] = restrict(f, v, int(live[0]))
                else:
                    factors[j] = Factor(f.scope, f.values.take(live, axis=f.scope.index(v)))
                work.add(j)
            stats.pruned_states += n if len(live) == 1 else n - len(live)
            break  # factor i changed and is back in ``work``
    return factors


def _validate_query(net: ExpandedNetwork, query: Query):
    originals = set(net.original_ids)
    for t in query.targets:
        if t not in originals:
            raise ValueError(f"target {t} is not an original network variable")
    for v, state in query.evidence.items():
        if v not in originals:
            raise ValueError(f"evidence variable {v} is not an original network variable")
        if not 0 <= state < net.size_of(v):
            raise ValueError(f"evidence state {state} out of range for variable {v}")


def query_posterior(
    net: ExpandedNetwork,
    query: Query,
    *,
    order: Sequence[int] | None = None,
    max_multiplications: int | None = None,
    max_table_entries: int | None = None,
) -> tuple[Factor, EliminationStats]:
    """Posterior over the query targets by variable elimination.

    Evidence is applied by restricting every factor mentioning it (the
    effect selector included; no special casing).  The states the evidence
    rules out are then dropped (negative findings factorize away, as in
    Heckerman's Quickscore), on every path.  Unless an explicit ``order``
    is supplied, only the targets, the evidence and their ancestors enter,
    and :func:`eliminate` picks the order.

    The final table is clamped (entries within round-off of zero) and
    normalized; a zero normalization constant raises
    :class:`ZeroPosteriorError`, distinct from plain underflow.
    """
    _validate_query(net, query)
    stats = EliminationStats()

    if order is None:
        kept = _relevant_ancestors(net, query)
    else:
        kept = set(net.original_ids)
    stats.relevant_vars = len(kept)

    factors: list[Factor] = []
    touched: set[int] = set()
    for child in sorted(kept):
        for idx in net.groups[child].factor_indices:
            f = net.factors[idx]
            for v, state in query.evidence.items():
                if v in f.scope:
                    f = restrict(f, v, state)
                    touched.add(len(factors))
            factors.append(f)
    factors = _drop_dead_states(factors, query.targets, touched, stats)

    result = eliminate(
        factors,
        query.targets,
        order=order,
        stats=stats,
        max_multiplications=max_multiplications,
        max_table_entries=max_table_entries,
    )

    values = result.values
    stats.min_unnormalized = float(values.min())
    max_abs = float(np.abs(values).max())
    if max_abs == 0.0:
        raise ZeroPosteriorError(
            "zero normalization constant: evidence has probability 0, or total cancellation"
        )
    if stats.min_unnormalized < -NEGATIVE_MASS_RTOL * max_abs:
        raise NegativeMassError(
            f"unnormalized posterior entry {stats.min_unnormalized} below "
            f"-{NEGATIVE_MASS_RTOL} of the table maximum {max_abs}"
        )
    values = np.where(values < 0.0, 0.0, values)
    total = float(values.sum())
    if total <= 0.0:
        raise ZeroPosteriorError(
            "zero normalization constant: evidence has probability 0, or total cancellation"
        )
    return Factor(result.scope, values / total), stats


def _broadcast_full(f: Factor, n_vars: int, sizes: Sequence[int]) -> np.ndarray:
    order = np.argsort(f.scope)
    values = f.values.transpose(order)
    shape = [1] * n_vars
    for vid in f.scope:
        shape[vid] = sizes[vid]
    return values.reshape(shape)


def brute_force_joint(net: Network, query: Query, guard: int = JOINT_STATE_GUARD) -> Factor:
    """Posterior over the query targets by full joint enumeration of the
    original network (noisy-max nodes expanded through the enumeration
    oracle).  Independent of the elimination engine."""
    sizes = [v.size for v in net.variables]
    n = len(sizes)
    if math.prod(sizes) > guard:
        raise GuardExceededError(f"joint state space {math.prod(sizes)} exceeds the guard")
    for t in query.targets:
        if not 0 <= t < n:
            raise ValueError(f"unknown target variable {t}")
    for v, state in query.evidence.items():
        if not 0 <= v < n:
            raise ValueError(f"unknown evidence variable {v}")
        if not 0 <= state < sizes[v]:
            raise ValueError(f"evidence state {state} out of range for variable {v}")

    vmap = net.variable_map
    joint = np.ones(sizes)
    for node in net.nodes:
        if isinstance(node, NoisyMaxCpd):
            f = oracle_cpd(node, vmap)
        else:
            f = node.factor
        joint = joint * _broadcast_full(f, n, sizes)

    for v, state in query.evidence.items():
        joint = np.take(joint, [state], axis=v)
    drop = tuple(i for i in range(n) if i not in set(query.targets))
    table = joint.sum(axis=drop) if drop else joint
    remaining = tuple(sorted(query.targets))
    result = align(Factor(remaining, table), query.targets)
    total = float(result.values.sum())
    if total <= 0.0:
        raise ZeroPosteriorError(
            "zero normalization constant: evidence has probability 0, or total cancellation"
        )
    return Factor(result.scope, result.values / total)
