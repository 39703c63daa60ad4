"""Exact inference by variable elimination over dense factors.

The engine runs on expanded networks (plain factors only) and tolerates
negative entries everywhere except in the final, fully marginalized target
table, where tiny negative residue from exact cancellations is clamped to
zero.  One kernel, :func:`multiply`, forms every binary product as a batched
matrix product, and a variable is summed out inside the last product of its
bucket, so the bucket's joint is never allocated.  A product whose joint
reaches :data:`SPLIT_FROM` entries and that has a batch variable is split
along it over the :data:`CPUS` the process may run on; the result's scope,
its values (up to the order of a sum's terms) and every count are those of
the unsplit product.  Cost is counted once, from :func:`eliminate`'s plan
of every product before any is formed, as the paper's model counts it: one
scalar multiplication per entry of each binary product's joint, and the
peak table size, joints included.

``brute_force_joint`` answers the same queries from the original network by
enumerating the full joint; it shares no code path with elimination and acts
as the independent test oracle.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .factorize import ExpandedNetwork, oracle_cpd
from .model import Factor, GuardExceededError, Network, NoisyMaxCpd, Variable, node_parents

JOINT_STATE_GUARD = 2**22
# Multiplications in min-fill's plan from which ``eliminate`` also plans min-weight.
# On the benchmark's workloads (seed 1, a 2-core VM), min-weight saved 1% of the
# multiplications below it, at up to 40% of a query's time; from 10^7 on, 19% at 5%.
SEARCH_FROM = 10**6
# Joint entries from which ``multiply`` splits a product with a batch variable
# over the CPUs this process may run on.  On a 2-core VM, starting and joining
# a thread took about 0.1 ms, and a product of 2**18 entries with transposed
# operands 10 ms unsplit and 5.6 ms split.
SPLIT_FROM = 2**18
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
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
    """What :func:`eliminate` did.  ``multiplications`` and
    ``peak_table_entries`` are the cost model's counts, charged from the
    plan's joints before any is formed, whether or not one is allocated;
    nothing else counts them."""

    multiplications: int = 0
    peak_table_entries: int = 0
    ordering: list[int] = field(default_factory=list)
    relevant_vars: int = 0
    pruned_states: int = 0  # dropped by the evidence pass, restricted-away variables' included
    min_unnormalized: float = 0.0

    def counts(self) -> dict[str, int]:
        """The counts a query reports, in report order, for ``infer --stats``
        and bench cells alike; ``ordering`` and ``min_unnormalized`` are not
        reported."""
        return {
            "multiplications": self.multiplications,
            "peak_table_entries": self.peak_table_entries,
            "relevant_vars": self.relevant_vars,
            "pruned_states": self.pruned_states,
        }


def multiply(a: Factor, b: Factor, sum_out: int | None = None) -> Factor:
    """Product of ``a`` and ``b`` with ``sum_out``, which both must hold,
    summed out inside it: one batched matrix product ``(batch, a-own, v) @
    (batch, v, b-own)``, batch being the other shared variables and ``v``
    ``sum_out``'s axis, of size 1 when nothing is summed.  The output scope
    is batch, then ``a``'s own variables, then ``b``'s.  Every binary product
    the engine takes is formed here; :func:`eliminate` counts its cost.

    Split: when the joint, ``sum_out`` included, has at least
    :data:`SPLIT_FROM` entries and there is a batch, the output is allocated
    once and formed slice by slice along the first batch variable, each
    slice's matmul writing into it in place.  The slices are dealt
    round-robin to ``min(CPUS, states)`` workers: the calling thread, and
    threads started here and joined before the return.  With one CPU, below
    the constant or with no batch, one matmul forms the whole product.  The
    split is the only parallelism added: each matmul runs with whatever BLAS
    threads numpy has, one under the benchmark's pin."""
    a_pos = {u: i for i, u in enumerate(a.scope)}
    b_pos = {u: j for j, u in enumerate(b.scope)}
    if sum_out is not None and (sum_out not in a_pos or sum_out not in b_pos):
        raise ValueError(f"variable {sum_out} not in both scopes {a.scope} and {b.scope}")
    inner = [] if sum_out is None else [sum_out]
    batch = [u for u in a.scope if u in b_pos and u != sum_out]
    for u in batch + inner:
        na, nb = a.values.shape[a_pos[u]], b.values.shape[b_pos[u]]
        if na != nb:
            raise ValueError(f"domain size mismatch for shared variable {u}: {na} vs {nb}")
    a_own = [u for u in a.scope if u not in b_pos]
    b_own = [u for u in b.scope if u not in a_pos]
    a_vals = a.values.transpose([a_pos[u] for u in batch + a_own + inner])
    b_vals = b.values.transpose([b_pos[u] for u in batch + inner + b_own])
    k, i = len(batch), len(batch) + len(inner)
    n_batch, n_inner = math.prod(b_vals.shape[:k]), math.prod(b_vals.shape[k:i])
    n_b = math.prod(b_vals.shape[i:])
    shape = a_vals.shape[: a_vals.ndim - len(inner)] + b_vals.shape[i:]
    scope = tuple(batch + a_own + b_own)
    states = b_vals.shape[0] if batch else 1
    workers = min(CPUS, states)
    if workers < 2 or a_vals.size * n_b < SPLIT_FROM:
        out = np.matmul(a_vals.reshape(n_batch, -1, n_inner), b_vals.reshape(n_batch, n_inner, -1))
        return Factor._of(scope, out.reshape(shape))
    out = np.empty(shape)
    rows = n_batch // states
    errors: list[Exception] = []

    def deal(first: int):
        try:
            for j in range(first, states, workers):
                # out[j, ...] stays a view when out is 1-D; out[j] would be a copy.
                np.matmul(
                    a_vals[j].reshape(rows, -1, n_inner),
                    b_vals[j].reshape(rows, n_inner, n_b),
                    out=out[j, ...].reshape(rows, -1, n_b),
                )
        except Exception as error:  # raised again by the calling thread
            errors.append(error)

    threads = [threading.Thread(target=deal, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        deal(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return Factor._of(scope, out)


def marginalize(f: Factor, v: int) -> Factor:
    """Sum ``v`` out of the factor.  Negative entries may cancel."""
    if v not in f.scope:
        raise ValueError(f"variable {v} not in scope {f.scope}")
    axis = f.scope.index(v)
    return Factor._of(f.scope[:axis] + f.scope[axis + 1 :], f.values.sum(axis=axis))


def restrict(f: Factor, v: int, state: int) -> Factor:
    """Instantiate evidence: keep the slice of integer ``state``, drop ``v``."""
    if v not in f.scope:
        raise ValueError(f"variable {v} not in scope {f.scope}")
    axis = f.scope.index(v)
    if not (_is_integer(state) and 0 <= state < f.values.shape[axis]):
        raise ValueError(f"state {state} out of range for variable {v}")
    taken = f.values[(slice(None),) * axis + (state,)]
    return Factor._of(f.scope[:axis] + f.scope[axis + 1 :], taken)


def align(f: Factor, scope: Sequence[int]) -> Factor:
    """Reorder axes to the given scope (a permutation of the factor's)."""
    scope = tuple(scope)
    if set(scope) != set(f.scope) or len(scope) != len(f.scope):
        raise ValueError(f"{scope} is not a permutation of {f.scope}")
    if scope == f.scope:
        return f
    perm = [f.scope.index(v) for v in scope]
    return Factor(scope, f.values.transpose(perm))


def _min_fill_order(
    scopes: Sequence[tuple[int, ...]], size: dict[int, int], eliminable: set[int], by_weight=False
) -> list[int]:
    """Every ``eliminable`` variable in min-fill order (Kjaerulff 1990), read
    from ``scopes`` and ``size`` alone: fewest fill edges first, then fewest
    entries in the product of the factors holding it, then smallest id.
    ``by_weight`` swaps the first two keys (min-weight)."""
    # Interaction graph: u, w adjacent when a factor holds both.  It starts
    # empty, and join inserts every factor's edges, then every fill edge.
    # key[u] = [fill (non-adjacent neighbour pairs), product entries, u], the
    # first two swapped by_weight; F and W are their places.
    F, W = (1, 0) if by_weight else (0, 1)
    adj: dict[int, set[int]] = {}
    key: dict[int, list[int]] = {}

    def join(a: int, b: int):
        # Edge a-b closes a gap for each common neighbour and opens one
        # between each end and its other neighbours.
        common = adj[a] & adj[b]
        for c in common:
            key[c][F] -= 1
        for x, y in ((a, b), (b, a)):
            key[x][F] += len(adj[x]) - len(common)
            key[x][W] *= size[y]
            adj[x].add(y)

    for scope in scopes:
        for u in scope:
            if u not in adj:
                adj[u] = set()
                key[u] = [size[u], 0, u] if by_weight else [0, size[u], u]
        for a, b in itertools.combinations(scope, 2):
            if b not in adj[a]:
                join(a, b)
    candidates = {u: key[u] for u in eliminable}
    order: list[int] = []
    while candidates:
        v = min(candidates.values())[2]
        del candidates[v]
        nbrs = adj.pop(v)
        if key[v][F]:
            for a, b in itertools.combinations(nbrs, 2):
                if b not in adj[a]:
                    join(a, b)
        for a in nbrs:
            near, ka = adj[a], key[a]
            # v formed a missing pair with each of a's neighbours outside the clique.
            ka[F] -= len(near) - len(nbrs)
            ka[W] //= size[v]
            near.discard(v)
        order.append(v)
    return order


def _plan(
    scopes: Sequence[tuple[int, ...]], size: dict[int, int], order: list[int], keep: Sequence[int]
) -> tuple:
    """Bucket elimination under ``order``, from ``scopes`` and ``size`` alone.
    Factor ``k`` fills slot ``k``, the ``i``-th bucket's result slot
    ``len(scopes) + i``; a table waits in the bucket of its earliest
    variable in the order, or in a last bucket if it holds kept variables
    only.  One step per bucket: its variable (``None`` for the last), its
    operands' slots in arrival order, each binary product's joint entries,
    and its result's entries.  Also returns the multiplications (the joints'
    sum) and the peak (the largest joint or result)."""
    last = len(order)
    position = dict.fromkeys(keep, last)
    position.update(zip(order, range(last)))
    buckets: list[list[int]] = [[] for _ in range(last + 1)]
    placed: list[Iterable[int]] = []  # slot k's scope

    def place(scope: Iterable[int]):
        buckets[min(map(position.__getitem__, scope), default=last)].append(len(placed))
        placed.append(scope)

    for scope in scopes:
        place(scope)
    steps = []
    multiplications = peak = 0
    for i, slots in enumerate(buckets):
        joint = set(placed[slots[0]])
        entries = math.prod(map(size.__getitem__, joint))
        joints = []
        for slot in slots[1:]:
            for u in placed[slot]:
                if u not in joint:
                    joint.add(u)
                    entries *= size[u]
            joints.append(entries)
        v = order[i] if i < last else None
        if v is not None:
            joint.discard(v)
            entries //= size[v]
            place(joint)
        multiplications += sum(joints)
        peak = max(peak, entries, *joints)
        steps.append((v, slots, joints, entries))
    return steps, multiplications, peak


def eliminate(
    factors: Iterable[Factor],
    keep: Sequence[int],
    *,
    evidence: Mapping[int, int] | None = None,
    order: Sequence[int] | None = None,
    stats: EliminationStats | None = None,
    max_multiplications: int | None = None,
    max_table_entries: int | None = None,
) -> Factor:
    """Sum every variable outside ``keep`` out of the product of ``factors``,
    each ``evidence`` variable fixed to its observed state, and return the
    result aligned to ``keep``, by bucket elimination (Dechter 1999).  An empty
    ``factors``, or a kept variable repeated or in no factor, raises ``ValueError``.

    Evidence: after evidence is fixed, every state of a variable outside
    ``keep`` whose slice is all zero in a factor evidence (or an earlier
    drop) sliced is dropped, and a variable left with one state is fixed to
    it, to a fixpoint.  This is exact for signed factors, since every term
    with a dead state is zero, and makes negative findings factorize away as
    in Heckerman's Quickscore.  ``stats.pruned_states`` counts the dropped
    states (all of a fixed variable's).  Only sliced factors are scanned,
    since a network's own zeros repeat on every query; no table is written.
    An evidence variable in ``keep`` or in no factor raises ``ValueError``.

    Order: fixed before any product, by :func:`_min_fill_order` or an explicit ``order``
    (each eliminable variable once, others skipped), and planned by :func:`_plan`, both
    from scopes and one size map.  A min-fill plan of :data:`SEARCH_FROM` multiplications
    or more yields to min-weight's if that needs fewer and peaks no higher.

    Buckets: the plan is charged to ``stats`` bucket by bucket, and the
    guards checked on each joint, before any product is formed; a tripped
    guard raises :class:`GuardExceededError` carrying the ``stats`` up to
    that joint, and no table has been allocated.  Then each bucket's tables
    are multiplied in arrival order, the variable summed out inside the
    last binary product; the last bucket's product is the answer.
    """
    if stats is None:
        stats = EliminationStats()
    live = list(factors)
    if not live:
        raise ValueError("eliminate needs at least one factor")
    var_index: dict[int, set[int]] = {}
    for i, f in enumerate(live):
        for u in f.scope:
            var_index.setdefault(u, set()).add(i)

    def fix(v: int, state: int) -> set[int]:
        """Restrict ``v`` away in place, keeping each factor's position (and
        so the product order); returns the positions of the factors it sliced."""
        held = var_index.pop(v)
        for i in held:
            live[i] = restrict(live[i], v, state)
        return held

    for v in keep:
        if v not in var_index:
            raise ValueError(f"no factor holds kept variable {v}")
        if keep.count(v) > 1:
            raise ValueError(f"kept variable {v} is repeated")
    work: set[int] = set()
    for v, state in (evidence or {}).items():
        if v in keep:
            raise ValueError(f"evidence variable {v} is also kept")
        if v not in var_index:
            raise ValueError(f"no factor holds evidence variable {v}")
        work |= fix(v, state)
    while work:
        i = work.pop()
        scope, values = live[i].scope, live[i].values
        for axis, (v, n) in enumerate(zip(scope, values.shape)):
            # Cheap witness before the full scan: a nonzero entry on the line
            # through the last state of every other axis proves its state live.
            line = (-1,) * axis + (slice(None),) + (-1,) * (len(scope) - axis - 1)
            if v in keep or values[line].all():
                continue
            others = tuple(a for a in range(len(scope)) if a != axis)
            states = np.flatnonzero((values != 0).any(axis=others))
            if len(states) == n:
                continue
            if len(states) == 0:
                raise ZeroPosteriorError(f"evidence leaves variable {v} no state of nonzero mass")
            if len(states) == 1:
                work |= fix(v, int(states[0]))
                stats.pruned_states += n
            else:
                for j in var_index[v]:
                    f = live[j]
                    live[j] = Factor._of(f.scope, f.values.take(states, axis=f.scope.index(v)))
                work |= var_index[v]
                stats.pruned_states += n - len(states)
            break  # this factor changed and is back in ``work``

    eliminable = set(var_index) - set(keep)
    scopes = [f.scope for f in live]
    size = {u: n for f in live for u, n in zip(f.scope, f.values.shape)}
    if order is None:
        order = _min_fill_order(scopes, size, eliminable)
        plan = _plan(scopes, size, order, keep)
        if plan[1] >= SEARCH_FROM:
            other = _min_fill_order(scopes, size, eliminable, by_weight=True)
            other_plan = plan if other == order else _plan(scopes, size, other, keep)
            if other_plan[1] < plan[1] and other_plan[2] <= plan[2]:
                plan = other_plan
    else:
        order = [v for v in order if v in eliminable]
        missing = eliminable.difference(order)
        if missing:
            raise ValueError(f"explicit order misses eliminable variables {sorted(missing)}")
        if len(order) > len(eliminable):
            repeated = sorted({v for v in order if order.count(v) > 1})
            raise ValueError(f"explicit order repeats variables {repeated}")
        plan = _plan(scopes, size, order, keep)

    for v, _, joints, entries in plan[0]:
        for joint in joints:
            if max_table_entries is not None and joint > max_table_entries:
                raise GuardExceededError(
                    f"intermediate table of {joint} entries exceeds the guard", stats
                )
            total = stats.multiplications + joint
            if max_multiplications is not None and total > max_multiplications:
                raise GuardExceededError(f"{total} multiplications exceed the guard", stats)
            stats.multiplications = total
            stats.peak_table_entries = max(stats.peak_table_entries, joint)
        stats.peak_table_entries = max(stats.peak_table_entries, entries)
        if v is not None:
            stats.ordering.append(v)

    tables: list[Factor | None] = live  # slot k's table, freed once used
    for v, slots, _, _ in plan[0]:
        result = tables[slots[0]]
        for slot in slots[1:]:
            result = multiply(result, tables[slot], v if slot == slots[-1] else None)
        if len(slots) == 1 and v is not None:
            result = marginalize(result, v)
        for slot in slots:
            tables[slot] = None
        tables.append(result)
    return align(tables[-1], keep)


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


def _is_integer(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _validate_query(variables: Sequence[Variable], query: Query):
    """Check ``query``'s ids and states: integers, in range of ``variables``."""
    originals = range(len(variables))
    for n in (*query.targets, *query.evidence, *query.evidence.values()):
        if not _is_integer(n):
            raise ValueError(f"query id or state {n!r} is not an integer")
    for t in query.targets:
        if t not in originals:
            raise ValueError(f"target {t} is not an original network variable")
    for v, state in query.evidence.items():
        if v not in originals:
            raise ValueError(f"evidence variable {v} is not an original network variable")
        if not 0 <= state < variables[v].size:
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

    Only the factors of the targets, the evidence and their ancestors
    enter; :func:`eliminate` fixes the evidence (the effect selector
    included; no special casing), drops the states it rules out and, unless
    an explicit ``order`` is supplied, picks the order.

    The final table is clamped (entries within round-off of zero) and
    normalized; a zero normalization constant raises
    :class:`ZeroPosteriorError`, distinct from plain underflow.
    """
    _validate_query(net.source.variables, query)
    kept = _relevant_ancestors(net, query)
    stats = EliminationStats(relevant_vars=len(kept))
    result = eliminate(
        [f for child in sorted(kept) for f in net.nodes[child].factors],
        query.targets,
        evidence=query.evidence,
        order=order,
        stats=stats,
        max_multiplications=max_multiplications,
        max_table_entries=max_table_entries,
    )

    values = result.values
    stats.min_unnormalized = float(values.min())
    max_abs = float(np.abs(values).max())
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


def brute_force_joint(net: Network, query: Query) -> Factor:
    """Posterior over the query targets by full joint enumeration of the
    original network (noisy-max nodes expanded through the enumeration
    oracle).  Independent of the elimination engine."""
    _validate_query(net.variables, query)
    sizes = [v.size for v in net.variables]
    n = len(sizes)
    if math.prod(sizes) > JOINT_STATE_GUARD:
        raise GuardExceededError(f"joint state space {math.prod(sizes)} exceeds the guard")

    joint = np.ones(sizes)
    for node in net.nodes:
        if isinstance(node, NoisyMaxCpd):
            f = oracle_cpd(node, net.variables)
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
