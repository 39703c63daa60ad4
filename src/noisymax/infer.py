"""Exact inference by variable elimination over dense factors.

The engine runs on expanded networks (plain factors only) and tolerates
negative entries everywhere except in the final, fully marginalized target
table, where tiny negative residue from exact cancellations is clamped to
zero.  One kernel, :func:`multiply`, forms each bucket's product with its
variable summed out inside it, so the bucket's joint is never allocated.  A
bucket whose joint has fewer than :data:`EINSUM_TO` entries is one
``np.einsum`` call; a larger one is a chain of batched matrix products, and
a product of that chain whose joint reaches :data:`SPLIT_FROM` entries and
that has a batch variable is split along it over the :data:`CPUS` the
process may run on.  Either path gives the chain's scope, the shared
variables first in the order of the operand with more entries, then the left
operand's own, then the right's, and its values up to the order of a sum's
terms; no count depends on the path.  Cost is counted once, from
:func:`eliminate`'s plan of every product before any is formed, as the
paper's model counts it: one scalar multiplication per entry of each binary
product's joint, and the peak table size, joints included.

``brute_force_joint`` answers the same queries from the original network by
enumerating the full joint; it shares no code path with elimination and acts
as the independent test oracle.
"""

from __future__ import annotations

import itertools
import math
import os
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .factorize import TABLE_ENTRY_GUARD, ExpandedNetwork, oracle_cpd
from .model import Factor, GuardExceededError, Network, NoisyMaxCpd, Variable, node_parents

JOINT_STATE_GUARD = 2**22
# A query's multiplication limit unless its caller sets another.
DEFAULT_GUARD_MULTS = 10**8
# Multiplications in min-fill's plan from which ``eliminate`` also plans min-weight.
# On the benchmark's workloads (seed 1, a 2-core VM), min-weight saved 1% of the
# multiplications below it, at up to 40% of a query's time; from 10^7 on, 19% at 5%.
SEARCH_FROM = 10**6
# Joint entries from which ``multiply`` splits a product with a batch variable
# over the CPUs this process may run on.  On a 2-core VM, starting and joining
# a thread took about 0.1 ms, and a product of 2**18 entries with transposed
# operands 10 ms unsplit and 5.6 ms split.
SPLIT_FROM = 2**18
# Joint entries below which ``multiply`` forms a bucket's product in one
# einsum rather than a chain of matmuls.  On a pass of each benchmark workload
# (seed 1, a 2-core VM), einsum took a third of the chain's time on buckets of
# three or more tables up to 2**8 entries and 0.7 of it on pairs, but 1.4 to
# 7.5 times the chain's on buckets of three or more tables from 2**10 on.
EINSUM_TO = 2**10
# Entries of a one-row or one-column matrix up to which ``multiply`` has
# numpy's matmul loop over a batch of them itself rather than call BLAS once
# per matrix.  On a 2-core VM, 2**19 / q products (1 x 2) @ (2 x q) took
# 4.3 ms with BLAS and 2.2 ms in numpy's loop at q = 1, 8.3 and 2.4 at
# q = 2, 4.4 and 1.5 at q = 4, 2.2 and 1.3 at q = 8, 1.3 and 1.3 at q = 16;
# (q x 2) @ (2 x 1) took 4.5 and 2.2 at q = 4, 1.4 and 1.8 at q = 16
# (numpy 2.4).  End to end, ten alternating bn2o-findings runs a side
# (seed 52) read a median 56.1 answers/s without the loop and 61.0 with it.
_LOOP_TO = 8
# np.einsum refuses 32 operands or more under numpy 1.x (NPY_MAXARGS is 32)
# and 64 or more under 2.x; chunks of 31 pass under both.
_EINSUM_OPERANDS = 31
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

    def counts(self) -> dict[str, int]:
        """The counts a query reports, in report order, for ``infer --stats``
        and bench cells alike; ``ordering`` is not reported."""
        return {
            "multiplications": self.multiplications,
            "peak_table_entries": self.peak_table_entries,
            "relevant_vars": self.relevant_vars,
            "pruned_states": self.pruned_states,
        }


def multiply(a: Factor, b: Factor, *more: Factor, sum_out: int | None = None) -> Factor:
    """Product of ``a``, ``b`` and ``more``, a bucket, with ``sum_out``,
    which every operand must hold, summed out inside it, so the joint is
    never allocated.  The output scope is the one a left-to-right chain of
    binary products gives (:func:`_chain`), each putting the shared
    variables first, in the order of the operand with more entries (the
    left on a tie), then its left operand's own, then its right operand's,
    with ``sum_out`` dropped in the last.  Every product the engine takes
    is formed here; :func:`eliminate` counts its cost.

    Below :data:`EINSUM_TO` joint entries, ``sum_out`` included, one
    ``np.einsum`` call forms the product, or one per 31 operands, the most
    numpy 1.x takes, ``sum_out`` kept until the last.
    From it on, each binary product of the chain is one batched matrix
    product ``(batch, left-own, v) @ (batch, v, right-own)``, batch being
    the other shared variables and ``v`` ``sum_out``'s axis in the last
    product, of size 1 elsewhere.  An operand is viewed as its matrices
    without a copy when each group lies in one run of its axes, in the
    chain's order, so taking the batch in the larger operand's order spares
    the larger a copy.  When ``v`` has more than one state and the output
    matrices are one row or column of at most :data:`_LOOP_TO` entries,
    both operands are read with ``v`` reversed, which leads numpy's matmul
    to loop over the matrices itself instead of calling BLAS for each.

    Split: when a binary product's joint, ``sum_out`` included, has at
    least :data:`SPLIT_FROM` entries and there is a batch, the output is
    allocated once and formed slice by slice along the first batch
    variable, each slice's matmul writing into it in place.  The slices are
    dealt round-robin to ``min(CPUS, states)`` workers: the calling thread,
    and helpers under a ``ThreadPoolExecutor`` opened for this product.
    Every helper has finished before the return, and a helper's exception
    is raised in the caller.  With one CPU, below the constant or with no
    batch, one matmul forms the whole product.  The split is the only
    parallelism added: each matmul runs with whatever BLAS threads numpy
    has, one under the benchmark's pin."""
    factors = (a, b, *more)
    # The operands' entries multiplied bound the joint, so below EINSUM_TO
    # the size map is not needed: einsum refuses two sizes of a variable
    # itself, unless one is 1, which it would broadcast.  An operand with an
    # axis of one state counts as reaching the constant, and is checked.
    bound = 1
    for f in factors:
        if sum_out is not None and sum_out not in f.scope:
            raise ValueError(f"variable {sum_out} not in every scope {[f.scope for f in factors]}")
        bound *= EINSUM_TO if 1 in f.values.shape else f.values.size
    if bound >= EINSUM_TO or len(factors) > _EINSUM_OPERANDS:
        size = _sizes(factors)
        # einsum takes at most 52 labels, which a joint below EINSUM_TO has
        # unless the operands have axes of one state.
        if math.prod(size.values()) >= EINSUM_TO or len(size) > 52:
            result = a
            for i, (f, groups) in enumerate(zip(factors[1:], _chain(factors, sum_out)), 2):
                result = _matmul_product(result, f, groups, sum_out if i == len(factors) else None)
            return result
    while len(factors) > _EINSUM_OPERANDS:
        factors = (_einsum(factors[:_EINSUM_OPERANDS], None), *factors[_EINSUM_OPERANDS:])
    return _einsum(factors, sum_out)


def _sizes(factors: Sequence[Factor]) -> dict[int, int]:
    """Each variable's size in ``factors``; two sizes of one raise ``ValueError``."""
    size: dict[int, int] = {}
    for f in factors:
        for u, n in zip(f.scope, f.values.shape):
            if size.setdefault(u, n) != n:
                raise ValueError(f"domain size mismatch for shared variable {u}: {size[u]} vs {n}")
    return size


def _chain(factors: Sequence[Factor], sum_out: int | None) -> list[tuple[list[int], list[int], list[int]]]:
    """The groups ``(batch, left-own, right-own)`` of each binary product of
    the left-to-right chain over ``factors``, ``sum_out`` summed out in the
    last.  The batch, the shared variables but ``sum_out``, is in the order
    of the operand with more entries, the left on a tie, and each own group
    in its operand's; each product's output is the three groups in turn."""
    chain = []
    left, entries = factors[0].scope, factors[0].values.size
    for i, f in enumerate(factors[1:], 2):
        right = f.scope
        batch, a_own = [], []
        for u in left:
            (batch if u in right else a_own).append(u)
        if len(batch) > 1 and entries < f.values.size:
            batch = [u for u in right if u in left]
        b_own = [u for u in right if u not in left]
        if i < len(factors):
            entries *= math.prod(n for u, n in zip(right, f.values.shape) if u not in left)
            left = batch + a_own + b_own
        elif sum_out is not None:
            batch.remove(sum_out)
        chain.append((batch, a_own, b_own))
    return chain


def _einsum(factors: Sequence[Factor], sum_out: int | None) -> Factor:
    """The product of ``factors`` in the chain's scope, with ``sum_out``
    (``None``, or held by every one) summed out: one einsum."""
    batch, a_own, b_own = _chain(factors, sum_out)[-1]
    scope = batch + a_own + b_own
    label = dict(zip(scope if sum_out is None else [*scope, sum_out], string.ascii_letters))
    spec = ",".join(["".join(map(label.__getitem__, f.scope)) for f in factors])
    try:
        values = np.einsum(spec + "->" + string.ascii_letters[: len(scope)], *[f.values for f in factors])
    except ValueError:
        _sizes(factors)  # raises the mismatch einsum found, if it was one
        raise
    return Factor._of(tuple(scope), values)


def _matmul_product(
    a: Factor, b: Factor, groups: tuple[list[int], list[int], list[int]], sum_out: int | None
) -> Factor:
    """One binary product of :func:`multiply`'s chain, whose operands it
    checked, over its groups ``(batch, a-own, b-own)``, in that order."""
    batch, a_own, b_own = groups
    a_pos = {u: i for i, u in enumerate(a.scope)}
    b_pos = {u: j for j, u in enumerate(b.scope)}
    inner = [] if sum_out is None else [sum_out]
    a_vals = a.values.transpose([a_pos[u] for u in batch + a_own + inner])
    b_vals = b.values.transpose([b_pos[u] for u in batch + inner + b_own])
    k, i = len(batch), len(batch) + len(inner)
    n_batch, n_inner = math.prod(b_vals.shape[:k]), math.prod(b_vals.shape[k:i])
    n_a, n_b = a_vals.size // (n_batch * n_inner), math.prod(b_vals.shape[i:])
    shape = a_vals.shape[: a_vals.ndim - len(inner)] + b_vals.shape[i:]
    scope = tuple(batch + a_own + b_own)
    # matmul calls BLAS once per matrix, which costs more than the product
    # when a matrix is one row or column of at most _LOOP_TO entries.  It
    # hands BLAS only matrices with positive strides, so with the summed
    # axis reversed it loops over them itself, up to 3.5 times faster.  The
    # view only reorders each sum's terms: a numpy that chose otherwise
    # would be slower here, not wrong.
    flip = slice(None, None, -1 if n_inner > 1 and min(n_a, n_b) == 1 and n_a * n_b <= _LOOP_TO else 1)
    states = b_vals.shape[0] if batch else 1
    workers = min(CPUS, states)
    if workers < 2 or a_vals.size * n_b < SPLIT_FROM:
        out = np.matmul(
            a_vals.reshape(n_batch, n_a, n_inner)[:, :, flip], b_vals.reshape(n_batch, n_inner, n_b)[:, flip]
        )
        return Factor._of(scope, out.reshape(shape))
    out = np.empty(shape)
    rows = n_batch // states

    def deal(first: int):
        for j in range(first, states, workers):
            # out[j, ...] stays a view when out is 1-D; out[j] would be a copy.
            np.matmul(
                a_vals[j].reshape(rows, n_a, n_inner)[:, :, flip],
                b_vals[j].reshape(rows, n_inner, n_b)[:, flip],
                out=out[j, ...].reshape(rows, n_a, n_b),
            )

    # Opened per product: a pool whose threads already exist would never run
    # work submitted from a fork()ed child.
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(deal, w) for w in range(1, workers)]
        deal(0)
    for helper in helpers:
        helper.result()
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

    Order: fixed before any product by :func:`_min_fill_order` and planned by
    :func:`_plan`, both from scopes and one size map.  A min-fill plan of
    :data:`SEARCH_FROM` multiplications or more yields to min-weight's if that
    needs fewer and peaks no higher.

    Buckets: the plan is charged to ``stats`` bucket by bucket, and the
    guards checked on each joint, before any product is formed; a tripped
    guard raises :class:`GuardExceededError` carrying the ``stats`` up to
    that joint, and no table has been allocated.  Then each bucket of two
    or more tables is one :func:`multiply` call over them in arrival
    order, its variable summed out inside it, and a lone table has its
    variable marginalized; the last bucket's result is the answer.
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
    order = _min_fill_order(scopes, size, eliminable)
    plan = _plan(scopes, size, order, keep)
    if plan[1] >= SEARCH_FROM:
        other = _min_fill_order(scopes, size, eliminable, by_weight=True)
        other_plan = plan if other == order else _plan(scopes, size, other, keep)
        if other_plan[1] < plan[1] and other_plan[2] <= plan[2]:
            plan = other_plan

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
        if len(slots) > 1:
            result = multiply(*map(tables.__getitem__, slots), sum_out=v)
        elif v is not None:
            result = marginalize(tables[slots[0]], v)
        else:
            result = tables[slots[0]]
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
    max_multiplications: int | None = DEFAULT_GUARD_MULTS,
    max_table_entries: int | None = TABLE_ENTRY_GUARD,
) -> tuple[Factor, EliminationStats]:
    """Posterior over the query targets by variable elimination.

    Only the factors of the targets, the evidence and their ancestors
    enter; :func:`eliminate` fixes the evidence (the effect selector
    included; no special casing), drops the states it rules out and picks
    the order.

    Guarded by default: a plan over :data:`DEFAULT_GUARD_MULTS`
    multiplications, or with a joint over :data:`TABLE_ENTRY_GUARD` entries,
    raises :class:`GuardExceededError` before any table is formed.  ``None``
    turns a guard off.

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
        stats=stats,
        max_multiplications=max_multiplications,
        max_table_entries=max_table_entries,
    )

    values = result.values
    lowest = float(values.min())
    max_abs = float(np.abs(values).max())
    if lowest < -NEGATIVE_MASS_RTOL * max_abs:
        raise NegativeMassError(
            f"unnormalized posterior entry {lowest} below "
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
