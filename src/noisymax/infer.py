"""Exact inference by variable elimination over dense factors.

The engine runs on expanded networks (plain factors only) and tolerates
negative entries everywhere except in the final, fully marginalized target
table, where tiny negative residue from exact cancellations is clamped to
zero.  One kernel, :func:`multiply`, forms each bucket's product with its
variable summed out inside it, so the bucket's joint is never allocated.  A
costly plan also contracts nested buckets together: a bucket whose joint
lies inside the bucket that fed it is one call with the other, small tables
first, each variable summed in the product that takes the last table
holding it.  A call whose joint has fewer than :data:`EINSUM_TO` entries is
one ``np.einsum`` call; a larger one is a chain of batched matrix products,
and a product of that chain whose joint reaches :data:`SPLIT_FROM` entries
and that has a batch variable is split along it over the :data:`CPUS` the
process may run on.  Either path gives the chain's scope, read from scopes
alone with each product's shared variables in its right operand's order,
and its values up to the order of a sum's terms; no count depends on the
path, and no axis has fewer than two states.  Cost is counted once, from
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
# Multiplications in min-fill's plan from which ``eliminate`` also plans
# min-weight, then merges nested buckets in the plan it takes.  On the
# benchmark's workloads (seed 1, a 2-core VM), min-weight saved 1% of the
# multiplications below it, at up to 40% of a query's time; from 10^7 on, 19%
# at 5%.  The merges saved 14% of bn2o-findings' multiplications and 5-16% of
# its product time, and took a tenth to a quarter of the time they saved.
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
# Entries up to which the evidence pass reads a sliced table's live states
# from ``np.nonzero``'s coordinates: 8 bytes per axis per nonzero entry, so
# 16 kB at most over 8 binary axes.  A larger table is read from one boolean
# mask, one byte an entry, axis by axis.  On a 2-core VM, over tables half
# zero, the coordinate read took 2.2 us at 8 entries, 45 us at 2**9 and
# 409 us at 2**12, the mask read 10, 50 and 170 us; a seed-1 fanin-sweep
# pass, whose sliced max tables reach 2**21 entries, spent 4.1-4.6 ms in the
# pass's loop with this bound and 6.4-7.8 ms with 2**12.
_NONZERO_TO = 2**8
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


def multiply(
    a: Factor, b: Factor, *more: Factor, sum_out: int | tuple[int, ...] | None = None
) -> Factor:
    """Product of ``a``, ``b`` and ``more`` with ``sum_out`` summed out
    inside it, so the joint is never allocated.  ``sum_out`` is a bucket's
    variable, which every operand must hold, summed in the last binary
    product of the left-to-right chain over the operands; or a tuple of the
    variables of nested buckets contracted together, each held by two or
    more operands and summed in the product that takes the last operand
    holding it.  The output scope is the chain's (:func:`_chain`), each
    product putting the shared variables it keeps first, in its right
    operand's order, then its left operand's own, then its right's.  Every
    product the engine takes is formed here; :func:`eliminate` counts it.

    Below :data:`EINSUM_TO` joint entries, summed variables included, one
    ``np.einsum`` call forms the product, or one per 31 operands, the most
    numpy 1.x takes, each giving the chain's scope after its last operand.
    From it on, each binary product of the chain is one batched matrix
    product ``(batch, left-own, v) @ (batch, v, right-own)``, batch being
    the shared variables the product keeps and ``v`` the axes of those it
    sums, read as one axis, of size 1 when it sums none.  An operand is
    viewed as its matrices without a copy when each group lies in one run
    of its axes, in the chain's order, so taking the batch in the right
    operand's order spares it a copy; a bucket lists earlier buckets'
    results after its input tables, so the right is often the larger.  When
    ``v`` is summed and the output matrices are one row or column of at
    most :data:`_LOOP_TO` entries, both operands are read with ``v``
    reversed, which leads numpy's matmul to loop over the matrices itself
    instead of calling BLAS for each.

    Split: when a binary product's joint, summed variables included, has at
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
    # the size map is not needed: einsum refuses two sizes of a variable itself.
    bound = 1
    if isinstance(sum_out, tuple):
        last, held = {}, dict.fromkeys(sum_out, 0)
        for k, f in enumerate(factors):
            for u in f.scope:
                if u in held:
                    held[u] += 1
                    last[u] = k
            bound *= f.values.size
        for u, n in held.items():
            if n < 2:
                raise ValueError(f"variable {u} in fewer than two scopes {[f.scope for f in factors]}")
    else:
        for f in factors:
            if sum_out is not None and sum_out not in f.scope:
                raise ValueError(f"variable {sum_out} not in every scope {[f.scope for f in factors]}")
            bound *= f.values.size
        last = {} if sum_out is None else {sum_out: len(factors) - 1}
    chain = _chain(factors, last)
    if bound >= EINSUM_TO and math.prod(_sizes(factors).values()) >= EINSUM_TO:
        result = a
        for k, (f, groups) in enumerate(zip(factors[1:], chain), 1):
            result = _matmul_product(result, f, groups, [u for u in last if last[u] == k])
        return result
    taken = 0  # factors folded into the first so far
    while len(factors) > _EINSUM_OPERANDS:
        taken += _EINSUM_OPERANDS - 1
        batch, a_own, b_own = chain[taken - 1]
        # The chain's scope after the chunk, which sums the variables it holds last.
        summed = [u for u in last if last[u] <= taken]
        factors = (_einsum(factors[:_EINSUM_OPERANDS], batch + a_own + b_own, summed), *factors[_EINSUM_OPERANDS:])
    batch, a_own, b_own = chain[-1]
    return _einsum(factors, batch + a_own + b_own, last)


def _sizes(factors: Sequence[Factor]) -> dict[int, int]:
    """Each variable's size in ``factors``; two sizes of one raise ``ValueError``."""
    size: dict[int, int] = {}
    for f in factors:
        for u, n in zip(f.scope, f.values.shape):
            if size.setdefault(u, n) != n:
                raise ValueError(f"domain size mismatch for shared variable {u}: {size[u]} vs {n}")
    return size


def _chain(
    factors: Sequence[Factor], last: Mapping[int, int]
) -> list[tuple[list[int], list[int], list[int]]]:
    """The groups ``(batch, left-own, right-own)`` of each binary product of
    the left-to-right chain over ``factors``, read from their scopes alone.
    ``last`` maps each summed variable to the index of the last factor
    holding it: the product that takes that factor sums it, and it is in no
    group of that product or a later one.  The batch, the shared variables
    the product keeps, is in the right operand's order, and each own group
    in its operand's; each product's output is the three groups in turn."""
    chain, left = [], factors[0].scope
    for f in factors[1:]:
        right = f.scope
        batch, b_own = [], []
        for u in right:
            (batch if u in left else b_own).append(u)
        a_own = [u for u in left if u not in right]
        left = batch + a_own + b_own
        chain.append((batch, a_own, b_own))
    # Kept past its last factor, a summed variable joins each later left-own
    # group and moves no other variable, so it is taken out afterwards.
    for u, k in last.items():
        chain[k - 1][0].remove(u)
        for _, a_own, _ in chain[k:]:
            a_own.remove(u)
    return chain


def _einsum(factors: Sequence[Factor], scope: list[int], summed: Iterable[int]) -> Factor:
    """The product of ``factors`` over ``scope`` with ``summed``, every other
    variable they hold, summed out: one einsum."""
    label = dict(zip([*scope, *summed], string.ascii_letters))
    spec = ",".join(["".join(map(label.__getitem__, f.scope)) for f in factors])
    try:
        values = np.einsum(spec + "->" + string.ascii_letters[: len(scope)], *[f.values for f in factors])
    except ValueError:
        _sizes(factors)  # raises the mismatch einsum found, if it was one
        raise
    return Factor._of(tuple(scope), values)


def _matmul_product(
    a: Factor, b: Factor, groups: tuple[list[int], list[int], list[int]], inner: list[int]
) -> Factor:
    """One binary product of :func:`multiply`'s chain, whose operands it
    checked, over its groups ``(batch, a-own, b-own)``, ``inner`` summed."""
    batch, a_own, b_own = groups
    a_pos = {u: i for i, u in enumerate(a.scope)}
    b_pos = {u: j for j, u in enumerate(b.scope)}
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
    try:
        axis = f.scope.index(v)
    except ValueError:
        raise ValueError(f"variable {v} not in scope {f.scope}") from None
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
    Factor ``k`` fills slot ``k``, the ``i``-th step's result slot
    ``len(scopes) + i``; a table waits in the bucket of its earliest
    variable in the order, or in a last bucket if it holds kept variables
    only.  One step per bucket: its variable (``None`` for the last), its
    operands' slots in arrival order, each binary product's joint entries,
    and its result's entries.  Also returns the multiplications (the joints'
    sum), the peak (the largest joint or result) and each slot's scope but
    the last step's result, for :func:`_merge`, which may then contract
    nested buckets together in steps of the same form."""
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
    return steps, multiplications, peak, placed


def _merge(steps: list, placed: Sequence[Iterable[int]], size: dict[int, int], n: int) -> list:
    """:func:`_plan`'s ``steps`` over ``n`` input tables, whose slots have the
    scopes ``placed``, with nested buckets contracted together, as SPI's
    set-factoring (Li & D'Ambrosio 1994) and bucket elimination's clusters
    (Dechter 1999) do.  A step whose joint lies inside the joint of the
    step that produced one of its tables is merged into that step: the
    producer's tables and the step's others form one step, planned by
    :func:`_contraction`, whose variables are a tuple.  Merges nest, a step
    takes the producer whose merge saves the most, and a merge is kept only
    when it plans fewer multiplications than the two steps apart.  Every
    product of a merged step lies inside a table the plan already counted,
    the producer's joint or, for a lone table, its result, so the peak
    never rises.  Slots are numbered afresh: each marginalization a merged
    step needs first is a step of its own, over one table, before it."""
    # Each merged step's tables' slots, variables, multiplications and
    # contraction, by its place in ``steps``; and the steps merged into one.
    merged: dict[int, tuple] = {}
    absorbed: set[int] = set()
    for i, (v, slots, joints, _) in enumerate(steps):
        own, saving = sum(joints), 0
        for slot in slots:
            p = slot - n
            # A joint holding the result of step p lies inside p's joint only
            # if it is that result, p's own variables being summed out.
            if p < 0 or joints and joints[-1] != steps[p][3]:
                continue
            tables, both, cost, _ = merged.get(p) or (steps[p][1], [steps[p][0]], sum(steps[p][2]), None)
            tables = tables + [s for s in slots if s != slot]
            both = both if v is None else both + [v]
            contraction = _contraction([placed[s] for s in tables], both, size)
            gain = cost + own - sum(contraction[3])
            if gain > saving:
                saving, best = gain, (p, (tables, both, cost + own - gain, contraction))
        if saving:
            absorbed.add(best[0])
            merged[i] = best[1]
    if not merged:
        return steps

    # The steps before the first one merged away keep their slots.
    first = min(absorbed)
    slot_of = list(range(n + first))  # each slot's number in the merged plan
    merged_steps = steps[:first]
    for i in range(first, len(steps)):
        if i in absorbed:
            slot_of.append(None)
            continue
        if i in merged:
            tables, _, _, (marginals, order, summed, joints, entries) = merged[i]
            operands = list(map(slot_of.__getitem__, tables))
            for k, u, marginal in marginals:
                merged_steps.append((u, [operands[k]], [], marginal))
                operands[k] = n + len(merged_steps) - 1
            merged_steps.append((summed, [operands[k] for k in order], joints, entries))
        else:
            v, slots, joints, entries = steps[i]
            merged_steps.append((v, list(map(slot_of.__getitem__, slots)), joints, entries))
        slot_of.append(n + len(merged_steps) - 1)
    return merged_steps


def _contraction(scopes: Sequence[Iterable[int]], summed: list[int], size: dict[int, int]) -> tuple:
    """One step over tables of ``scopes`` with ``summed`` summed out: a
    variable held by one table is marginalized out of it first, then the
    tables are multiplied smallest first, the earlier on a tie, each other
    variable summed in the product that takes the last table holding it.
    Returns the marginalizations as (table, variable, entries left), the
    tables' order, the variables the products sum, each product's joint
    entries and the result's entries."""
    held = dict.fromkeys(summed, 0)
    entries = []
    for scope in scopes:
        n = 1
        for u in scope:
            n *= size[u]
            if u in held:
                held[u] += 1
        entries.append(n)
    marginals = []
    if 1 in held.values():
        for k, scope in enumerate(scopes):
            for u in scope:
                if held.get(u) == 1:
                    entries[k] //= size[u]
                    marginals.append((k, u, entries[k]))
    order = sorted(range(len(scopes)), key=entries.__getitem__)
    # Tables left to take that hold each variable the products sum; a
    # variable never reappears once summed, so ``seen`` only grows.
    left = {u: n for u, n in held.items() if n > 1}
    seen = {u for _, u, _ in marginals}
    product, joints = 1, []
    for k in order:
        dropped = 1
        for u in scopes[k]:
            if u not in seen:
                seen.add(u)
                product *= size[u]
            if u in left:
                left[u] -= 1
                if not left[u]:
                    dropped *= size[u]
        joints.append(product)
        product //= dropped
    return marginals, order, tuple(u for u in summed if held[u] > 1), joints[1:], product


def _live_states(f: Factor, keep: Sequence[int]) -> list[tuple[int, int, Sequence[int]]]:
    """Each variable of ``f`` outside ``keep`` with a state whose slice is
    all zero, as (variable, size, live states ascending), in scope order."""
    values = f.values
    shrunk = []
    if values.size <= _NONZERO_TO:
        if not f.scope or np.count_nonzero(values) == values.size:
            return shrunk
        for v, n, coordinates in zip(f.scope, values.shape, np.nonzero(values)):
            states = set(coordinates.tolist())
            if len(states) < n and v not in keep:
                shrunk.append((v, n, sorted(states)))
        return shrunk
    nonzero = None
    for axis, (v, n) in enumerate(zip(f.scope, values.shape)):
        # Witness: if the line through the last state of every other axis is
        # nonzero throughout, every state of this one is live.
        line = (-1,) * axis + (slice(None),) + (-1,) * (values.ndim - axis - 1)
        if v in keep or values[line].all():
            continue
        if nonzero is None:
            nonzero = values != 0
        others = tuple(a for a in range(values.ndim) if a != axis)
        states = np.flatnonzero(nonzero.any(axis=others))
        if len(states) < n:
            shrunk.append((v, n, states))
    return shrunk


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
    ``factors``, a kept variable repeated or in no factor, or two sizes of one
    variable raise ``ValueError`` before anything is counted.

    Evidence: after evidence is fixed, every state of a variable outside
    ``keep`` whose slice is all zero in a factor evidence (or an earlier
    drop) sliced is dropped, and a variable left with one state is fixed to
    it, to a fixpoint.  This is exact for signed factors, since every term
    with a dead state is zero, and makes negative findings factorize away as
    in Heckerman's Quickscore.  ``stats.pruned_states`` counts the dropped
    states (all of a fixed variable's).  Only sliced factors are scanned,
    since a network's own zeros repeat on every query; no table is written.
    Each popped factor is read once for every variable's live states, and
    every drop and fix that read finds is applied; its own cuts do not
    queue it again.  Both are sound: a dead slice stays dead as tables
    shrink, and each state kept has a nonzero entry that is kept.  A table
    of at most :data:`_NONZERO_TO` entries is read from ``np.nonzero``'s
    coordinates, which take 8 bytes per axis per nonzero entry; a larger one
    from one boolean mask, one byte an entry, axis by axis, skipping an axis
    whose witness line (the last state of every other axis) is all nonzero.
    An evidence variable in ``keep`` or in no factor raises ``ValueError``.

    Order: fixed before any product by :func:`_min_fill_order` and planned by
    :func:`_plan`, both from scopes and the size map read at entry, kept
    current as evidence fixes variables and drops states.  A min-fill plan of
    :data:`SEARCH_FROM` multiplications or more yields to min-weight's if that
    needs fewer and peaks no higher, and the plan taken is then refined by
    :func:`_merge`: a bucket whose joint lies inside the joint of the bucket
    that produced one of its tables is contracted together with it, when
    that plans fewer multiplications.  The peak never rises.

    Steps: the plan is charged to ``stats`` step by step, and the guards
    checked on each joint, before any product is formed; a tripped guard
    raises :class:`GuardExceededError` carrying the ``stats`` up to that
    joint, its ``ordering`` the order's variables that the steps charged in
    full sum out, and no table has been allocated.  ``ordering`` is
    otherwise the whole order.  Then each step of two or more tables is one
    :func:`multiply` call over them, a bucket's in arrival order with its
    variable summed out inside it, merged buckets' smallest first with
    their variables, and a lone table has its variable marginalized; the
    last step's result is the answer.
    """
    if stats is None:
        stats = EliminationStats()
    live = list(factors)
    if not live:
        raise ValueError("eliminate needs at least one factor")
    size = _sizes(live)
    var_index: dict[int, set[int]] = {}
    for i, f in enumerate(live):
        for u in f.scope:
            var_index.setdefault(u, set()).add(i)

    def fix(v: int, state: int) -> set[int]:
        """Restrict ``v`` away in place, keeping each factor's position (and
        so the product order); returns the positions of the factors it sliced."""
        held = var_index.pop(v)
        del size[v]
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
        # One read finds every dead state of the factor, and all are dropped
        # before its next pop: a dead slice stays dead as tables shrink.
        i = work.pop()
        for v, n, states in _live_states(live[i], keep):
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
                size[v] = len(states)
                stats.pruned_states += n - len(states)
        work.discard(i)

    eliminable = set(var_index) - set(keep)
    scopes = [f.scope for f in live]
    order = _min_fill_order(scopes, size, eliminable)
    steps, multiplications, peak, placed = _plan(scopes, size, order, keep)
    if multiplications >= SEARCH_FROM:
        other = _min_fill_order(scopes, size, eliminable, by_weight=True)
        if other != order:
            other_plan = _plan(scopes, size, other, keep)
            if other_plan[1] < multiplications and other_plan[2] <= peak:
                order, (steps, _, _, placed) = other, other_plan
        steps = _merge(steps, placed, size, len(scopes))

    def aborted(message: str, charged: int) -> GuardExceededError:
        # The order's variables that the first ``charged`` steps sum out.
        done = set()
        for sum_out, _, _, _ in steps[:charged]:
            done.update(sum_out if isinstance(sum_out, tuple) else [sum_out])
        stats.ordering += [u for u in order if u in done]
        return GuardExceededError(message, stats)

    for k, (_, _, joints, entries) in enumerate(steps):
        for joint in joints:
            if max_table_entries is not None and joint > max_table_entries:
                raise aborted(f"intermediate table of {joint} entries exceeds the guard", k)
            total = stats.multiplications + joint
            if max_multiplications is not None and total > max_multiplications:
                raise aborted(f"{total} multiplications exceed the guard", k)
            stats.multiplications = total
            stats.peak_table_entries = max(stats.peak_table_entries, joint)
        stats.peak_table_entries = max(stats.peak_table_entries, entries)
    stats.ordering += order

    tables: list[Factor | None] = live  # slot k's table, freed once used
    for sum_out, slots, _, _ in steps:
        if len(slots) > 1:
            result = multiply(*map(tables.__getitem__, slots), sum_out=sum_out)
        elif sum_out is not None:
            result = marginalize(tables[slots[0]], sum_out)
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
