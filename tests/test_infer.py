"""Factor algebra and the variable-elimination engine."""

import contextlib
import itertools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisymax import (
    EliminationStats,
    Factor,
    GeneratorSpec,
    GuardExceededError,
    Network,
    NoisyMaxCpd,
    Query,
    Strategy,
    TableCpd,
    Variable,
    ZeroPosteriorError,
    align,
    brute_force_joint,
    eliminate,
    expand,
    expand_cpd,
    generate,
    infer,
    marginalize,
    multiply,
    query_posterior,
    restrict,
)
from noisymax.model import node_parents
from helpers import fixed_order, noisy_or_network, random_network, random_noisymax

ALL_STRATEGIES = list(Strategy)


def chain_joints(factors, sum_out=()):
    """The joint entries of each binary product in a left-to-right chain over
    ``factors``, the sizes the plan charges for their step.  A variable of
    ``sum_out`` leaves the chain after the product that takes the last factor
    holding it."""
    last = {u: k for k, f in enumerate(factors) for u in f.scope if u in sum_out}
    size = dict(zip(factors[0].scope, factors[0].values.shape))
    joints = []
    for k, f in enumerate(factors[1:], 1):
        size.update(zip(f.scope, f.values.shape))
        joints.append(math.prod(size.values()))
        for u in [u for u in size if last.get(u) == k]:
            del size[u]
    return joints


class TestMultiply:
    def test_ones_is_identity(self):
        f = Factor((0, 1), [[1.0, 2.0], [3.0, 4.0]])
        ones = Factor((0, 1), np.ones((2, 2)))
        np.testing.assert_array_equal(multiply(ones, f).values, f.values)

    def test_scalar_factors(self):
        assert multiply(Factor((), 2.0), Factor((), 3.0)).values == 6.0

    def test_scope_order(self):
        a = Factor((3, 1), np.ones((2, 4)))
        b = Factor((2, 1), np.ones((5, 4)))
        assert multiply(a, b).scope == (1, 3, 2)

    def test_disjoint_scopes_outer_product(self):
        a = Factor((0,), [2.0, 3.0])
        b = Factor((1,), [10.0, 100.0])
        out = multiply(a, b)
        np.testing.assert_array_equal(out.values, [[20.0, 200.0], [30.0, 300.0]])

    def test_shared_variable_alignment(self):
        a = Factor((0, 1), [[1.0, 2.0], [3.0, 4.0]])
        b = Factor((1, 0), [[10.0, 1000.0], [100.0, 10000.0]])
        out = multiply(a, b)
        assert out.scope == (1, 0)
        np.testing.assert_array_equal(out.values, [[10.0, 3000.0], [200.0, 40000.0]])

    @pytest.mark.parametrize("einsum_to", [0, 2**10])
    @pytest.mark.parametrize("sizes", [(2, 3), (2, 2, 3)])
    def test_domain_size_mismatch(self, sizes, einsum_to, monkeypatch):
        monkeypatch.setattr(infer, "EINSUM_TO", einsum_to)
        factors = [Factor((0, k + 1), np.ones((n, 2))) for k, n in enumerate(sizes)]
        with pytest.raises(ValueError, match="mismatch for shared variable 0"):
            multiply(*factors)

    def test_multiplication_count(self):
        stats = EliminationStats()
        a = Factor((0,), [1.0, 2.0])
        b = Factor((1,), [1.0, 2.0, 3.0])
        eliminate([a, b], [0, 1], stats=stats)
        assert stats.multiplications == 6
        assert stats.peak_table_entries == 6

    def test_gadget_product_recovers_additive_form(self):
        # Multiplying the pairwise tables with the signed selector and
        # summing the prefix variable must equal the inclusion-exclusion
        # closed form: P(T|c) = 1 - prod(miss), P(F|c) = prod(miss).
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            cpd, variables = random_noisymax(rng, n, 2)
            result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
            product = result.factors[0]
            for f in result.factors[1:]:
                product = multiply(product, f)
            if result.auxiliary_variables:
                product = marginalize(product, result.auxiliary_variables[0].id)
            recovered = align(product, cpd.causes + (cpd.effect,))

            miss = np.ones(tuple(variables[c].size for c in cpd.causes))
            for axis, (cause, link) in enumerate(zip(cpd.causes, cpd.links)):
                shape = [1] * n
                shape[axis] = variables[cause].size
                miss = miss * link[:, 0].reshape(shape)
            np.testing.assert_allclose(recovered.values[..., 0], miss, atol=1e-12)
            np.testing.assert_allclose(recovered.values[..., 1], 1 - miss, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        sizes=st.lists(st.integers(2, 4), min_size=7, max_size=7),
        summed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fused_sum_matches_product_then_marginalize(self, counts, sizes, summed, seed):
        # The reference is np.einsum over the two value arrays, which shares
        # no code with the kernel.  counts: shared variables besides v, a's
        # own, b's own.  All zero with v summed out gives a scalar result.
        rng = np.random.default_rng(seed)
        n_batch, n_a, n_b = counts
        v, batch = 0, list(range(1, 1 + n_batch))
        a_scope = batch + list(range(10, 10 + n_a)) + [v]
        b_scope = batch + list(range(20, 20 + n_b)) + [v]
        size = dict(zip(sorted(set(a_scope + b_scope)), sizes))

        def factor(scope):
            scope = tuple(scope[k] for k in rng.permutation(len(scope)))
            return Factor(scope, rng.normal(size=[size[u] for u in scope]))

        a, b = factor(a_scope), factor(b_scope)
        sum_out = (v,) if summed else ()
        out = multiply(a, b, sum_out=sum_out)
        # Shared variables in the right operand's order.
        shared = [u for u in b.scope if u in a.scope and u not in sum_out]
        a_own = [u for u in a.scope if u not in b.scope]
        b_own = [u for u in b.scope if u not in a.scope]
        assert out.scope == tuple(shared + a_own + b_own)
        letter = {u: chr(ord("a") + k) for k, u in enumerate(size)}
        spec = "{},{}->{}".format(
            *("".join(map(letter.__getitem__, scope)) for scope in (a.scope, b.scope, out.scope))
        )
        expected = np.einsum(spec, a.values, b.values)
        assert out.values.shape == expected.shape
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        a_scope=st.lists(st.integers(0, 4), unique=True, max_size=4),
        b_scope=st.lists(st.integers(0, 4), unique=True, max_size=4),
        sizes=st.lists(st.integers(2, 4), min_size=5, max_size=5),
        summed=st.integers(-1, 3),
        cpus=st.sampled_from((2, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    # Outputs over the split variable alone, with and without a sum.
    @example(a_scope=[0, 1], b_scope=[1, 0], sizes=[3, 2, 2, 2, 2], summed=1, cpus=2, seed=0)
    @example(a_scope=[2], b_scope=[2], sizes=[2, 2, 4, 2, 2], summed=-1, cpus=3, seed=1)
    def test_split_product_matches_the_unsplit_one(
        self, a_scope, b_scope, sizes, summed, cpus, seed
    ):
        # summed indexes the shared variables in a's order; out of range
        # (-1 included) sums nothing.  A slice's matmul may take another
        # kernel than the whole one, and so sum in another order; entries in
        # [0, 1) cannot cancel, so the two agree to 1e-15 relative.
        rng = np.random.default_rng(seed)
        a = Factor(tuple(a_scope), rng.random([sizes[u] for u in a_scope]))
        b = Factor(tuple(b_scope), rng.random([sizes[u] for u in b_scope]))
        shared = [u for u in a_scope if u in b_scope]
        sum_out = (shared[summed],) if 0 <= summed < len(shared) else ()
        matmul, slices = np.matmul, []

        def recording(*args, **kwargs):
            slices.append(threading.get_ident())
            return matmul(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infer, "EINSUM_TO", 0)
            patch.setattr(infer, "CPUS", 1)
            want = multiply(a, b, sum_out=sum_out)
            patch.setattr(infer, "CPUS", cpus)
            patch.setattr(infer, "SPLIT_FROM", 0)
            patch.setattr(np, "matmul", recording)
            threads = threading.active_count()
            got = multiply(a, b, sum_out=sum_out)
        assert threading.active_count() == threads  # every slice thread joined
        assert got.scope == want.scope
        np.testing.assert_allclose(got.values, want.values, rtol=1e-15, atol=0)
        # The batch follows the right operand.
        batch = [u for u in b_scope if u in shared and u not in sum_out]
        if batch:
            # One matmul per state of the first batch variable, dealt
            # round-robin; the calling thread takes slices 0, w, 2w, ...
            states = sizes[batch[0]]
            assert len(slices) == states
            mine = slices.count(threading.get_ident())
            assert mine == len(range(0, states, min(cpus, states)))
        else:
            assert len(slices) == 1

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_split_slice_error_is_raised_in_the_caller(self, failing):
        # Variable 0 is the batch: the caller forms slice 0, one helper slice 1.
        a = Factor((0, 1), np.ones((2, 3)))
        b = Factor((0, 2), np.ones((2, 4)))
        matmul, caller = np.matmul, threading.get_ident()

        def failing_matmul(*args, **kwargs):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} slice failed")
            return matmul(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infer, "CPUS", 2)
            patch.setattr(infer, "SPLIT_FROM", 0)
            patch.setattr(infer, "EINSUM_TO", 0)
            patch.setattr(np, "matmul", failing_matmul)
            threads = threading.active_count()
            with pytest.raises(RuntimeError, match=f"{failing} slice failed"):
                multiply(a, b)
        assert threading.active_count() == threads

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 3), min_size=1, max_size=6),
        count=st.integers(2, 70),
        summed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # Past 31 tables, numpy 1.x's einsum limit, the product forms in chunks.
    @example(sizes=[2, 3, 2], count=70, summed=True, seed=0)
    @example(sizes=[3, 2, 2, 3, 2, 2], count=32, summed=False, seed=1)
    def test_einsum_matches_the_matmul_chain(self, sizes, count, summed, seed):
        # A bucket: count tables over variables 0..len(sizes)-1, scalars and
        # unary tables among them, every one holding sum_out when one is
        # summed.  Entries of either sign and magnitude 0.95 to 1.05 keep a
        # product of up to 70 of them between 0.02 and 30 in magnitude, so
        # an absolute 1e-12 is a tight test of at most 3**6 such terms.
        rng = np.random.default_rng(seed)
        n = len(sizes)
        sum_out = (int(rng.integers(n)),) if summed else ()
        factors = []
        for _ in range(count):
            scope = [int(u) for u in rng.permutation(n)[: rng.integers(n + 1)]]
            for u in sum_out:
                if u not in scope:
                    scope.insert(int(rng.integers(len(scope) + 1)), u)
            shape = [sizes[u] for u in scope]
            values = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.95, 1.05, shape)
            factors.append(Factor(tuple(scope), values))
        einsum, calls = np.einsum, []

        def recording(*args, **kwargs):
            calls.append(len(args) - 1)  # operands after the spec
            return einsum(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "einsum", recording)
            patch.setattr(infer, "EINSUM_TO", 0)
            chain = multiply(*factors, sum_out=sum_out)
            assert calls == []
            patch.setattr(infer, "EINSUM_TO", 10**9)
            fused = multiply(*factors, sum_out=sum_out)
        # Each chunk after the first carries the previous chunk's result.
        assert max(calls) <= 31
        assert len(calls) == 1 + max(0, math.ceil((count - 31) / 30))
        assert fused.scope == chain.scope
        np.testing.assert_allclose(fused.values, chain.values, rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        scopes=st.lists(
            st.lists(st.integers(0, 6), unique=True, max_size=5), min_size=2, max_size=6
        ),
        sizes=st.lists(st.integers(2, 4), min_size=7, max_size=7),
        summed=st.lists(st.integers(0, 6), unique=True, max_size=4),
        path=st.sampled_from(["default", "chain", "split"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Joints of 2**12 and 4**5 entries, one variable summed before the last product.
    @example(
        scopes=[[0, 1, 2], [2, 3, 4, 5], [0, 1, 4, 5, 6]], sizes=[4, 2, 4, 2, 4, 4, 2],
        summed=[2, 0, 4], path="default", seed=0,
    )
    @example(
        scopes=[[0, 1], [1, 2], [0, 3, 4]], sizes=[4, 4, 4, 4, 4, 2, 2],
        summed=[1, 0], path="default", seed=1,
    )
    # A variable held by two of three operands, which share a scope.
    @example(
        scopes=[[0, 1], [0, 1], [1]], sizes=[2, 3, 2, 2, 2, 2, 2],
        summed=[0], path="default", seed=2,
    )
    def test_tuple_sum_matches_einsum(self, scopes, sizes, summed, path, seed):
        # Nested buckets contracted together: each variable of the tuple is
        # held by two or more operands and summed in the product that takes
        # the last one holding it.  The reference is one np.einsum over the
        # value arrays.  Entries in [0.5, 1.5) cannot cancel.
        rng = np.random.default_rng(seed)
        factors = [
            Factor(tuple(sc), rng.uniform(0.5, 1.5, [sizes[u] for u in sc])) for sc in scopes
        ]
        sum_out = tuple(u for u in summed if sum(u in sc for sc in scopes) >= 2)
        with pytest.MonkeyPatch.context() as patch:
            if path != "default":
                patch.setattr(infer, "EINSUM_TO", 0)
            if path == "split":
                patch.setattr(infer, "SPLIT_FROM", 0)
                patch.setattr(infer, "CPUS", 2)
            threads = threading.active_count()
            out = multiply(*factors, sum_out=sum_out)
        assert threading.active_count() == threads
        # The chain's scope without sums, in which a product's shared
        # variables come first in its right operand's order, less sum_out.
        left = factors[0].scope
        for f in factors[1:]:
            shared = [u for u in f.scope if u in left]
            left = shared + [u for u in left if u not in f.scope] + [
                u for u in f.scope if u not in left
            ]
        assert out.scope == tuple(u for u in left if u not in sum_out)
        letter = {u: chr(ord("a") + u) for u in range(7)}
        spec = ",".join("".join(map(letter.__getitem__, sc)) for sc in scopes)
        expected = np.einsum(
            spec + "->" + "".join(map(letter.__getitem__, out.scope)), *(f.values for f in factors)
        )
        np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("einsum_to", [0, 2**10])
    @pytest.mark.parametrize(
        "scopes, sum_out",
        [
            ([(0, 1), (1, 2)], (0,)),  # 0 held by the left alone; 1 by both
            ([(0, 1), (1, 2)], (1, 2)),  # 2 by the right alone
            ([(0, 1), (1, 2)], (3,)),  # 3 by neither
            ([(0,), (1,)], (2,)),
            ([(0, 1), (1,)], (0,)),
            ([(1,), (0, 1)], (0,)),
        ],
    )
    def test_tuple_sum_out_in_fewer_than_two_operands(self, scopes, sum_out, einsum_to, monkeypatch):
        monkeypatch.setattr(infer, "EINSUM_TO", einsum_to)
        size = {0: 2, 1: 3, 2: 2}
        factors = [Factor(sc, np.ones([size[u] for u in sc])) for sc in scopes]
        with pytest.raises(ValueError, match="in fewer than two scopes"):
            multiply(*factors, sum_out=sum_out)

    def test_fused_bucket_never_allocates_the_joint(self):
        # Buckets (v, x1..x10) and (v, y1..y10): their joint has 2**21
        # entries, 16 MB of float64, and the summed result half of that.
        rng = np.random.default_rng(5)
        a = Factor(tuple(range(11)), rng.random((2,) * 11))
        b = Factor((0, *range(11, 21)), rng.random((2,) * 11))
        stats = EliminationStats()
        tracemalloc.start()
        try:
            eliminate([a, b], list(range(1, 21)), stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.ordering == [0]
        assert stats.peak_table_entries == 2**21
        assert peak < 2**21 * 8

    def test_right_operand_is_viewed_not_copied(self):
        # Bucket 0, (0, 1..10) and (0, 11..20), leaves a result over 1..20:
        # 2**20 entries, 8 MB of float64, laid out 1, 2, ..., 20.  Bucket 1
        # then takes the small (1, 30, 4, 3, 2) first and that result
        # second: its batch is 2, 3 and 4, in the right operand's order, so
        # the result is viewed as matrices in place, split or not, and only
        # the small table is copied.
        rng = np.random.default_rng(11)
        factors = [
            Factor((0, *range(1, 11)), rng.random((2,) * 11)),
            Factor((0, *range(11, 21)), rng.random((2,) * 11)),
            Factor((1, 30, 4, 3, 2), rng.random((2,) * 5)),
        ]
        keep = [30, *range(2, 21)]
        peaks, real_multiply = [], infer.multiply

        def measured(*tables, **kwargs):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            out = real_multiply(*tables, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - before
            peaks.append((max(f.values.size for f in tables), out.values.nbytes, peak))
            return out

        stats = EliminationStats()
        tracemalloc.start()
        try:
            with fixed_order([0, 1]), pytest.MonkeyPatch.context() as patch:
                patch.setattr(infer, "multiply", measured)
                got = eliminate(factors, keep, stats=stats)
        finally:
            tracemalloc.stop()
        assert stats.ordering == [0, 1]
        _, (operand, out_bytes, peak) = peaks
        assert operand == 2**20
        # The output and a 256 kB margin, far below the 8 MB operand.
        assert peak <= out_bytes + 2**18
        want = np.einsum(
            "ABCDEFGHIJK,ALMNOPQRSTU,BxEDC->xCDEFGHIJKLMNOPQRSTU",
            *(f.values for f in factors),
        )
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 3), min_size=2, max_size=7),
        count=st.integers(1, 6),
        einsum_to=st.sampled_from((0, infer.EINSUM_TO)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_answer_does_not_depend_on_axis_order(self, sizes, count, einsum_to, seed):
        # The same tables with every one's axes permuted: the chain's batch
        # order, and so which operand is viewed and which copied, changes,
        # but not the answer.  Entries in [0.5, 1.5) cannot cancel.
        rng = np.random.default_rng(seed)
        n = len(sizes)
        factors = []
        for _ in range(count):
            scope = [int(u) for u in rng.permutation(n)[: rng.integers(1, n + 1)]]
            factors.append(Factor(tuple(scope), rng.uniform(0.5, 1.5, [sizes[u] for u in scope])))
        held = sorted({u for f in factors for u in f.scope})
        keep = [int(u) for u in rng.permutation(held)[: rng.integers(1, len(held) + 1)]]
        permuted = []
        for f in factors:
            perm = rng.permutation(len(f.scope))
            permuted.append(Factor(tuple(f.scope[k] for k in perm), f.values.transpose(perm)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infer, "EINSUM_TO", einsum_to)
            want = eliminate(factors, keep)
            got = eliminate(permuted, keep)
        assert got.scope == want.scope == tuple(keep)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0)

    def test_each_bucket_is_freed_after_its_product(self):
        # A chain 0 - 1 - ... - 24 beside a kept block of 16 variables:
        # summing i out leaves a table over the block and i + 1, 2**17
        # entries (1 MB of float64).  At most a few may be alive at once.
        block = tuple(range(100, 116))
        n = 24
        rng = np.random.default_rng(7)
        factors = [Factor((0, *block), rng.random((2,) * 17))]
        factors += [Factor((i, i + 1), rng.random((2, 2))) for i in range(n)]
        stats = EliminationStats()
        tracemalloc.start()
        try:
            with fixed_order(range(n)):
                eliminate(factors, [*block, n], stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.peak_table_entries == 2**18
        assert peak < n * 2**17 * 8 / 4


class TestMarginalize:
    SELECTOR = Factor((5, 6), [[1.0, -1.0], [0.0, 1.0]])

    def test_selector_collapses_to_indicator(self):
        out = marginalize(self.SELECTOR, 5)
        assert out.scope == (6,)
        np.testing.assert_array_equal(out.values, [1.0, 0.0])

    def test_uniform_to_scalar(self):
        out = marginalize(Factor((0,), [0.5, 0.5]), 0)
        assert out.scope == ()
        assert out.values == pytest.approx(1.0)

    def test_commutes(self):
        rng = np.random.default_rng(3)
        f = Factor((0, 1, 2), rng.normal(size=(2, 3, 4)))
        a = marginalize(marginalize(f, 0), 2)
        b = marginalize(marginalize(f, 2), 0)
        assert a.scope == b.scope
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_missing_variable(self):
        with pytest.raises(ValueError):
            marginalize(self.SELECTOR, 9)


class TestRestrict:
    SELECTOR = Factor((5, 6), [[1.0, -1.0], [0.0, 1.0]])

    def test_selector_on_observed_effect(self):
        out = restrict(self.SELECTOR, 6, 1)
        assert out.scope == (5,)
        np.testing.assert_array_equal(out.values, [-1.0, 1.0])

    def test_restrict_then_marginalize_is_slice_sum(self):
        rng = np.random.default_rng(4)
        f = Factor((0, 1), rng.normal(size=(3, 4)))
        out = marginalize(restrict(f, 0, 2), 1)
        assert out.values == pytest.approx(f.values[2].sum())

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            restrict(self.SELECTOR, 6, 2)

    @pytest.mark.parametrize("state", [True, False, 1.0])
    def test_state_that_is_not_an_integer(self, state):
        with pytest.raises(ValueError, match="out of range"):
            restrict(Factor((0,), [1.0, 2.0]), 0, state)

    def test_missing_variable(self):
        with pytest.raises(ValueError):
            restrict(self.SELECTOR, 9, 0)


class TestMinFillOrder:
    """The first variable :func:`eliminate` picks."""

    def chain_factors(self):
        return [
            Factor((0,), [0.5, 0.5]),
            Factor((0, 1), np.full((2, 2), 0.5)),
            Factor((1, 2), np.full((2, 2), 0.5)),
        ]

    def first_eliminated(self, factors, keep):
        stats = EliminationStats()
        eliminate(factors, keep, stats=stats)
        return stats.ordering[0]

    def test_chain_prefers_leaf(self):
        # Eliminating B forms a product over {A,B,C} (8 entries);
        # eliminating C only over {B,C} (4 entries).
        assert self.first_eliminated(self.chain_factors(), (0,)) == 2

    def test_single_candidate(self):
        assert self.first_eliminated(self.chain_factors(), (0, 2)) == 1

    def test_fewest_entries_beats_fewest_variables(self):
        # Eliminating 0 forms a 2-variable product of 20 entries; eliminating
        # 1 (or 2) a 3-variable product of 8 entries.
        factors = [
            Factor((0, 3), np.ones((10, 2))),
            Factor((1, 2, 3), np.ones((2, 2, 2))),
        ]
        assert self.first_eliminated(factors, (3,)) == 1

    def test_fewest_fill_edges_beats_fewest_entries(self):
        # Eliminating 3 forms an 8-entry product but joins 4 and 5, which
        # share no factor; eliminating 0 forms 27 entries and joins nothing.
        factors = [
            Factor((0, 1, 2), np.ones((3, 3, 3))),
            Factor((3, 4), np.ones((2, 2))),
            Factor((3, 5), np.ones((2, 2))),
        ]
        assert self.first_eliminated(factors, (1, 2, 4, 5)) == 0

    @staticmethod
    def draw_scopes(data) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
        """Variable sizes, factor scopes, and the variables they hold.  A scope
        holds 0 to 5 variables: scalar factors and cliques wider than a
        triangle reach the graph build."""
        n = data.draw(st.integers(2, 12))
        sizes = data.draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
        scopes = data.draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=0, max_size=5, unique=True),
                min_size=1, max_size=14,
            )
        )
        return sizes, [tuple(sc) for sc in scopes], sorted({v for sc in scopes for v in sc})

    @staticmethod
    def naive_order(sizes, scopes, candidates, by_weight=False) -> list[int]:
        """Min-fill (min-weight ``by_weight``), recounted from the live scopes
        at every step: the key (fill, entries, id), or (entries, fill, id)."""
        live = [set(sc) for sc in scopes]

        def recount(v):
            nbrs = set().union(*(s for s in live if v in s)) - {v}
            fill = sum(
                not any(a in s and b in s for s in live)
                for a, b in itertools.combinations(sorted(nbrs), 2)
            )
            entries = math.prod(sizes[u] for u in nbrs | {v})
            return (entries, fill, v) if by_weight else (fill, entries, v)

        order = []
        candidates = set(candidates)
        while candidates:
            v = min(map(recount, candidates))[2]
            merged = set().union(*(s for s in live if v in s)) - {v}
            live = [s for s in live if v not in s] + [merged]
            candidates.discard(v)
            order.append(v)
        return order

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_whole_order_matches_a_naive_recount(self, data):
        sizes, scopes, present = self.draw_scopes(data)
        factors = [Factor(sc, np.ones([sizes[v] for v in sc])) for sc in scopes]
        stats = EliminationStats()
        eliminate(factors, present[:1], stats=stats)
        assert stats.ordering == self.naive_order(sizes, scopes, present[1:])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_min_weight_order_matches_a_naive_recount(self, data):
        sizes, scopes, present = self.draw_scopes(data)
        size = {v: sizes[v] for v in present}
        order = infer._min_fill_order(scopes, size, set(present[1:]), by_weight=True)
        assert order == self.naive_order(sizes, scopes, present[1:], by_weight=True)

    def test_tie_breaks_to_smallest_id(self):
        factors = [
            Factor((0, 2), np.ones((2, 2))),
            Factor((1, 2), np.ones((2, 2))),
        ]
        assert self.first_eliminated(factors, (2,)) == 0


class TestOrderSearch:
    """A costly query's order: min-fill or min-weight, by the cost of each
    order's plan; and every plan against the products it executes."""

    @staticmethod
    def check_plan_against_execution(factors, keep, order):
        # Every product and lone-bucket sum, recorded through the module
        # globals: each joint formed (or summed inside the call), in order.
        joints, sums, calls = [], [], []
        real_multiply, real_marginalize = infer.multiply, infer.marginalize

        def recording(*factors, sum_out=()):
            calls.append(len(factors))
            joints.extend(chain_joints(factors))
            return real_multiply(*factors, sum_out=sum_out)

        def summing(f, v):
            out = real_marginalize(f, v)
            sums.append(out.size)
            return out

        stats = EliminationStats()
        with pytest.MonkeyPatch.context() as patch, fixed_order(order):
            patch.setattr(infer, "multiply", recording)
            patch.setattr(infer, "marginalize", summing)
            result = eliminate(factors, keep, stats=stats)
        size = {u: n for f in factors for u, n in zip(f.scope, f.values.shape)}
        scopes = [f.scope for f in factors]
        steps, multiplications, peak, _ = infer._plan(scopes, size, list(order), keep)
        assert joints == [joint for _, _, planned, _ in steps.values() for joint in planned]
        # One call per bucket of two or more tables, taking all of them.
        assert calls == [len(slots) for _, slots, _, _ in steps.values() if len(slots) > 1]
        counts = (sum(joints), max(joints + sums + [result.size]))
        assert (stats.multiplications, stats.peak_table_entries) == counts
        assert (multiplications, peak) == counts

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_plan_predicts_the_counts_exactly(self, data):
        n = data.draw(st.integers(1, 9))
        sizes = data.draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
        scopes = data.draw(
            st.lists(
                st.lists(st.integers(0, n - 1), max_size=4, unique=True),
                min_size=1, max_size=10,
            )
        )
        factors = [Factor(tuple(sc), np.ones([sizes[v] for v in sc])) for sc in scopes]
        present = sorted({v for sc in scopes for v in sc})
        keep = data.draw(st.lists(st.sampled_from(present), unique=True)) if present else []
        order = data.draw(st.permutations([v for v in present if v not in keep]))
        self.check_plan_against_execution(factors, keep, order)

    @pytest.mark.parametrize(
        "scopes, keep, order",
        [
            ([(), (0,), (0, 1)], (), (1, 0)),  # a scalar, and one-factor buckets
            ([(0, 1), (1, 2), ()], (0,), (2, 1)),  # a one-factor bucket mid-order
            ([(), ()], (), ()),  # scalars only
        ],
    )
    def test_plan_of_scalars_and_lone_buckets(self, scopes, keep, order):
        factors = [Factor(sc, np.ones((3,) * len(sc))) for sc in scopes]
        self.check_plan_against_execution(factors, keep, order)

    def test_nested_bucket_is_merged_smallest_first(self, monkeypatch):
        # Bucket 0 holds (0..4) and (0,); its result over 1..4 lies in
        # bucket 1 with (1,), inside bucket 0's joint.  Apart they take
        # 32 + 16 multiplications; merged, (0,) times (1,) takes 4 and that
        # times (0..4) 32, summing 0 and 1 together.
        factors = [
            Factor((0, 1, 2, 3, 4), np.ones((2,) * 5)),
            Factor((0,), np.ones(2)),
            Factor((1,), np.ones(2)),
        ]
        keep = (2, 3, 4)
        monkeypatch.setattr(infer, "SEARCH_FROM", 0)
        calls, real_multiply = [], infer.multiply

        def recording(*tables, sum_out=()):
            calls.append(([f.scope for f in tables], sum_out))
            return real_multiply(*tables, sum_out=sum_out)

        monkeypatch.setattr(infer, "multiply", recording)
        stats = EliminationStats()
        with fixed_order([0, 1]):
            got = eliminate(factors, keep, stats=stats)
        assert calls == [([(0,), (1,), (0, 1, 2, 3, 4)], (0, 1))]
        assert (stats.multiplications, stats.peak_table_entries) == (36, 32)
        assert stats.ordering == [0, 1]
        np.testing.assert_array_equal(got.values, np.full((2, 2, 2), 4.0))
        steps, _, _, placed = infer._plan([f.scope for f in factors], {u: 2 for u in range(5)}, [0, 1], keep)
        assert list(steps.items()) == [
            (3, ((0,), [0, 1], [32], 16)), (4, ((1,), [2, 3], [16], 8)), (5, ((), [4], [], 8))
        ]
        steps = infer._merge(steps, placed, {u: 2 for u in range(5)})
        assert list(steps.items()) == [(4, ((0, 1), [1, 2, 0], [4, 32], 8)), (5, ((), [4], [], 8))]

    def test_lone_table_is_marginalized_before_its_merged_step(self, monkeypatch):
        # Bucket 0 is (0..3) alone; its result over 1..3 joins (1, 2, 3),
        # (1, 2) and (1,) in bucket 1, 24 multiplications in arrival order.
        # Merged, 0 is held by one table and summed out of it first, as a
        # step of its own; then (1,), (1, 2) and the two tables over 1..3
        # take 4 + 8 + 8, summing 1 in the last product.
        rng = np.random.default_rng(3)
        factors = [
            Factor(sc, rng.uniform(0.5, 1.5, (2,) * len(sc)))
            for sc in [(0, 1, 2, 3), (1, 2, 3), (1, 2), (1,)]
        ]
        keep = (2, 3)
        size = {u: 2 for u in range(4)}
        steps, _, _, placed = infer._plan([f.scope for f in factors], size, [0, 1], keep)
        assert list(steps.items()) == [
            (4, ((0,), [0], [], 8)), (5, ((1,), [1, 2, 3, 4], [8, 8, 8], 4)), (6, ((), [5], [], 4))
        ]
        # The marginalization's key is one no step has.
        assert list(infer._merge(steps, placed, size).items()) == [
            (7, ((0,), [0], [], 8)), (5, ((1,), [3, 2, 7, 1], [4, 8, 8], 4)), (6, ((), [5], [], 4))
        ]
        monkeypatch.setattr(infer, "SEARCH_FROM", 0)
        stats = EliminationStats()
        with fixed_order([0, 1]):
            got = eliminate(factors, keep, stats=stats)
        assert (stats.multiplications, stats.peak_table_entries) == (20, 8)
        want = np.einsum("abcd,bcd,bc,b->cd", *(f.values for f in factors))
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=0)

    def test_merged_step_absorbed_in_turn_leaves_no_marginalization(self, monkeypatch):
        # Bucket 3 holds (2, 3, 1, 0) and (3,); buckets 2 and 1 then each
        # sum one variable out of the result alone.  Bucket 2 merges bucket
        # 3, summing 2 out of the large table first, and bucket 1 merges
        # that step in turn: only its own marginalizations, of 2 then 1,
        # are left, and (3,) times their result takes 4 multiplications.
        rng = np.random.default_rng(4)
        factors = [
            Factor((2, 3, 1, 0), rng.uniform(0.5, 1.5, (2,) * 4)),
            Factor((3,), rng.uniform(0.5, 1.5, 2)),
        ]
        keep = (0,)
        size = {u: 2 for u in range(4)}
        steps, _, _, placed = infer._plan([f.scope for f in factors], size, [3, 2, 1], keep)
        assert list(steps.items()) == [
            (2, ((3,), [0, 1], [16], 8)), (3, ((2,), [2], [], 4)),
            (4, ((1,), [3], [], 2)), (5, ((), [4], [], 2)),
        ]
        assert list(infer._merge(steps, placed, size).items()) == [
            (6, ((2,), [0], [], 8)), (7, ((1,), [6], [], 4)),
            (4, ((3,), [1, 7], [4], 2)), (5, ((), [4], [], 2)),
        ]
        monkeypatch.setattr(infer, "SEARCH_FROM", 0)
        stats = EliminationStats()
        with fixed_order([3, 2, 1]):
            got = eliminate(factors, keep, stats=stats)
        assert (stats.multiplications, stats.peak_table_entries) == (4, 8)
        want = np.einsum("cdba,d->a", *(f.values for f in factors))
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=0)

    @staticmethod
    def check_merged_plan(net, strategy, query) -> int:
        """Refine every plan, and check the refined one against brute force,
        against its execution, against the plan it refines and against an
        abort one multiplication short of it.  Returns its merged steps."""
        try:
            expected = brute_force_joint(net, query)
        except ZeroPosteriorError:
            return 0
        expanded, _ = expand(net, strategy)
        plans, calls = [], []
        real_merge, real_multiply = infer._merge, infer.multiply

        def merging(steps, *args):
            plans.append((steps, real_merge(steps, *args)))
            return plans[-1][1]

        def recording(*factors, sum_out=()):
            calls.append(chain_joints(factors, sum_out))
            return real_multiply(*factors, sum_out=sum_out)

        def counts(steps):
            joints = [joint for _, _, planned, _ in steps.values() for joint in planned]
            return sum(joints), max(joints + [entries for *_, entries in steps.values()])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infer, "SEARCH_FROM", 0)
            patch.setattr(infer, "_merge", merging)
            patch.setattr(infer, "multiply", recording)
            posterior, stats = query_posterior(expanded, query)
            [(planned, merged)] = plans
            np.testing.assert_allclose(posterior.values, expected.values, rtol=0, atol=1e-12)
            # One multiply call per step of two or more tables, its chain
            # having the step's joints; no more multiplications, and no
            # higher peak, than the bucket plan of the same order.
            assert calls == [joints for _, slots, joints, _ in merged.values() if len(slots) > 1]
            multiplications, peak = counts(merged)
            assert (stats.multiplications, stats.peak_table_entries) == (multiplications, peak)
            assert multiplications <= counts(planned)[0] and peak <= counts(planned)[1]
            # Each operand slot is an input (the first step's key counts
            # them) or an earlier key, each is taken exactly once, and the
            # last key, the last bucket's, holds the answer.
            inputs, keys = min(planned), list(merged)
            for k, (_, slots, _, _) in enumerate(merged.values()):
                assert all(s < inputs or s in keys[:k] for s in slots)
            taken = [s for _, slots, _, _ in merged.values() for s in slots]
            assert sorted(taken) == sorted([*range(inputs), *keys[:-1]])
            assert keys[-1] == max(planned) and merged[keys[-1]][3] == posterior.values.size
            merges = len(planned.keys() - merged.keys())  # result slots absorbed
            if not multiplications:
                return merges
            # An abort forms no table and carries the order's variables whose
            # steps were charged in full.
            calls.clear()
            with pytest.raises(GuardExceededError) as abort:
                query_posterior(expanded, query, max_multiplications=multiplications - 1)
        assert calls == []
        charged, done = 0, set()
        for summed, _, joints, _ in merged.values():
            if charged + sum(joints) >= multiplications:
                break
            charged += sum(joints)
            done.update(summed)
        assert charged <= abort.value.stats.multiplications < multiplications
        assert abort.value.stats.ordering == [u for u in stats.ordering if u in done]
        return merges

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        strategy=st.sampled_from(ALL_STRATEGIES),
        data=st.data(),
    )
    def test_merged_plan_under_any_evidence(self, seed, strategy, data):
        net = random_network(seed)
        n = len(net.variables)
        target = data.draw(st.integers(0, n - 1))
        observed = data.draw(
            st.lists(st.integers(0, n - 1).filter(lambda v: v != target), max_size=4, unique=True)
        )
        evidence = {v: data.draw(st.integers(0, net.variables[v].size - 1)) for v in observed}
        self.check_merged_plan(net, strategy, Query((target,), evidence))

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
    def test_merged_plan_on_random_networks(self, strategy):
        # Merges are rare on networks this small: at least one must happen.
        merges = 0
        for seed in range(200):
            net = random_network(seed)
            query = Query((0,), {len(net.variables) - 1: 0})
            merges += self.check_merged_plan(net, strategy, query)
        assert merges

    @pytest.mark.parametrize(
        "weight_counts, takes_min_weight",
        [((9, 4), True), ((10, 4), False), ((9, 5), False)],
        ids=["fewer-multiplications", "as-many", "higher-peak"],
    )
    def test_min_weight_must_multiply_less_and_peak_no_higher(
        self, monkeypatch, weight_counts, takes_min_weight
    ):
        # Min-fill eliminates 0 first (no fill edge), min-weight 3 (8 entries).
        factors = [
            Factor((0, 1, 2), np.ones((3, 3, 3))),
            Factor((3, 4), np.ones((2, 2))),
            Factor((3, 5), np.ones((2, 2))),
        ]
        keep = (1, 2, 4, 5)
        real_plan = infer._plan

        def plan(scopes, size, order, kept):
            counts = weight_counts if order[0] == 3 else (10, 4)
            steps, _, _, placed = real_plan(scopes, size, order, kept)
            return steps, *counts, placed

        monkeypatch.setattr(infer, "SEARCH_FROM", 0)
        monkeypatch.setattr(infer, "_plan", plan)
        stats = EliminationStats()
        eliminate(factors, keep, stats=stats)
        assert stats.ordering == ([3, 0] if takes_min_weight else [0, 3])

    @pytest.fixture(scope="class")
    def findings_net(self):
        """The 30x40 bn2o-findings network, parent-divorcing, and its findings."""
        spec = GeneratorSpec(
            "bn2o", 2, diseases=30, findings=40, max_parents=10, effect_domain_size=2
        )
        net = generate(spec)
        expanded, _ = expand(net, Strategy.PARENT_DIVORCING)
        return expanded, [v for v in net.variables if v.name.startswith("f")]

    @staticmethod
    def record_orders(monkeypatch) -> list[list[int]]:
        calls = []
        ordering = infer._min_fill_order

        def recorded(*args, **kwargs):
            calls.append(ordering(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(infer, "_min_fill_order", recorded)
        return calls

    def test_costly_query_takes_min_weight_when_it_multiplies_less(
        self, findings_net, monkeypatch
    ):
        expanded, findings = findings_net
        query = Query((0,), {v.id: v.size - 1 for v in findings})
        calls = self.record_orders(monkeypatch)
        posterior, stats = query_posterior(expanded, query)
        min_fill, min_weight = calls
        assert stats.ordering == min_weight
        assert (stats.multiplications, stats.peak_table_entries) == (13_259_016, 2_097_152)

        search_from = infer.SEARCH_FROM
        monkeypatch.setattr(infer, "SEARCH_FROM", math.inf)
        by_fill, fill_stats = query_posterior(expanded, query)
        assert fill_stats.ordering == min_fill
        assert (fill_stats.multiplications, fill_stats.peak_table_entries) == (
            20_900_056, 4_194_304
        )
        assert fill_stats.multiplications >= search_from
        assert np.abs(posterior.values - by_fill.values).max() <= 1e-12

    @pytest.mark.parametrize(
        "search_from, counts",
        [(20_900_056, (13_259_016, 2_097_152)), (20_900_057, (20_900_056, 4_194_304))],
        ids=["plan-reaches-it", "plan-below-it"],
    )
    def test_search_is_gated_on_min_fills_plan(
        self, findings_net, monkeypatch, search_from, counts
    ):
        # Min-fill's plan needs 20,900,056 multiplications here: a gate of that
        # count searches, one more does not.
        expanded, findings = findings_net
        monkeypatch.setattr(infer, "SEARCH_FROM", search_from)
        calls = self.record_orders(monkeypatch)
        _, stats = query_posterior(expanded, Query((0,), {v.id: v.size - 1 for v in findings}))
        assert stats.ordering == calls[-1]
        assert len(calls) == (2 if search_from <= 20_900_056 else 1)
        assert (stats.multiplications, stats.peak_table_entries) == counts

    def test_cheap_query_orders_once(self, findings_net, monkeypatch):
        expanded, findings = findings_net
        calls = self.record_orders(monkeypatch)
        _, stats = query_posterior(expanded, Query((0,), {v.id: 0 for v in findings}))
        [order] = calls
        assert stats.multiplications < infer.SEARCH_FROM
        assert stats.ordering == order


class TestQueryPosterior:
    def test_root_prior(self):
        net = Network(
            (Variable(0, "A", ("a", "b")),),
            (TableCpd(Factor((0,), [0.3, 0.7])),),
        )
        for strategy in ALL_STRATEGIES:
            expanded, _ = expand(net, strategy)
            posterior, _ = query_posterior(expanded, Query((0,), {}))
            np.testing.assert_allclose(posterior.values, [0.3, 0.7], atol=1e-12)

    def test_noisy_or_marginal_under_all_strategies(self):
        net = noisy_or_network()
        for strategy in ALL_STRATEGIES:
            expanded, _ = expand(net, strategy)
            posterior, stats = query_posterior(expanded, Query((2,), {}))
            np.testing.assert_allclose(posterior.values, [0.42, 0.58], atol=1e-12)
            assert stats.multiplications > 0

    def test_posterior_with_evidence_matches_brute_force(self):
        net = noisy_or_network()
        query = Query((0,), {2: 1})
        expected = brute_force_joint(net, query)
        for strategy in ALL_STRATEGIES:
            expanded, _ = expand(net, strategy)
            posterior, _ = query_posterior(expanded, query)
            np.testing.assert_allclose(posterior.values, expected.values, atol=1e-9)

    def test_joint_target_matches_brute_force(self):
        net = noisy_or_network()
        query = Query((0, 1), {2: 1})
        expected = brute_force_joint(net, query)
        expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
        posterior, _ = query_posterior(expanded, query)
        assert posterior.scope == (0, 1)
        np.testing.assert_allclose(posterior.values, expected.values, atol=1e-9)

    def test_ordering_has_no_duplicates(self):
        net = random_network(9)
        expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
        _, stats = query_posterior(expanded, Query((0,), {}))
        assert len(stats.ordering) == len(set(stats.ordering))

    def test_min_fill_and_random_orders_agree(self):
        rng = np.random.default_rng(31)
        net = random_network(5)
        query = Query((0,), {})
        expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
        reference, _ = query_posterior(expanded, query)
        everything = range(len(expanded.variables))
        for _ in range(5):
            order = [v for v in rng.permutation(everything) if v != 0]
            with fixed_order(order):
                posterior, _ = query_posterior(expanded, query)
            np.testing.assert_allclose(posterior.values, reference.values, atol=1e-9)

    def test_barren_chain_is_pruned(self):
        half = np.full((2, 2), 0.5)
        net = Network(
            (
                Variable(0, "A", ("a", "b")),
                Variable(1, "B", ("a", "b")),
                Variable(2, "C", ("a", "b")),
            ),
            (
                TableCpd(Factor((0,), [0.3, 0.7])),
                TableCpd(Factor((0, 1), half)),
                TableCpd(Factor((1, 2), half)),
            ),
        )
        expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
        posterior, stats = query_posterior(expanded, Query((0,), {}))
        np.testing.assert_allclose(posterior.values, [0.3, 0.7], atol=1e-12)
        assert stats.relevant_vars == 1
        assert stats.multiplications == 0

    def test_pruning_keeps_evidence_chains(self):
        half = np.full((2, 2), 0.5)
        biased = np.array([[0.9, 0.1], [0.2, 0.8]])
        net = Network(
            (
                Variable(0, "A", ("a", "b")),
                Variable(1, "B", ("a", "b")),
                Variable(2, "C", ("a", "b")),
            ),
            (
                TableCpd(Factor((0,), [0.3, 0.7])),
                TableCpd(Factor((0, 1), biased)),
                TableCpd(Factor((1, 2), half)),
            ),
        )
        expanded, _ = expand(net, Strategy.TRIVIAL)
        query = Query((0,), {1: 1})
        posterior, stats = query_posterior(expanded, query)
        expected = brute_force_joint(net, query)
        np.testing.assert_allclose(posterior.values, expected.values, atol=1e-12)
        assert stats.relevant_vars == 2

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        strategy=st.sampled_from(ALL_STRATEGIES),
        data=st.data(),
    )
    def test_relevant_set_is_the_barren_fixpoint(self, seed, strategy, data):
        net = random_network(seed)
        n = len(net.variables)
        target = data.draw(st.integers(0, n - 1))
        observed = data.draw(
            st.lists(st.integers(0, n - 1).filter(lambda v: v != target), max_size=3, unique=True)
        )
        evidence = {v: data.draw(st.integers(0, net.variables[v].size - 1)) for v in observed}
        query = Query((target,), evidence)

        # Independent fixpoint: v is kept iff it is a target, is evidence,
        # or has a kept child.
        children = [[c for c in range(n) if v in node_parents(net.nodes[c])] for v in range(n)]
        kept = {target, *evidence}
        while True:
            grown = kept | {v for v in range(n) if any(c in kept for c in children[v])}
            if grown == kept:
                break
            kept = grown

        expanded, _ = expand(net, strategy)
        posterior, stats = query_posterior(expanded, query)
        assert stats.relevant_vars == len(kept)
        expected = brute_force_joint(net, query)
        np.testing.assert_allclose(posterior.values, expected.values, atol=1e-9)

    def test_zero_probability_evidence(self):
        net = Network(
            (Variable(0, "A", ("a", "b")), Variable(1, "B", ("a", "b"))),
            (
                TableCpd(Factor((0,), [1.0, 0.0])),
                TableCpd(Factor((0, 1), np.full((2, 2), 0.5))),
            ),
        )
        query = Query((1,), {0: 1})
        expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
        with pytest.raises(ZeroPosteriorError):
            query_posterior(expanded, query)
        with pytest.raises(ZeroPosteriorError):
            brute_force_joint(net, query)

    def test_evidence_on_auxiliary_rejected(self):
        net = noisy_or_network()
        expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
        aux = expanded.auxiliary_ids[0]
        with pytest.raises(ValueError):
            query_posterior(expanded, Query((0,), {aux: 0}))

    def test_multiplication_guard(self):
        net = random_network(12)
        target = len(net.variables) - 1
        expanded, _ = expand(net, Strategy.TRIVIAL)
        with pytest.raises(GuardExceededError):
            query_posterior(expanded, Query((target,), {}), max_multiplications=1)

    def test_guards_fire_before_allocation(self, monkeypatch):
        # The recorder sees a product only if eliminate calls multiply
        # through the module global, as outside tracers rely on.  It records
        # the joint the guards check, whether formed or summed inside the call.
        joints = []
        real_multiply = infer.multiply

        def recording(*factors, sum_out=()):
            out = real_multiply(*factors, sum_out=sum_out)
            joints.extend(chain_joints(factors))
            return out

        monkeypatch.setattr(infer, "multiply", recording)
        net = random_network(12)
        expanded, _ = expand(net, Strategy.TRIVIAL)
        query = Query((len(net.variables) - 1,), {})
        query_posterior(expanded, query)
        assert joints
        entry_guard = max(joints) - 1
        mult_guard = sum(joints) - 1
        assert (entry_guard, mult_guard) == (7, 19)

        # The whole plan is charged before the first product, so an abort
        # forms none; its partial stats stop at the joint that tripped.
        joints.clear()
        with pytest.raises(GuardExceededError, match="table of 8 entries") as entry_abort:
            query_posterior(expanded, query, max_table_entries=entry_guard)
        assert joints == []
        assert entry_abort.value.stats.counts() == {
            "multiplications": 8, "peak_table_entries": 4, "relevant_vars": 3, "pruned_states": 0
        }
        assert entry_abort.value.stats.ordering == [0, 1]

        with pytest.raises(GuardExceededError, match="^20 multiplications") as mult_abort:
            query_posterior(expanded, query, max_multiplications=mult_guard)
        assert joints == []
        assert mult_abort.value.stats.counts() == {
            "multiplications": 16, "peak_table_entries": 8, "relevant_vars": 3, "pruned_states": 0
        }
        assert mult_abort.value.stats.ordering == [0, 1, 9]


def _all_negative_posterior(net: Network, disease: int) -> np.ndarray:
    """Quickscore's closed form: with every finding at its lowest value, the
    posterior of a disease is its prior times the lowest-value link entry of
    each finding it causes."""
    weights = net.nodes[disease].factor.values
    for node in net.nodes:
        if isinstance(node, NoisyMaxCpd) and disease in node.causes:
            weights = weights * node.links[node.causes.index(disease)][:, 0]
    return weights / weights.sum()


def _pruned_by_fixpoint(restricted: list[Factor], keep, touched) -> tuple[int, dict] | None:
    """Independent count of the states the evidence pass drops, and each
    variable's live states, or None when a variable is left no state.  A
    factor is scanned once evidence or a drop has sliced it; a variable
    outside ``keep`` with more than one live state keeps only the states
    whose slice is nonzero in every scanned factor.  A variable left one
    state counts all of its states."""
    sizes = {u: n for f in restricted for u, n in zip(f.scope, f.values.shape)}
    live = {u: np.arange(n) for u, n in sizes.items()}
    scanned = set(touched)
    while True:
        shrunk = set()
        for i in scanned:
            f = restricted[i]
            values = f.values[np.ix_(*(live[u] for u in f.scope))]
            for axis, u in enumerate(f.scope):
                if u in keep or len(live[u]) == 1:
                    continue
                others = tuple(a for a in range(values.ndim) if a != axis)
                nonzero = (values != 0).any(axis=others)
                if not nonzero.all():
                    live[u] = live[u][nonzero]
                    shrunk.add(u)
                    break
        if not shrunk:
            break
        scanned |= {i for i, f in enumerate(restricted) if shrunk & set(f.scope)}
    if any(len(states) == 0 for states in live.values()):
        return None
    return sum(n if len(live[u]) == 1 else n - len(live[u]) for u, n in sizes.items()), live


class TestEvidencePass:
    """The per-query pass that drops the states evidence rules out."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        strategy=st.sampled_from(ALL_STRATEGIES),
        data=st.data(),
    )
    def test_eliminate_with_evidence_matches_restricting_by_hand(self, seed, strategy, data):
        expanded, _ = expand(random_network(seed), strategy)
        factors = [f for r in expanded.nodes for f in r.factors]
        everything = range(len(expanded.variables))
        keep = tuple(data.draw(st.lists(st.sampled_from(everything), min_size=1, max_size=2,
                                        unique=True)))
        observed = data.draw(st.lists(st.sampled_from([v for v in everything if v not in keep]),
                                      max_size=4, unique=True))
        evidence = {v: data.draw(st.integers(0, expanded.variables[v].size - 1)) for v in observed}
        restricted, touched = [], set()
        for i, f in enumerate(factors):
            for v, state in evidence.items():
                if v in f.scope:
                    f = restrict(f, v, state)
                    touched.add(i)
            restricted.append(f)
        fixpoint = _pruned_by_fixpoint(restricted, keep, touched)
        if fixpoint is None:
            with pytest.raises(ZeroPosteriorError):
                eliminate(factors, keep, evidence=evidence)
            return
        pruned, live = fixpoint
        # The planner reads each restricted factor without the variables
        # left one state, and each variable at its live states' count.
        scopes = [tuple(u for u in f.scope if u in keep or len(live[u]) > 1) for f in restricted]
        size = {u: len(live[u]) for scope in scopes for u in scope}

        order = data.draw(st.permutations(everything))
        for ordering in (contextlib.nullcontext(), fixed_order(order)):
            stats = EliminationStats()
            planned = []
            with ordering:
                plan_order = infer._min_fill_order

                def recorded(seen_scopes, seen_size, *args, **kwargs):
                    planned.append((list(seen_scopes), dict(seen_size)))
                    return plan_order(seen_scopes, seen_size, *args, **kwargs)

                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(infer, "_min_fill_order", recorded)
                    result = eliminate(factors, keep, evidence=evidence, stats=stats)
                expected = eliminate(restricted, keep)
            assert result.scope == expected.scope == keep
            np.testing.assert_allclose(result.values, expected.values, rtol=1e-9, atol=1e-12)
            # Evidence variables are fixed, not pruned: never counted.
            assert stats.pruned_states == pruned
            assert not set(evidence) & set(stats.ordering)
            assert planned and all(seen == (scopes, size) for seen in planned)

    def test_large_sliced_table_is_read_without_coordinates(self):
        # Evidence on 0 slices a table over 20 binary variables to 2**19
        # entries, 4 MB of float64, in which state 0 of variable 5 is dead.
        # Its nonzero entries' coordinates would take 2**18 * 19 * 8 bytes,
        # about 40 MB; the read above the size bound holds one byte an entry.
        values = np.random.default_rng(3).uniform(0.1, 1.0, (2,) * 20)
        values[1, :, :, :, :, 0] = 0.0
        table = Factor(tuple(range(20)), values)
        stats = EliminationStats()
        tracemalloc.start()
        try:
            got = eliminate([table], (1,), evidence={0: 1}, stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.pruned_states == 2  # 5 is fixed to its one live state
        assert 5 not in stats.ordering
        assert peak < 2 * 2**19 * 8
        expected = values[1, :, :, :, :, 1].sum(axis=tuple(range(1, 18)))
        np.testing.assert_allclose(got.values, expected, rtol=1e-12)

    def test_eliminate_rejects_bad_evidence(self):
        expanded, _ = expand(noisy_or_network(), Strategy.TRIVIAL)
        factors = [f for r in expanded.nodes for f in r.factors]
        with pytest.raises(ValueError, match="also kept"):
            eliminate(factors, (2,), evidence={2: 1})
        with pytest.raises(ValueError, match="no factor holds"):
            eliminate(factors[:1], (0,), evidence={2: 1})

    @pytest.mark.parametrize(
        "tables, evidence, max_entries",
        [
            # Evidence drops a state of 1 in the table that gives it 3.
            ([((0, 1), [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]), ((1, 2), np.ones((2, 2)))], {0: 0}, None),
            ([((0, 1), np.ones((2, 3))), ((1, 2), np.ones((2, 2)))], {}, None),
            # Read from the last table, 2 would make a joint of 10,000 entries.
            ([((0, 1), np.ones((2, 2))), ((1, 2), np.ones((2, 3))), ((2,), np.ones(5000))], {}, 1000),
        ],
    )
    def test_eliminate_checks_sizes_before_anything_is_counted(self, tables, evidence, max_entries):
        stats = EliminationStats()
        factors = [Factor(scope, values) for scope, values in tables]
        with pytest.raises(ValueError, match="domain size mismatch for shared variable"):
            eliminate(factors, (2,), evidence=evidence, stats=stats, max_table_entries=max_entries)
        assert set(stats.counts().values()) == {0}
        assert stats.ordering == []

    @pytest.mark.parametrize("keep", [(), (0,)])
    def test_eliminate_rejects_no_factors(self, keep):
        with pytest.raises(ValueError, match="at least one factor"):
            eliminate([], keep)

    def test_eliminate_rejects_a_kept_variable_in_no_factor(self, monkeypatch):
        products = []
        monkeypatch.setattr(infer, "multiply", lambda *args: products.append(args))
        factors = [Factor((0, 1), np.ones((2, 2))), Factor((1,), np.ones(2))]
        with pytest.raises(ValueError, match="no factor holds kept variable 5"):
            eliminate(factors, keep=(5,))
        assert products == []  # raised before the first product

    def test_eliminate_rejects_a_repeated_kept_variable(self, monkeypatch):
        products = []
        monkeypatch.setattr(infer, "multiply", lambda *args: products.append(args))
        factors = [Factor((0, 1), np.ones((2, 2))), Factor((1, 2), np.ones((2, 2)))]
        with pytest.raises(ValueError, match="kept variable 0 is repeated"):
            eliminate(factors, keep=(0, 0))
        assert products == []

    def test_eliminate_rejects_a_bool_evidence_state(self):
        factors = [Factor((0, 1), np.ones((2, 2))), Factor((1, 2), np.ones((2, 2)))]
        with pytest.raises(ValueError, match="state True out of range for variable 2"):
            eliminate(factors, (0,), evidence={2: True})

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        strategy=st.sampled_from(ALL_STRATEGIES),
        data=st.data(),
    )
    def test_exact_under_any_evidence(self, seed, strategy, data):
        net = random_network(seed)
        n = len(net.variables)
        effects = [v for v, node in enumerate(net.nodes) if isinstance(node, NoisyMaxCpd)]
        target = data.draw(st.integers(0, n - 1))
        observed = data.draw(
            st.lists(
                st.one_of(st.sampled_from(effects), st.integers(0, n - 1)).filter(
                    lambda v: v != target
                ),
                min_size=1, max_size=4, unique=True,
            )
        )
        evidence = {}
        for v in observed:
            top = net.variables[v].size - 1
            evidence[v] = data.draw(st.one_of(st.sampled_from([0, top]), st.integers(0, top)))
        query = Query((target,), evidence)
        expected = brute_force_joint(net, query)
        expanded, _ = expand(net, strategy)
        order = [v for v in data.draw(st.permutations(range(len(expanded.variables)))) if v != target]
        for ordering in (contextlib.nullcontext(), fixed_order(order)):
            with ordering:
                posterior, _ = query_posterior(expanded, query)
            np.testing.assert_allclose(posterior.values, expected.values, atol=1e-9)

    def test_lowest_finding_prunes_the_max_inputs(self):
        net = noisy_or_network()
        pruned = {
            Strategy.TRIVIAL: 4,
            Strategy.PARENT_DIVORCING: 4,
            Strategy.TEMPORAL: 4,
            Strategy.MULTIPLICATIVE: 2,
        }
        for strategy in ALL_STRATEGIES:
            expanded, _ = expand(net, strategy)
            for state, expected_pruned in ((0, pruned[strategy]), (1, 0)):
                query = Query((0,), {2: state})
                posterior, stats = query_posterior(expanded, query)
                assert stats.pruned_states == expected_pruned, (strategy, state)
                expected = brute_force_joint(net, query)
                np.testing.assert_allclose(posterior.values, expected.values, atol=1e-12)

    def test_shared_network_is_never_written(self):
        net = random_network(8)
        findings = [v for v, node in enumerate(net.nodes) if isinstance(node, NoisyMaxCpd)]
        for strategy in ALL_STRATEGIES:
            expanded, _ = expand(net, strategy)
            before = [f.values.tobytes() for r in expanded.nodes for f in r.factors]
            for finding in findings:
                for state in range(net.variables[finding].size):
                    query_posterior(expanded, Query((0,), {finding: state}))
                query_posterior(expanded, Query((0,), {f: 0 for f in findings}))
            assert [f.values.tobytes() for r in expanded.nodes for f in r.factors] == before

    def test_impossible_evidence_raises(self):
        always_a = np.array([[1.0, 0.0], [1.0, 0.0]])
        net = Network(
            tuple(Variable(i, name, ("a", "b")) for i, name in enumerate("ABC")),
            (
                TableCpd(Factor((0,), [0.5, 0.5])),
                TableCpd(Factor((0, 1), always_a)),
                TableCpd(Factor((0, 2), np.full((2, 2), 0.5))),
            ),
        )
        # B = b leaves A no state of nonzero mass.
        query = Query((2,), {1: 1})
        expanded, _ = expand(net, Strategy.TRIVIAL)
        with pytest.raises(ZeroPosteriorError, match="no state"):
            query_posterior(expanded, query)
        with pytest.raises(ZeroPosteriorError), fixed_order([0, 1]):
            query_posterior(expanded, query)
        with pytest.raises(ZeroPosteriorError):
            brute_force_joint(net, query)

    def test_negative_findings_factorize_away(self):
        for findings in (4, 8, 16, 32):
            spec = GeneratorSpec("bn2o", 5, diseases=6, findings=findings, max_parents=3,
                                 effect_domain_size=3)
            net = generate(spec)
            links = sum(len(node.causes) for node in net.nodes if isinstance(node, NoisyMaxCpd))
            evidence = {f: 0 for f in range(6, 6 + findings)}
            for strategy in ALL_STRATEGIES:
                expanded, _ = expand(net, strategy)
                for disease in range(6):
                    posterior, stats = query_posterior(expanded, Query((disease,), evidence))
                    np.testing.assert_allclose(
                        posterior.values, _all_negative_posterior(net, disease), atol=1e-12
                    )
                    # Each finding leaves at most m - 1 two-entry factors per
                    # cause, so the cost is linear in the links.
                    assert stats.multiplications <= 2 * 3 * (links + 6), (findings, strategy)


class TestBruteForce:
    def test_single_node(self):
        net = Network(
            (Variable(0, "A", ("a", "b")),),
            (TableCpd(Factor((0,), [0.25, 0.75])),),
        )
        out = brute_force_joint(net, Query((0,), {}))
        np.testing.assert_allclose(out.values, [0.25, 0.75], atol=1e-15)

    def test_state_space_guard(self):
        variables = tuple(Variable(i, f"v{i}", ("a", "b")) for i in range(23))
        nodes = tuple(TableCpd(Factor((i,), [0.5, 0.5])) for i in range(23))
        net = Network(variables, nodes)
        with pytest.raises(GuardExceededError):
            brute_force_joint(net, Query((0,), {}))

    def test_agreement_on_random_networks(self):
        for seed in range(10):
            net = random_network(seed)
            query = Query((0,), {})
            expected = brute_force_joint(net, query)
            for strategy in ALL_STRATEGIES:
                expanded, _ = expand(net, strategy)
                posterior, _ = query_posterior(expanded, query)
                np.testing.assert_allclose(
                    posterior.values,
                    expected.values,
                    atol=1e-9,
                    err_msg=f"seed={seed} {strategy}",
                )


def _cancellation_cases():
    lossy = pytest.mark.xfail(
        strict=True, reason="multiplicative loses digits to cancellation (ROADMAP 6(b))"
    )
    for eps in (1e-6, 1e-9, 1e-12, 1e-15):
        for strategy in ALL_STRATEGIES:
            marks = lossy if strategy is Strategy.MULTIPLICATIVE and eps < 1e-6 else ()
            yield pytest.param(strategy, eps, marks=marks, id=f"{strategy.value}-{eps:g}")


class TestSignedCancellation:
    @pytest.mark.parametrize("strategy, eps", _cancellation_cases())
    def test_weak_noisy_or_posterior_matches_exact_enumeration(self, strategy, eps):
        # Six causes with priors 1/2, each present one firing E with
        # probability eps: P(E = T) is 1 - prod(1 - eps), the difference the
        # multiplicative form's signed factors compute.
        causes = 6
        variables = tuple(Variable(i, f"C{i}", ("F", "T")) for i in range(causes))
        net = Network(
            variables + (Variable(causes, "E", ("F", "T")),),
            tuple(TableCpd(Factor((i,), [0.5, 0.5])) for i in range(causes))
            + (NoisyMaxCpd(causes, tuple(range(causes)), ([[1, 0], [1 - eps, eps]],) * causes),),
        )
        stay_off = Fraction(1 - eps)
        fired = [Fraction(0), Fraction(0)]  # by the state of C0
        for present in itertools.product((0, 1), repeat=causes):
            fired[present[0]] += 1 - stay_off ** sum(present)
        exact = fired[1] / (fired[0] + fired[1])
        tolerance = 1e-9 if strategy is Strategy.MULTIPLICATIVE else 1e-15
        expanded, _ = expand(net, strategy)
        posterior, _ = query_posterior(expanded, Query((0,), {causes: 1}))
        assert abs(posterior.values[1] - float(exact)) <= tolerance


class TestQueryValidation:
    @pytest.mark.parametrize(
        "targets, evidence",
        [((3,), {}), ((0,), {3: 0}), ((0,), {2: 2}),
         ((True,), {}), ((0.0,), {}), ((0,), {True: 0}), ((0,), {2.0: 1}),
         ((0,), {2: True}), ((0,), {2: 1.0}), ((0,), {2: np.bool_(True)})],
        ids=["target", "evidence-variable", "evidence-state",
             "bool-target", "float-target", "bool-evidence-variable",
             "float-evidence-variable", "bool-state", "float-state", "numpy-bool-state"],
    )
    def test_engine_and_oracle_reject_alike(self, targets, evidence):
        net = noisy_or_network()  # three binary variables
        query = Query(targets, evidence)
        expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
        with pytest.raises(ValueError) as engine:
            query_posterior(expanded, query)
        with pytest.raises(ValueError) as oracle:
            brute_force_joint(net, query)
        assert str(oracle.value) == str(engine.value)

    def test_numpy_integers_are_accepted(self):
        net = noisy_or_network()
        expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
        query = Query((np.int64(0),), {np.int32(2): np.int64(1)})
        posterior, _ = query_posterior(expanded, query)
        expected, _ = query_posterior(expanded, Query((0,), {2: 1}))
        np.testing.assert_array_equal(posterior.values, expected.values)
        np.testing.assert_allclose(brute_force_joint(net, query).values, expected.values)


class TestConcurrentQueries:
    @staticmethod
    def check_shared_expanded_network(split: bool):
        # Four query threads against sequential, unsplit answers: every
        # marginal of one network, and every posterior of a second with all
        # of its findings observed, whose products have batch variables.
        # With ``split`` those products split in two, so the query threads
        # start slice threads of their own.
        asked = []
        for seed, observed in ((21, False), (7, True)):
            net = random_network(seed)
            expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
            findings = [v for v in net.variables if observed and v.name.startswith("f")]
            evidence = {v.id: v.size - 1 for v in findings}
            targets = [v for v in range(len(net.variables)) if v not in evidence]
            asked += [(expanded, Query((v,), evidence)) for v in targets]
        askers, callers, matmul = set(), set(), np.matmul

        def ask(item):
            askers.add(threading.get_ident())
            return query_posterior(*item)

        def recording(*args, **kwargs):
            callers.add(threading.get_ident())
            return matmul(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infer, "CPUS", 1)
            sequential = [query_posterior(*item) for item in asked]
            if split:
                patch.setattr(infer, "CPUS", 2)
                patch.setattr(infer, "SPLIT_FROM", 0)
                patch.setattr(infer, "EINSUM_TO", 0)
            patch.setattr(np, "matmul", recording)
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(pool.map(ask, asked))
        # Slice threads are the only callers that are not query threads.
        assert bool(callers - askers) == split
        for (got, got_stats), (want, want_stats) in zip(parallel, sequential):
            assert got.scope == want.scope
            np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-15 if split else 0)
            assert got_stats.counts() == want_stats.counts()

    def test_shared_expanded_network(self):
        self.check_shared_expanded_network(split=False)

    def test_shared_expanded_network_under_a_forced_split(self):
        self.check_shared_expanded_network(split=True)


class TestCostScaling:
    def test_multiplicative_beats_trivial_table_for_wide_fanin(self):
        rng = np.random.default_rng(77)
        for n in (12, 14):
            cpd, variables = random_noisymax(rng, n, 2, max_cause_size=2)
            net_vars = tuple(variables[i] for i in sorted(variables))
            priors = tuple(
                TableCpd(Factor((i,), [0.9, 0.1])) for i in range(n)
            )
            net = Network(net_vars, priors + (cpd,))
            expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
            _, stats = query_posterior(expanded, Query((n,), {}))
            assert stats.multiplications < 2 ** (n + 1)


COST_SPECS = {
    "bn2o": GeneratorSpec(
        kind="bn2o", seed=3, diseases=10, findings=9, max_parents=5, effect_domain_size=3
    ),
    "bn2o-binary": GeneratorSpec(kind="bn2o", seed=8, diseases=8, findings=7, max_parents=5),
    "multilevel": GeneratorSpec(
        kind="multilevel", seed=4, diseases=6, findings=8, max_parents=4, effect_domain_size=3
    ),
}

# (network, findings, strategy): (multiplications, peak_table_entries,
# ordering), as exact literals.  Any change to the cost model, the ordering
# rule or the evidence pass shows here as a mismatch, not just a bound
# crossed; only a deliberate change to one of them may update these.
COST_PINS = {
    ("bn2o", "top", "trivial"): (2679, 243, (
        1, 2, 35, 42, 26, 27, 40, 41, 23, 24, 25, 28, 29, 30, 3, 38, 36, 37, 39, 5, 43, 45, 44,
        6, 46, 19, 20, 21, 22, 4, 7, 8, 9, 31, 32, 33, 34,
    )),
    ("bn2o", "lowest", "trivial"): (90, 2, (2, 3, 4, 5, 6, 7, 8, 9)),
    ("bn2o", "mixed", "trivial"): (1359, 243, (
        1, 6, 5, 41, 40, 3, 26, 27, 4, 7, 8, 9, 19, 20, 21, 22, 31, 32, 33, 34,
    )),
    ("bn2o", "top", "parent-divorcing"): (1773, 54, (
        1, 2, 41, 51, 27, 29, 30, 33, 42, 49, 50, 52, 19, 20, 23, 21, 22, 25, 26, 28, 31, 32,
        34, 24, 35, 36, 39, 37, 38, 40, 8, 43, 47, 7, 46, 44, 45, 48, 3, 53, 57, 56, 4, 5, 6, 9,
        54, 55, 58,
    )),
    ("bn2o", "lowest", "parent-divorcing"): (114, 2, (2, 3, 4, 5, 6, 7, 8, 9)),
    ("bn2o", "mixed", "parent-divorcing"): (905, 81, (
        1, 6, 5, 50, 49, 3, 29, 30, 4, 7, 8, 9, 19, 20, 35, 36, 23, 39, 21, 22, 24, 37, 38, 40,
    )),
    ("bn2o", "top", "temporal"): (1701, 54, (
        1, 2, 41, 51, 22, 27, 29, 30, 33, 38, 42, 45, 49, 50, 52, 55, 19, 20, 21, 23, 25, 26,
        28, 31, 32, 34, 24, 35, 36, 37, 39, 40, 8, 43, 48, 7, 44, 46, 47, 3, 53, 58, 4, 5, 6, 9,
        54, 56, 57,
    )),
    ("bn2o", "lowest", "temporal"): (114, 2, (2, 3, 4, 5, 6, 7, 8, 9)),
    ("bn2o", "mixed", "temporal"): (905, 81, (
        1, 6, 5, 50, 49, 3, 29, 30, 4, 7, 8, 9, 22, 38, 19, 20, 35, 36, 21, 23, 24, 37, 39, 40,
    )),
    ("bn2o", "top", "multiplicative"): (660, 32, (
        1, 2, 24, 32, 3, 5, 6, 30, 26, 20, 28, 8, 4, 7, 9, 22, 34,
    )),
    ("bn2o", "lowest", "multiplicative"): (146, 2, (2, 3, 4, 5, 6, 7, 8, 9)),
    ("bn2o", "mixed", "multiplicative"): (304, 8, (1, 6, 5, 32, 3, 24, 4, 7, 8, 9, 20, 28)),
    ("bn2o-binary", "top", "trivial"): (372, 32, (
        1, 2, 15, 23, 4, 6, 20, 21, 27, 28, 29, 30, 3, 19, 16, 7, 18, 24, 25, 26, 17, 22,
    )),
    ("bn2o-binary", "lowest", "trivial"): (58, 2, (0, 2, 3, 4, 6, 7)),
    ("bn2o-binary", "mixed", "trivial"): (382, 64, (
        1, 23, 3, 4, 6, 7, 29, 30, 22, 24, 25, 26, 16, 17, 18, 19, 15,
    )),
    ("bn2o-binary", "top", "parent-divorcing"): (330, 16, (
        1, 2, 15, 26, 4, 6, 16, 23, 24, 25, 33, 34, 35, 36, 17, 18, 19, 29, 28, 7, 20, 21, 22,
        3, 30, 27, 31, 32,
    )),
    ("bn2o-binary", "lowest", "parent-divorcing"): (70, 2, (0, 2, 3, 4, 6, 7)),
    ("bn2o-binary", "mixed", "parent-divorcing"): (310, 16, (
        1, 26, 3, 4, 6, 7, 25, 35, 36, 15, 16, 17, 18, 19, 28, 29, 22, 32, 20, 31, 30, 21, 27,
    )),
    ("bn2o-binary", "top", "temporal"): (310, 16, (
        1, 2, 15, 26, 4, 6, 16, 19, 23, 24, 25, 29, 33, 34, 35, 36, 17, 18, 20, 30, 28, 7, 22,
        21, 3, 27, 31, 32,
    )),
    ("bn2o-binary", "lowest", "temporal"): (70, 2, (0, 2, 3, 4, 6, 7)),
    ("bn2o-binary", "mixed", "temporal"): (310, 16, (
        1, 26, 3, 4, 6, 7, 19, 25, 29, 35, 36, 15, 16, 17, 18, 20, 28, 30, 21, 32, 31, 22, 27,
    )),
    ("bn2o-binary", "top", "multiplicative"): (186, 16, (1, 2, 4, 6, 16, 18, 3, 7, 15, 17, 19)),
    ("bn2o-binary", "lowest", "multiplicative"): (58, 2, (0, 2, 3, 4, 6, 7)),
    ("bn2o-binary", "mixed", "multiplicative"): (166, 8, (1, 3, 6, 7, 4, 17, 19, 15)),
    ("multilevel", "top", "trivial"): (516, 81, (
        1, 26, 27, 29, 28, 4, 19, 22, 23, 25, 24, 30, 31, 32, 33, 2, 3, 18, 17, 21, 20, 5, 14,
        15, 16,
    )),
    ("multilevel", "lowest", "trivial"): (64, 2, (2, 3, 4, 5)),
    ("multilevel", "mixed", "trivial"): (269, 81, (
        1, 3, 4, 5, 26, 27, 17, 18, 19, 30, 31, 32, 33,
    )),
    ("multilevel", "top", "parent-divorcing"): (521, 54, (
        1, 20, 24, 28, 30, 31, 33, 32, 4, 21, 25, 26, 29, 27, 34, 35, 38, 36, 37, 39, 2, 3, 16,
        19, 18, 23, 22, 5, 14, 15, 17,
    )),
    ("multilevel", "lowest", "parent-divorcing"): (76, 2, (2, 3, 4, 5)),
    ("multilevel", "mixed", "parent-divorcing"): (254, 27, (
        1, 3, 4, 5, 20, 30, 31, 18, 19, 21, 34, 35, 38, 36, 37, 39,
    )),
    ("multilevel", "top", "temporal"): (521, 54, (
        1, 20, 24, 28, 30, 31, 33, 32, 4, 37, 21, 25, 26, 29, 27, 34, 35, 36, 38, 39, 2, 3, 16,
        19, 18, 23, 22, 5, 14, 15, 17,
    )),
    ("multilevel", "lowest", "temporal"): (76, 2, (2, 3, 4, 5)),
    ("multilevel", "mixed", "temporal"): (254, 27, (
        1, 3, 4, 5, 20, 30, 31, 37, 18, 19, 21, 34, 35, 36, 38, 39,
    )),
    ("multilevel", "top", "multiplicative"): (196, 8, (23, 1, 21, 25, 4, 27, 2, 19, 3, 5, 15, 17)),
    ("multilevel", "lowest", "multiplicative"): (104, 2, (2, 3, 4, 5)),
    ("multilevel", "mixed", "multiplicative"): (172, 4, (1, 23, 3, 4, 27, 5, 17)),
}


class TestCostModel:
    @pytest.mark.parametrize("name", sorted(COST_SPECS))
    def test_counts_and_orderings_are_pinned(self, name):
        self.check_pins(name)

    @pytest.mark.parametrize("name", ["bn2o"])
    def test_pins_hold_under_a_forced_split(self, name, monkeypatch):
        monkeypatch.setattr(infer, "CPUS", 2)
        monkeypatch.setattr(infer, "SPLIT_FROM", 0)
        self.check_pins(name)

    @staticmethod
    def check_pins(name):
        net = generate(COST_SPECS[name])
        findings = [v for v in net.variables if v.name.startswith("f")]
        queries = {
            "top": Query((0,), {v.id: v.size - 1 for v in findings}),
            "lowest": Query((1,), {v.id: 0 for v in findings}),
            "mixed": Query((0, 2), {v.id: (v.size - 1) * (k % 2) for k, v in enumerate(findings)}),
        }
        for strategy in ALL_STRATEGIES:
            expanded, _ = expand(net, strategy)
            for findings_at, query in queries.items():
                _, stats = query_posterior(expanded, query)
                got = (stats.multiplications, stats.peak_table_entries, tuple(stats.ordering))
                assert got == COST_PINS[name, findings_at, strategy.value], (
                    findings_at,
                    strategy,
                )
