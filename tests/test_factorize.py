"""Expansion strategies: oracle, size accounting, and recovered CPDs."""

import tracemalloc

import numpy as np
import pytest

from noisymax import (
    Factor,
    GeneratorSpec,
    GuardExceededError,
    NoisyMaxCpd,
    Strategy,
    TableCpd,
    Variable,
    encoding_entries,
    expand,
    expand_cpd,
    generate,
    oracle_cpd,
)
from noisymax.factorize import _max_table
from helpers import noisy_or_network, random_noisymax, recover_cpd, three_value_cpd

ALL_STRATEGIES = list(Strategy)


def binary_causes(n, rows_list, m=2, leak=None):
    variables = {i: Variable(i, f"c{i}", ("F", "T")) for i in range(n)}
    variables[n] = Variable(n, "e", tuple(f"a{k}" for k in range(m)))
    links = tuple(rows_list)
    return NoisyMaxCpd(n, tuple(range(n)), links, leak), variables


class TestOracle:
    def test_single_cause_returns_link_table(self):
        rows = [[1, 0, 0], [0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]
        variables = {
            0: Variable(0, "c", ("a", "b", "c")),
            1: Variable(1, "e", ("L", "M", "H")),
        }
        cpd = NoisyMaxCpd(1, (0,), (rows,))
        table = oracle_cpd(cpd, variables)
        assert table.scope == (0, 1)
        assert np.array_equal(table.values, rows)

    def test_noisy_or_values(self):
        # By hand: P(T|T,T) = 1 - 0.2*0.4; P(T|T,F) = 1 - 0.2*1.
        net = noisy_or_network()
        table = oracle_cpd(net.nodes[2], net.variables)
        assert table.values[1, 1, 1] == pytest.approx(0.92, abs=1e-12)
        assert table.values[1, 0, 1] == pytest.approx(0.8, abs=1e-12)

    def test_three_value_example(self):
        # By hand over the 9 contribution pairs: P(L)=.5*.4, and the
        # cumulative differences .8*.8-.2 and 1-.64.
        cpd, variables = three_value_cpd()
        table = oracle_cpd(cpd, variables)
        np.testing.assert_allclose(table.values[1, 1], [0.20, 0.44, 0.36], atol=1e-12)

    def test_child_slices_normalize(self):
        rng = np.random.default_rng(7)
        cpd, variables = random_noisymax(rng, 4, 3, with_leak=True)
        table = oracle_cpd(cpd, variables)
        np.testing.assert_allclose(table.values.sum(axis=-1), 1.0, atol=1e-12)

    def test_enumeration_guard(self):
        rng = np.random.default_rng(8)
        cpd, variables = random_noisymax(rng, 12, 5, max_cause_size=2)
        with pytest.raises(GuardExceededError):
            oracle_cpd(cpd, variables)


class TestTrivial:
    def test_max_table_size_two_causes(self):
        net = noisy_or_network()
        result = expand_cpd(net.nodes[2], net.variables, Strategy.TRIVIAL)
        assert result.factors[-1].size == 8
        assert result.encoding_entry_count == 8

    def test_encoding_count_four_causes_three_values(self):
        cpd, variables = three_value_cpd()
        rows = [[1, 0, 0], [0.5, 0.3, 0.2]]
        cpd4, variables4 = binary_causes(4, [rows] * 4, m=3)
        result = expand_cpd(cpd4, variables4, Strategy.TRIVIAL)
        assert result.encoding_entry_count == 243

    def test_single_cause_degenerates_to_link(self):
        rows = [[1, 0], [0.3, 0.7]]
        cpd, variables = binary_causes(1, [rows])
        result = expand_cpd(cpd, variables, Strategy.TRIVIAL)
        assert len(result.factors) == 1
        assert result.auxiliary_variables == ()
        assert np.array_equal(result.factors[0].values, rows)

    def test_memory_guard(self):
        rows = [[1, 0, 0, 0, 0], [0.2] * 5]
        cpd, variables = binary_causes(11, [rows] * 11, m=5)
        with pytest.raises(GuardExceededError):
            expand_cpd(cpd, variables, Strategy.TRIVIAL)


def reference_max_table(m, arity):
    """The max over an index grid, one-hot on a new last axis."""
    mx = np.indices((m,) * arity).max(axis=0)
    return (mx[..., None] == np.arange(m)).astype(float)


def traced_peak(build):
    """Peak bytes traced while ``build`` runs, and its result."""
    tracemalloc.start()
    try:
        result = build()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestMaxTable:
    @pytest.mark.parametrize(
        "m, arity",
        [(m, a) for m in range(2, 6) for a in range(1, 17) if m ** (a + 1) <= 2**16],
    )
    def test_equals_the_index_grid_reference(self, m, arity):
        table = _max_table(m, arity)
        assert table.dtype == np.float64
        assert table.flags.c_contiguous
        assert table.shape == (m,) * (arity + 1)
        assert np.array_equal(table, reference_max_table(m, arity))

    def test_states_beyond_one_byte(self):
        # 300 states need a 16-bit grid; a byte-wide one wraps at 256.
        assert np.array_equal(_max_table(300, 1), np.eye(300))

    def test_build_peak_stays_near_the_table(self):
        peak, table = traced_peak(lambda: _max_table(2, 16))
        assert peak <= 1.25 * table.nbytes

    def test_refused_table_allocates_nothing(self):
        def build():
            with pytest.raises(GuardExceededError):
                _max_table(5, 11)

        peak, _ = traced_peak(build)
        assert peak < 2**20  # the table would take 8 * 5**12 bytes, about 2 GB


class TestParentDivorcing:
    def test_encoding_count(self):
        rows = [[1, 0, 0], [0.5, 0.3, 0.2]]
        cpd, variables = binary_causes(4, [rows] * 4, m=3)
        result = expand_cpd(cpd, variables, Strategy.PARENT_DIVORCING)
        assert result.encoding_entry_count == 81

    def test_two_causes_single_combine(self):
        net = noisy_or_network()
        result = expand_cpd(net.nodes[2], net.variables, Strategy.PARENT_DIVORCING)
        combines = [f for f in result.factors if len(f.scope) == 3]
        assert len(combines) == 1
        assert combines[0].size == 8

    def test_binary_max_table_entries(self):
        # max(L, M) = M, never H.
        rows = [[1, 0, 0], [0.5, 0.3, 0.2]]
        cpd, variables = binary_causes(2, [rows] * 2, m=3)
        result = expand_cpd(cpd, variables, Strategy.PARENT_DIVORCING)
        combine = result.factors[-1]
        L, M, H = 0, 1, 2
        assert combine.values[L, M, M] == 1.0
        assert combine.values[L, M, H] == 0.0

    def test_tree_is_balanced_left_heavy(self):
        rows = [[1, 0], [0.3, 0.7]]
        cpd, variables = binary_causes(5, [rows] * 5)
        result = expand_cpd(cpd, variables, Strategy.PARENT_DIVORCING)
        combines = [f for f in result.factors if len(f.scope) == 3]
        assert len(combines) == 4
        root = combines[-1]
        assert root.scope[2] == cpd.effect
        # Left-heavy split of 5 leaves: the left subtree combines 3 of them
        # through two internal nodes, the right subtree one.
        internal = {v.id for v in result.auxiliary_variables[5:]}
        left_root, right_root = root.scope[0], root.scope[1]
        assert left_root in internal and right_root in internal
        left_deps = [f for f in combines[:-1] if f.scope[2] == left_root]
        assert len(left_deps) == 1


class TestTemporal:
    def test_encoding_matches_parent_divorcing(self):
        rows = [[1, 0, 0], [0.5, 0.3, 0.2]]
        cpd, variables = binary_causes(4, [rows] * 4, m=3)
        pd = expand_cpd(cpd, variables, Strategy.PARENT_DIVORCING)
        tt = expand_cpd(cpd, variables, Strategy.TEMPORAL)
        assert tt.encoding_entry_count == pd.encoding_entry_count == 81

    def test_two_causes_identical_to_parent_divorcing(self):
        net = noisy_or_network()
        pd = expand_cpd(net.nodes[2], net.variables, Strategy.PARENT_DIVORCING)
        tt = expand_cpd(net.nodes[2], net.variables, Strategy.TEMPORAL)
        assert list(pd.factors) == list(tt.factors)
        assert pd.auxiliary_variables == tt.auxiliary_variables

    def test_chain_recovers_oracle(self):
        net = noisy_or_network()
        cpd = net.nodes[2]
        result = expand_cpd(cpd, net.variables, Strategy.TEMPORAL)
        recovered = recover_cpd(result, cpd)
        expected = oracle_cpd(cpd, net.variables)
        np.testing.assert_allclose(recovered.values, expected.values, atol=1e-12)

    def test_chain_shape(self):
        rows = [[1, 0], [0.3, 0.7]]
        cpd, variables = binary_causes(4, [rows] * 4)
        result = expand_cpd(cpd, variables, Strategy.TEMPORAL)
        combines = [f for f in result.factors if len(f.scope) == 3]
        assert len(combines) == 3
        # Left-deep: each combine feeds the next one's first slot.
        assert combines[1].scope[0] == combines[0].scope[2]
        assert combines[2].scope[0] == combines[1].scope[2]

    def test_chain_deeper_than_the_recursion_limit(self):
        rows = [[1, 0], [0.3, 0.7]]
        cpd, variables = binary_causes(1500, [rows] * 1500)
        result = expand_cpd(cpd, variables, Strategy.TEMPORAL)
        combines = result.factors[1500:]
        assert len(combines) == 1499
        assert combines[-1].scope[2] == cpd.effect
        for lower, upper in zip(combines, combines[1:]):
            assert upper.scope[0] == lower.scope[2]


class TestCumulativeDensity:
    """Entries of the multiplicative expansion's pairwise tables: 1 in state
    ``I``; in state ``V``, the link mass a cause state places on the first i
    effect values, for prefix i."""

    LINK = [[1, 0], [0.2, 0.8]]
    LINK3 = [[1, 0, 0], [0.5, 0.3, 0.2]]

    def expand_two_causes(self, rows):
        """The expansion of two causes sharing ``rows``, and the first
        cause's pairwise table for each prefix, shortest first."""
        cpd, variables = binary_causes(2, [rows] * 2, m=len(rows[0]))
        result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
        return result, result.factors[:-1:2]

    def test_identity_state_is_one(self):
        for rows in (self.LINK, self.LINK3):
            _, tables = self.expand_two_causes(rows)
            for table in tables:
                np.testing.assert_array_equal(table.values[1], 1.0)

    def test_noisy_or_prefix(self):
        _, tables = self.expand_two_causes(self.LINK)
        assert tables[0].values[0, 1] == pytest.approx(0.2, abs=1e-15)

    def test_three_value_prefix(self):
        _, tables = self.expand_two_causes(self.LINK3)
        assert tables[1].values[0, 1] == pytest.approx(0.8, abs=1e-15)

    def test_prefix_out_of_range(self):
        # Prefix lengths 0 and m would give constant tables; none is emitted.
        for rows in (self.LINK, self.LINK3):
            result, tables = self.expand_two_causes(rows)
            m = len(rows[0])
            names = [v.name for v in result.auxiliary_variables]
            assert names == [f"e__cum{i}" for i in range(1, m)]
            assert len(tables) == m - 1

    def test_unknown_state(self):
        # Prefix variables have exactly the two states V and I.
        result, _ = self.expand_two_causes(self.LINK3)
        for var in result.auxiliary_variables:
            assert var.domain == ("V", "I")


class TestMultiplicative:
    def test_noisy_or_selector(self):
        net = noisy_or_network()
        result = expand_cpd(net.nodes[2], net.variables, Strategy.MULTIPLICATIVE)
        selector = result.factors[-1]
        assert selector.size == 4
        # Axis order: prefix variable (V, I), then effect (F, T).
        np.testing.assert_array_equal(selector.values, [[1.0, -1.0], [0.0, 1.0]])

    def test_three_value_selector_matches_worked_table(self):
        cpd, variables = three_value_cpd()
        result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
        selector = result.factors[-1]
        assert selector.size == 12
        expected = np.zeros((2, 2, 3))
        V, I = 0, 1
        L, M, H = 0, 1, 2
        expected[V, I, L] = 1.0
        expected[I, V, M] = 1.0
        expected[V, I, M] = -1.0
        expected[I, I, H] = 1.0
        expected[I, V, H] = -1.0
        np.testing.assert_array_equal(selector.values, expected)

    def test_selector_entries_and_total(self):
        for m in range(2, 7):
            rows = np.zeros((2, m))
            rows[0, 0] = 1.0
            rows[1] = 1.0 / m
            cpd, variables = binary_causes(2, [rows] * 2, m=m)
            selector = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE).factors[-1]
            assert set(np.unique(selector.values)) <= {-1.0, 0.0, 1.0}
            assert selector.values.sum() == 1.0

    def test_five_value_encoding(self):
        rows = np.full((2, 5), 0.2)
        cpd, variables = binary_causes(3, [rows] * 3, m=5)
        result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
        assert result.encoding_entry_count == 80

    def test_pairwise_factors_stay_pairwise(self):
        rng = np.random.default_rng(5)
        cpd, variables = random_noisymax(rng, 5, 4, with_leak=True)
        result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
        causes = set(cpd.causes)
        for factor in result.factors[:-1]:
            assert len(factor.scope) <= 2
            assert len(causes & set(factor.scope)) <= 1

    def test_pairwise_values_match_cumulative_density(self):
        cpd, variables = three_value_cpd()
        result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
        # Factors come prefix-major: (cum1, C1), (cum1, C2), (cum2, C1), ...
        for p, prefix_len in ((0, 1), (2, 2)):
            for j, link in enumerate(cpd.links):
                factor = result.factors[p + j]
                for c in range(2):
                    assert factor.values[0, c] == link[c, :prefix_len].sum()
                    assert factor.values[1, c] == 1.0


    def test_selector_guard_fires_before_allocation(self, monkeypatch):
        # 20 * 2**19 entries exceed the 10**7 guard; 19 * 2**18 do not.
        rows = [[1.0] + [0.0] * 19, [0.05] * 20]
        cpd, variables = binary_causes(2, [rows] * 2, m=20)
        monkeypatch.setattr(np, "zeros", None)  # building the selector would fail
        with pytest.raises(GuardExceededError, match="selector"):
            expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)

    def test_selector_just_under_the_guard_expands(self):
        rows = [[1.0] + [0.0] * 18, [1 / 19] * 19]
        cpd, variables = binary_causes(2, [rows] * 2, m=19)
        result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
        assert result.encoding_entry_count == 19 * 2**18
        assert result.encoding_entry_count == encoding_entries(Strategy.MULTIPLICATIVE, 2, 19)


class TestReduction:
    """With a binary effect the construction collapses to the noisy-or form:
    one prefix variable, per-cause tables carrying the miss probability, and
    the 4-entry signed selector."""

    def expected_noisy_or_factors(self, cpd):
        prefix = max(max(cpd.causes), cpd.effect) + 1
        factors = []
        for cause, link in zip(cpd.causes, cpd.links):
            miss = link[:, 0]
            factors.append(Factor((prefix, cause), np.stack([miss, np.ones_like(miss)])))
        if cpd.leak is not None:
            factors.append(Factor((prefix,), np.array([cpd.leak[0], 1.0])))
        factors.append(Factor((prefix, cpd.effect), np.array([[1.0, -1.0], [0.0, 1.0]])))
        return factors

    def test_factor_for_factor_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            cpd, variables = random_noisymax(rng, n, 2)
            result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
            expected = self.expected_noisy_or_factors(cpd)
            assert len(result.factors) == len(expected)
            for got, want in zip(result.factors, expected):
                assert got.scope == want.scope
                assert np.array_equal(got.values, want.values)


class TestSubspaceDifference:
    def test_middle_slice_is_cumulative_difference(self):
        cpd, variables = three_value_cpd()
        result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
        recovered = recover_cpd(result, cpd)
        cum = cpd.links
        for c1 in range(2):
            for c2 in range(2):
                below_m = cum[0][c1, :2].sum() * cum[1][c2, :2].sum()
                below_l = cum[0][c1, 0] * cum[1][c2, 0]
                assert recovered.values[c1, c2, 1] == pytest.approx(
                    below_m - below_l, abs=1e-12
                )


class TestOracleEquivalence:
    def test_all_strategies_recover_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2, 5))
            cpd, variables = random_noisymax(rng, n, m, with_leak=bool(trial % 3 == 0))
            expected = oracle_cpd(cpd, variables)
            for strategy in ALL_STRATEGIES:
                result = expand_cpd(cpd, variables, strategy)
                recovered = recover_cpd(result, cpd)
                np.testing.assert_allclose(
                    recovered.values, expected.values, atol=1e-9,
                    err_msg=f"{strategy} trial {trial} n={n} m={m}",
                )

    def test_expansion_invariants(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2, 5))
            cpd, variables = random_noisymax(rng, n, m)
            for strategy in ALL_STRATEGIES:
                result = expand_cpd(cpd, variables, strategy)
                scopes = set()
                for f in result.factors:
                    scopes.update(f.scope)
                for aux in result.auxiliary_variables:
                    assert aux.id in scopes
                assert result.encoding_entry_count <= result.total_entry_count


class TestSizeFormulas:
    def test_closed_forms(self):
        for n in range(2, 11):
            for m in range(2, 7):
                assert encoding_entries(Strategy.TRIVIAL, n, m) == m ** (n + 1)
                assert encoding_entries(Strategy.PARENT_DIVORCING, n, m) == (n - 1) * m**3
                assert encoding_entries(Strategy.TEMPORAL, n, m) == (n - 1) * m**3
                assert encoding_entries(Strategy.MULTIPLICATIVE, n, m) == m * 2 ** (m - 1)

    def test_accounting_matches_materialized_expansions(self):
        rng = np.random.default_rng(99)
        for n in range(2, 7):
            for m in (2, 3, 4):
                cpd, variables = random_noisymax(rng, n, m, max_cause_size=2)
                for strategy in ALL_STRATEGIES:
                    result = expand_cpd(cpd, variables, strategy)
                    assert result.encoding_entry_count == encoding_entries(strategy, n, m)

    def test_single_contribution_has_no_encoding(self):
        for strategy in ALL_STRATEGIES:
            assert encoding_entries(strategy, 1, 4) == 0

    def test_single_cause_is_bare_link_under_every_strategy(self):
        rows = [[1, 0, 0], [0.2, 0.3, 0.5]]
        cpd, variables = binary_causes(1, [rows], m=3)
        for strategy in ALL_STRATEGIES:
            result = expand_cpd(cpd, variables, strategy)
            assert result.auxiliary_variables == ()
            assert len(result.factors) == 1
            assert result.factors[0].scope == (0, 1)
            assert np.array_equal(result.factors[0].values, rows)
            assert result.encoding_entry_count == 0


class TestNetworkExpand:
    def test_noop_without_noisymax(self):
        variables = (Variable(0, "A", ("a", "b")), Variable(1, "B", ("a", "b")))
        nodes = (
            Factor((0,), [0.4, 0.6]),
            Factor((0, 1), [[0.5, 0.5], [0.1, 0.9]]),
        )
        from noisymax import TableCpd, Network

        net = Network(variables, tuple(TableCpd(f) for f in nodes))
        expanded, report = expand(net, Strategy.MULTIPLICATIVE)
        assert report.rows == ()
        assert report.encoding_total == 0
        assert [v.id for v in expanded.variables] == [0, 1]
        assert [f.scope for r in expanded.nodes for f in r.factors] == [(0,), (0, 1)]

    def test_report_values(self):
        rows = [[1, 0, 0], [0.5, 0.3, 0.2]]
        variables = tuple(Variable(i, f"c{i}", ("F", "T")) for i in range(4)) + (
            Variable(4, "e", ("L", "M", "H")),
        )
        from noisymax import Network, TableCpd

        nodes = tuple(TableCpd(Factor((i,), [0.9, 0.1])) for i in range(4)) + (
            NoisyMaxCpd(4, (0, 1, 2, 3), tuple(rows for i in range(4))),
        )
        net = Network(variables, nodes)
        expected = {
            Strategy.TRIVIAL: 243,
            Strategy.PARENT_DIVORCING: 81,
            Strategy.TEMPORAL: 81,
            Strategy.MULTIPLICATIVE: 12,
        }
        for strategy, encoding in expected.items():
            _, report = expand(net, strategy)
            assert report.encoding_total == encoding
            assert report.rows[0]["child"] == "e"

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_one_record_per_source_node(self, strategy):
        net = generate(
            GeneratorSpec(kind="bn2o", seed=3, diseases=4, findings=3, max_parents=3,
                          effect_domain_size=3)
        )
        expanded, report = expand(net, strategy)
        assert len(expanded.nodes) == len(net.nodes)
        for node, result in zip(net.nodes, expanded.nodes):
            if isinstance(node, TableCpd):
                assert result.factors == (node.factor,)
                assert result.auxiliary_variables == ()
            else:
                assert result.factors[-1].scope[-1] == node.effect
        n = len(net.variables)
        assert expanded.auxiliary_ids == tuple(range(n, len(expanded.variables)))
        assert all(v.id == i for i, v in enumerate(expanded.variables))
        noisy = [r for node, r in zip(net.nodes, expanded.nodes) if isinstance(node, NoisyMaxCpd)]
        assert report.encoding_total == sum(r.encoding_entry_count for r in noisy)
        assert report.entry_total == sum(r.total_entry_count for r in noisy)

    def test_aux_ids_are_fresh_and_disjoint(self):
        net = noisy_or_network()
        expanded, _ = expand(net, Strategy.TEMPORAL)
        aux = expanded.auxiliary_ids
        assert set(aux).isdisjoint(range(3))
        assert len(set(aux)) == len(aux)
