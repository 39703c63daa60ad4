"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance and runtime
budget, and prints a PASS/FAIL line (run with ``pytest -s`` to see the lines
as they happen).  Criteria are deliberately cross-checked against the
enumeration oracles, never against the code paths they exercise.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from noisymax import (
    Query,
    Strategy,
    brute_force_joint,
    cli,
    encoding_entries,
    expand,
    expand_cpd,
    oracle_cpd,
    query_posterior,
    run_benchmark,
    serialize_network,
)
from noisymax.infer import align, marginalize, multiply
from helpers import (
    fixed_order,
    random_network,
    random_noisymax,
    recover_cpd,
    single_effect_network,
    three_value_cpd,
)

ALL_STRATEGIES = list(Strategy)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_size_formulas():
    with criterion(1, "encoding sizes match the closed forms on the (n, m) grid", 1.0):
        for n in range(2, 11):
            for m in range(2, 7):
                assert encoding_entries(Strategy.TRIVIAL, n, m) == m ** (n + 1)
                assert encoding_entries(Strategy.PARENT_DIVORCING, n, m) == (n - 1) * m**3
                assert encoding_entries(Strategy.TEMPORAL, n, m) == (n - 1) * m**3
                assert encoding_entries(Strategy.MULTIPLICATIVE, n, m) == m * 2 ** (m - 1)


def test_criterion_2_marginalization_identity():
    with criterion(2, "noisy-or gadget product marginalizes to the brute-force CPD", 5.0):
        rng = np.random.default_rng(202)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            cpd, variables = random_noisymax(rng, n, 2)
            result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
            product = result.factors[0]
            for f in result.factors[1:]:
                product = multiply(product, f)
            if result.auxiliary_variables:
                product = marginalize(product, result.auxiliary_variables[0].id)
            recovered = align(product, cpd.causes + (cpd.effect,))
            expected = oracle_cpd(cpd, variables)
            deviation = float(abs(recovered.values - expected.values).max())
            assert deviation <= 1e-12, f"trial {trial}: deviation {deviation}"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "all four expansions marginalize to the enumeration oracle", 30.0):
        rng = np.random.default_rng(303)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(2, 6))
            cpd, variables = random_noisymax(rng, n, m, with_leak=(trial % 3 == 0))
            expected = oracle_cpd(cpd, variables)
            for strategy in ALL_STRATEGIES:
                result = expand_cpd(cpd, variables, strategy)
                recovered = recover_cpd(result, cpd)
                deviation = float(abs(recovered.values - expected.values).max())
                assert deviation <= 1e-9, (
                    f"trial {trial} {strategy.value} n={n} m={m}: deviation {deviation}"
                )


def test_criterion_4_end_to_end_agreement():
    with criterion(4, "every strategy agrees with full-joint enumeration", 120.0):
        for seed in range(200):
            net = random_network(seed)
            n = len(net.variables)
            rng = np.random.default_rng(40_000 + seed)
            queries = [Query((v,), {}) for v in range(n)]
            for _ in range(3):
                target = int(rng.integers(0, n))
                pool = [v for v in range(n) if v != target]
                k = int(rng.integers(1, min(3, len(pool)) + 1))
                chosen = rng.choice(pool, size=k, replace=False)
                evidence = {
                    int(v): int(rng.integers(0, net.variables[int(v)].size)) for v in chosen
                }
                queries.append(Query((target,), evidence))
            expanded = {s: expand(net, s)[0] for s in ALL_STRATEGIES}
            for query in queries:
                expected = brute_force_joint(net, query)
                for strategy in ALL_STRATEGIES:
                    posterior, _ = query_posterior(expanded[strategy], query)
                    deviation = float(abs(posterior.values - expected.values).max())
                    assert deviation <= 1e-9, (
                        f"seed {seed} {strategy.value} query {query}: deviation {deviation}"
                    )


def test_criterion_5_noisy_or_reduction():
    with criterion(5, "binary-effect expansion equals the noisy-or construction exactly", 5.0):
        rng = np.random.default_rng(505)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            cpd, variables = random_noisymax(rng, n, 2)
            result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)

            prefix = max(variables) + 1
            assert len(result.auxiliary_variables) == 1
            assert result.auxiliary_variables[0].id == prefix
            assert result.auxiliary_variables[0].domain == ("V", "I")

            assert len(result.factors) == n + 1
            for cause, link, factor in zip(cpd.causes, cpd.links, result.factors):
                assert factor.scope == (prefix, cause)
                assert np.array_equal(factor.values[0], link[:, 0])
                assert np.array_equal(factor.values[1], np.ones(link.shape[0]))
            selector = result.factors[-1]
            assert selector.scope == (prefix, cpd.effect)
            assert selector.size == 4
            assert np.array_equal(selector.values, [[1.0, -1.0], [0.0, 1.0]])


def test_criterion_6_subspace_difference():
    with criterion(6, "middle slice equals the cumulative-product difference", 5.0):
        cpd, variables = three_value_cpd()
        result = expand_cpd(cpd, variables, Strategy.MULTIPLICATIVE)
        recovered = recover_cpd(result, cpd)
        rows = cpd.links
        for c1 in range(2):
            for c2 in range(2):
                below_m = rows[0][c1, :2].sum() * rows[1][c2, :2].sum()
                below_l = rows[0][c1, 0] * rows[1][c2, 0]
                deviation = abs(recovered.values[c1, c2, 1] - (below_m - below_l))
                assert deviation <= 1e-12


def test_criterion_7_scaling():
    with criterion(7, "wide fan-in stays polynomial while the dense table explodes", 60.0):
        ns = list(range(2, 21))
        counts = []
        for n in ns:
            net = single_effect_network(n, seed=n)
            expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
            _, stats = query_posterior(
                expanded, Query((n,), {}), max_multiplications=10**8
            )
            counts.append(stats.multiplications)
        # A cubic must capture the growth; the counts are in fact linear.
        coeffs = np.polyfit(ns, counts, deg=3)
        fitted = np.polyval(coeffs, ns)
        residual = float(np.abs(np.array(counts) - fitted).max())
        assert residual <= max(5.0, 0.02 * max(counts)), f"fit residual {residual}"
        for n, count in zip(ns, counts):
            if n >= 12:
                assert count < 2 ** (n + 1)
        for n in range(19, 21):
            assert encoding_entries(Strategy.TRIVIAL, n, 2) == 2 ** (n + 1) > 10**6


def test_criterion_8_ordering_freedom():
    with criterion(8, "arbitrary elimination orders reproduce the oracle posterior", 30.0):
        for seed in range(20):
            net = random_network(seed + 900)
            n = len(net.variables)
            rng = np.random.default_rng(80_000 + seed)
            target = int(rng.integers(0, n))
            evidence = {}
            if seed % 2:
                other = int(rng.integers(0, n))
                if other != target:
                    evidence[other] = int(rng.integers(0, net.variables[other].size))
            query = Query((target,), evidence)
            expected = brute_force_joint(net, query)
            expanded, _ = expand(net, Strategy.MULTIPLICATIVE)
            everything = range(len(expanded.variables))
            for _ in range(5):
                order = [int(v) for v in rng.permutation(everything) if v != target]
                with fixed_order(order):
                    posterior, _ = query_posterior(expanded, query)
                deviation = float(abs(posterior.values - expected.values).max())
                assert deviation <= 1e-9, f"seed {seed}: deviation {deviation}"


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "generation and benchmarking are bit-reproducible", 30.0):
        args = ["gen", "--kind", "bn2o", "--seed", "42", "--diseases", "8",
                "--findings", "6", "--max-parents", "4"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli.main(args + ["-o", str(first)]) == 0
        assert cli.main(args + ["-o", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

        net_text = first.read_text()
        from noisymax import parse_network

        net = parse_network(net_text)
        assert serialize_network(net) == net_text

        runs = [run_benchmark(net, ALL_STRATEGIES) for _ in range(2)]
        counts = [[c.stats.multiplications for c in report.cells] for report in runs]
        assert counts[0] == counts[1]
        docs = [
            json.dumps({k: v for k, v in r.to_json().items() if k != "cell_times_ms"})
            for r in runs
        ]
        assert docs[0] == docs[1]
