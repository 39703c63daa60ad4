"""Generators, the deterministic RNG stream, and the benchmark runner."""

import hashlib
from dataclasses import replace

import pytest

from noisymax import (
    AgreementError,
    Factor,
    GeneratorSpec,
    Network,
    NoisyMaxCpd,
    Query,
    SplitMix64,
    Strategy,
    TableCpd,
    Variable,
    expand,
    generate,
    run_benchmark,
    serialize_network,
)
from noisymax import bench
from noisymax.bench import _decade_bucket
from noisymax.factorize import ExpandedNetwork
from helpers import single_effect_network, wide_noisy_or_network


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        # Published reference outputs for the splitmix64 algorithm.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_reference_stream_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_uniform_range(self):
        rng = SplitMix64(42)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_randint_bounds(self):
        rng = SplitMix64(7)
        draws = [rng.randint(3, 5) for _ in range(200)]
        assert set(draws) == {3, 4, 5}

    def test_sample_without_replacement(self):
        rng = SplitMix64(9)
        picked = rng.sample(range(10), 4)
        assert len(set(picked)) == 4
        assert all(0 <= x < 10 for x in picked)


class TestGenerate:
    SPEC = GeneratorSpec(kind="bn2o", seed=1, diseases=5, findings=3, max_parents=5)

    def test_same_seed_identical_bytes(self):
        a = serialize_network(generate(self.SPEC))
        b = serialize_network(generate(self.SPEC))
        assert a == b

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                GeneratorSpec("bn2o", 3, 24, 24, 8, effect_domain_size=3),
                "d244d2f32ceaf656b1defbb83b0d455b084b4a00c9c535dcfa68323bb3553ca0",
            ),
            (
                GeneratorSpec("bn2o", 2, 30, 40, 10, effect_domain_size=2),
                "30a34c2a073e64da3fab015a99edcaac1d26bcb75fa66f79e383247777f12e06",
            ),
            (
                GeneratorSpec("multilevel", 3, 16, 40, 6, effect_domain_size=3),
                "cd3e7443623f16fee7dd5a52ae6514b07329b62bd7061f3ba8401ffa946bfaf1",
            ),
        ],
        ids=["bn2o-24x24-m3", "bn2o-30x40-m2", "multilevel-16x40-m3"],
    )
    def test_seed_bytes_are_pinned(self, spec, digest):
        # The benchmark's networks come from these generators: a change to
        # the draw order or the serialized form changes every workload.
        text = serialize_network(generate(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_different_seed_differs(self):
        other = GeneratorSpec(kind="bn2o", seed=2, diseases=5, findings=3, max_parents=5)
        assert serialize_network(generate(self.SPEC)) != serialize_network(generate(other))

    def test_bn2o_structure(self):
        net = generate(self.SPEC)
        diseases = net.variables[:5]
        findings = net.variables[5:]
        for d in diseases:
            node = net.nodes[d.id]
            assert isinstance(node, TableCpd)
            assert node.parents == ()
            assert 0.001 <= node.factor.values[1] <= 0.1
        for f in findings:
            node = net.nodes[f.id]
            assert isinstance(node, NoisyMaxCpd)
            assert 1 <= len(node.causes) <= 5
            assert all(c < 5 for c in node.causes)

    def test_multilevel_parents_precede_children(self):
        spec = GeneratorSpec(
            kind="multilevel",
            seed=3,
            diseases=3,
            findings=5,
            max_parents=3,
            effect_domain_size=3,
            link_density=0.8,
        )
        net = generate(spec)
        for f_id in range(3, 8):
            node = net.nodes[f_id]
            assert isinstance(node, NoisyMaxCpd)
            assert all(c < f_id for c in node.causes)

    def test_infeasible_spec(self):
        with pytest.raises(ValueError, match="infeasible"):
            GeneratorSpec(kind="bn2o", seed=1, diseases=2, findings=1, max_parents=3)

    def test_effect_domain_size(self):
        spec = GeneratorSpec(
            kind="bn2o", seed=4, diseases=2, findings=2, max_parents=2, effect_domain_size=4
        )
        net = generate(spec)
        assert net.variables[2].size == 4
        assert net.variables[3].size == 4


class TestDecadeBuckets:
    @pytest.mark.parametrize(
        "mults,bucket",
        [
            (0, "0-9"),
            (9, "0-9"),
            (10, "10-99"),
            (99, "10-99"),
            (100, "100-999"),
            (1000, "1000-9999"),
            (123456, "100000-999999"),
        ],
    )
    def test_edges(self, mults, bucket):
        assert _decade_bucket(mults) == bucket


class TestRunBenchmark:
    def test_single_node_histogram(self):
        net = Network(
            (Variable(0, "A", ("a", "b")),),
            (TableCpd(Factor((0,), [0.3, 0.7])),),
        )
        report = run_benchmark(net, list(Strategy))
        assert report.query_count == 1
        for key, buckets in report.histograms.items():
            assert buckets == {"0-9": 1}

    def test_histogram_counts_sum_to_query_count(self):
        net = generate(GeneratorSpec(kind="bn2o", seed=5, diseases=4, findings=3, max_parents=2))
        report = run_benchmark(net, list(Strategy))
        for buckets in report.histograms.values():
            assert sum(buckets.values()) == report.query_count

    def test_corrupted_factor_fails_agreement(self, monkeypatch):
        net = single_effect_network(4)
        broken, sizes = expand(net, Strategy.TEMPORAL)
        nodes = list(broken.nodes)
        factors = list(nodes[-1].factors)
        corrupted = factors[-1].values.copy()
        corrupted[(0,) * corrupted.ndim] += 0.3
        factors[-1] = Factor(factors[-1].scope, corrupted)
        nodes[-1] = replace(nodes[-1], factors=tuple(factors))
        injected = ExpandedNetwork(broken.source, broken.strategy, tuple(nodes))

        def corrupting(net, strategy):
            return (injected, sizes) if strategy is Strategy.TEMPORAL else expand(net, strategy)

        monkeypatch.setattr(bench, "expand", corrupting)
        with pytest.raises(AgreementError) as excinfo:
            run_benchmark(net, [Strategy.TRIVIAL, Strategy.TEMPORAL])
        assert excinfo.value.deviation > 1e-9
        assert excinfo.value.query

    def test_guard_abort_does_not_poison_agreement(self, monkeypatch):
        net = single_effect_network(18)
        monkeypatch.setattr(bench, "TABLE_ENTRY_GUARD", 2**16)
        report = run_benchmark(
            net, [Strategy.TRIVIAL, Strategy.MULTIPLICATIVE], queries=[Query((18,), {})]
        )
        by_strategy = {c.strategy: c for c in report.cells}
        aborted = by_strategy["trivial"]
        assert aborted.status == "aborted"
        assert by_strategy["multiplicative"].status == "ok"
        assert report.histograms["trivial"] == {"aborted": 1}
        assert sum(report.histograms["trivial"].values()) == 1
        # The abort keeps the partial stats and the guard's reason.
        assert aborted.stats.relevant_vars == 19
        assert "entries exceeds the guard" in aborted.reason
        cell_doc = report.to_json()["cells"][0]
        assert cell_doc["strategy"] == "trivial"
        assert cell_doc["relevant_vars"] == 19
        assert cell_doc["reason"] == aborted.reason
        assert by_strategy["multiplicative"].reason is None

    def test_refused_expansion_is_aborted_cells(self, monkeypatch):
        # The multiplicative selector of a 20-state effect would hold
        # 20 * 2**19 entries; the expansion guard refuses it.
        calls = []

        def counted(net, strategy):
            calls.append(strategy)
            return expand(net, strategy)

        monkeypatch.setattr(bench, "expand", counted)
        report = run_benchmark(
            wide_noisy_or_network(20), [Strategy.PARENT_DIVORCING, Strategy.MULTIPLICATIVE]
        )
        assert calls == [Strategy.PARENT_DIVORCING, Strategy.MULTIPLICATIVE]
        divorced = [c for c in report.cells if c.strategy == "parent-divorcing"]
        refused = [c for c in report.cells if c.strategy == "multiplicative"]
        assert [c.status for c in divorced] == ["ok"] * 3
        assert report.histograms["multiplicative"] == {"aborted": 3}
        for cell in refused:
            assert cell.reason == "selector would hold 20*2^19 entries"
            assert (cell.stats.multiplications, cell.stats.peak_table_entries) == (0, 0)
            assert (cell.stats.relevant_vars, cell.stats.pruned_states) == (0, 0)
        assert report.totals["multiplicative"] == {
            "multiplications": 0, "completed": 0, "aborted": 3
        }

    def test_refused_trivial_expansion_keeps_the_grid(self):
        net = single_effect_network(23)
        report = run_benchmark(net, [Strategy.TRIVIAL, Strategy.MULTIPLICATIVE])
        trivial = [c for c in report.cells if c.strategy == "trivial"]
        assert len(trivial) == report.query_count == 24
        assert {c.status for c in trivial} == {"aborted"}
        assert {c.reason for c in trivial} == {"max table would hold 2^24 entries"}
        assert report.totals["multiplicative"]["completed"] == 24

    def test_aborted_cell_keeps_pruned_states(self, monkeypatch):
        net = single_effect_network(18)
        monkeypatch.setattr(bench, "TABLE_ENTRY_GUARD", 2**16)
        # An absent d0 leaves its contribution variable one state; the
        # trivial table still trips the entry guard.
        report = run_benchmark(net, [Strategy.TRIVIAL], queries=[Query((18,), {0: 0})])
        (cell,) = report.cells
        assert cell.status == "aborted"
        assert cell.stats.pruned_states == 2
        assert report.to_json()["cells"][0]["pruned_states"] == 2

    def test_reports_are_deterministic(self):
        net = generate(GeneratorSpec(kind="bn2o", seed=6, diseases=4, findings=3, max_parents=3))
        first = run_benchmark(net, list(Strategy))
        second = run_benchmark(net, list(Strategy))
        untimed = [
            {k: v for k, v in r.to_json().items() if k != "cell_times_ms"} for r in (first, second)
        ]
        assert untimed[0] == untimed[1]
        assert [c.stats.multiplications for c in first.cells] == [
            c.stats.multiplications for c in second.cells
        ]

    def test_csv_columns(self):
        net = single_effect_network(3)
        report = run_benchmark(net, [Strategy.MULTIPLICATIVE])
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "query,strategy,mults,peak,time_ms,status"
        assert len(lines) == 1 + len(report.cells)

    def test_explicit_queries_with_evidence(self):
        net = single_effect_network(4)
        queries = [Query((0,), {4: 1}), Query((4,), {})]
        report = run_benchmark(net, list(Strategy), queries=queries)
        assert report.query_count == 2
        assert all(c.status == "ok" for c in report.cells)
