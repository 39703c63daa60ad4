"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest benchmarks
"""

import numpy as np
import pytest

from noisymax import bench, infer, model

import harness
import tracing
import workloads

TINY = {
    "marginals-1200": lambda seed: workloads.marginals(seed, diseases=6, findings=8, max_parents=3),
    "bn2o-findings": lambda seed: workloads.findings(
        seed,
        networks=(
            bench.GeneratorSpec("bn2o", 3, 5, 5, 3, 3),
            bench.GeneratorSpec("bn2o", 2, 6, 6, 3, 2),
        ),
    ),
    "fanin-sweep": lambda seed: workloads.fanin(seed, causes=(2, 3, 4), domains=(2, 3)),
}
ENTRY_COUNTS = ("encoding_entries", "total_entries", "aux_vars")


def counts(workload: str, seed: int) -> dict:
    report, _, _ = harness.run(TINY[workload](seed), 0, trace=False)
    traced, _, _ = harness.run(TINY[workload](seed), 0, trace=True)
    assert report.problems == [] and traced.problems == []
    found = {
        "mults_total": report.metrics["mults_total"],
        "peak_entries_max": report.metrics["peak_entries_max"],
        "failed_frac": report.failed / report.attempted,
    }
    found.update(
        (name, value)
        for name, value in traced.metrics.items()
        if name.startswith("factorize.") and name.split(".")[1] in ENTRY_COUNTS
    )
    return found


def answers(workload: str, seed: int) -> list:
    out = []
    for cell in TINY[workload](seed).setup():
        try:
            out.append(cell.run().answers)
        except model.GuardExceededError:
            out.append(None)
    return out


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_for_one_seed(workload):
    assert counts(workload, 7) == counts(workload, 7)


def test_counts_change_with_a_seeded_network():
    first, second = counts("marginals-1200", 7), counts("marginals-1200", 8)
    for name in ("mults_total", "factorize.total_entries.trivial"):
        assert first[name] != second[name]


@pytest.mark.parametrize("workload", ["bn2o-findings", "fanin-sweep"])
def test_seed_changes_the_inputs_of_fixed_structures(workload):
    # Their network shapes are fixed; the seed moves the evidence or the links.
    first, second = answers(workload, 7), answers(workload, 8)
    assert any(
        a is not None and b is not None and not all(np.array_equal(x, y) for x, y in zip(a, b))
        for a, b in zip(first, second)
    )


@pytest.mark.parametrize("cells, percentile", [(4800, 99.0), (228, 95.0), (108, 90.0), (48, 75.0)])
def test_tail_leaves_ten_cells_beyond(cells, percentile):
    assert harness.tail_percentile(cells) == percentile
    values = list(range(cells))
    beyond = [v for v in values if v > harness.nearest_rank(values, percentile)]
    assert len(beyond) >= 10


@pytest.mark.parametrize("workload", ["bn2o-findings", "fanin-sweep"])
def test_every_group_has_an_independent_reference(workload):
    suite = TINY[workload](7)
    references = suite.references()
    assert {cell.group for cell in suite.setup()} <= {g for g, refs in references.items() if refs}


def test_gate_catches_a_wrong_answer():
    suite = TINY["fanin-sweep"](7)
    cells = suite.setup()
    good = cells[0]

    def wrong():
        outcome = good.run()
        return workloads.Outcome(
            (outcome.answers[0] + 1e-6,) + outcome.answers[1:],
            outcome.multiplications,
            outcome.peak_entries,
        )

    cells[0] = workloads.Cell(good.group, good.strategy, wrong)
    broken = workloads.Suite(lambda: cells, suite.references)
    report, _, _ = harness.run(broken, 0, trace=False)
    assert any(good.group in problem for problem in report.problems)


def test_tracing_restores_the_layers():
    before = {(mod, attr): getattr(mod, attr) for mod, attr in tracing.TRACED}
    report, tracer, _ = harness.run(TINY["bn2o-findings"](7), 0, trace=True)
    assert {(mod, attr): getattr(mod, attr) for mod, attr in tracing.TRACED} == before
    assert infer.query_posterior is before[(infer, "query_posterior")]
    assert {span[0] for span in tracer.spans} == {attr for _, attr in tracing.TRACED}
    assert report.metrics["infer.restrict_calls.multiplicative"] > 0
    assert set(report.metrics) == set(tracing.per_layer_units())


def test_cells_use_the_default_heuristic_and_pinned_guards(monkeypatch):
    seen = []
    real = infer.query_posterior

    def spy(*args, **kwargs):
        seen.append((args[2:], kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(infer, "query_posterior", spy)
    for cell in TINY["marginals-1200"](7).setup()[:4]:
        cell.run()
    assert seen and all(
        args == ()
        and kwargs
        == {
            "max_multiplications": workloads.GUARD_MULTS,
            "max_table_entries": workloads.GUARD_ENTRIES,
        }
        for args, kwargs in seen
    )
