"""End-to-end CLI behavior: exit codes, machine-readable errors, outputs."""

import json

import pytest

from noisymax import AgreementError, NegativeMassError, cli
from noisymax.model import parse_network, serialize_network
from helpers import noisy_or_network


@pytest.fixture
def noisy_or_file(tmp_path):
    path = tmp_path / "noisy_or.json"
    path.write_text(serialize_network(noisy_or_network()))
    return str(path)


@pytest.fixture
def four_cause_file(tmp_path):
    doc = {
        "variables": [{"name": f"c{i}", "states": ["F", "T"]} for i in range(4)]
        + [{"name": "e", "states": ["L", "M", "H"]}],
        "nodes": [
            {"child": f"c{i}", "parents": [], "cpd": {"type": "table", "values": [0.9, 0.1]}}
            for i in range(4)
        ]
        + [
            {
                "child": "e",
                "cpd": {
                    "type": "noisy-max",
                    "causes": [f"c{i}" for i in range(4)],
                    "links": [[[1, 0, 0], [0.5, 0.3, 0.2]]] * 4,
                },
            }
        ],
    }
    path = tmp_path / "four_cause.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_file(self, capsys, noisy_or_file):
        code, out, err = run(capsys, "validate", noisy_or_file)
        assert code == 0
        assert json.loads(out) == {"ok": True, "variables": 3, "nodes": 3}

    def test_cyclic_file(self, capsys, tmp_path):
        doc = {
            "variables": [{"name": n, "states": ["F", "T"]} for n in "AB"],
            "nodes": [
                {"child": "A", "parents": ["B"], "cpd": {"type": "table", "values": [0.5] * 4}},
                {"child": "B", "parents": ["A"], "cpd": {"type": "table", "values": [0.5] * 4}},
            ],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code != 0
        payload = json.loads(err)
        assert payload["error"] == "cycle-detected"
        assert "cycle detected" in payload["message"]

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code != 0
        assert json.loads(err)["error"] == "io-error"

    def test_malformed_distribution(self, capsys, tmp_path):
        doc = {
            "variables": [{"name": "A", "states": ["F", "T"]}],
            "nodes": [
                {"child": "A", "parents": [], "cpd": {"type": "table", "values": [0.5, 0.6]}}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code != 0
        assert json.loads(err)["error"] == "malformed-distribution"


class TestExpand:
    def test_sizes_across_strategies(self, capsys, four_cause_file):
        code, out, err = run(capsys, "expand", four_cause_file, "--report", "sizes")
        assert code == 0
        doc = json.loads(out)
        encodings = {
            r["strategy"]: r["totals"]["encoding_entries"] for r in doc["reports"]
        }
        assert encodings == {
            "trivial": 243,
            "parent-divorcing": 81,
            "temporal": 81,
            "multiplicative": 12,
        }

    def test_single_strategy(self, capsys, four_cause_file):
        code, out, err = run(capsys, "expand", four_cause_file, "--strategy", "multiplicative")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 1
        node = doc["reports"][0]["nodes"][0]
        assert node["child"] == "e"
        assert node["auxiliary_count"] == 2


class TestInfer:
    def test_marginal(self, capsys, noisy_or_file):
        code, out, err = run(capsys, "infer", noisy_or_file, "--target", "E")
        assert code == 0
        posterior = json.loads(out)["posterior"]
        assert posterior["F"] == pytest.approx(0.42, abs=1e-9)
        assert posterior["T"] == pytest.approx(0.58, abs=1e-9)

    def test_every_strategy_agrees(self, capsys, noisy_or_file):
        for strategy in ("trivial", "parent-divorcing", "temporal", "multiplicative"):
            code, out, err = run(
                capsys, "infer", noisy_or_file, "--target", "E", "--strategy", strategy
            )
            assert code == 0
            assert json.loads(out)["posterior"]["T"] == pytest.approx(0.58, abs=1e-9)

    def test_evidence_and_stats(self, capsys, noisy_or_file):
        code, out, err = run(
            capsys,
            "infer",
            noisy_or_file,
            "--target",
            "C1",
            "--evidence",
            "E=T",
            "--stats",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["posterior"]["T"] == pytest.approx(0.43 / 0.58, abs=1e-9)
        stats = doc["stats"]
        assert "heuristic" not in stats
        assert stats["multiplications"] > 0
        assert "relevant_vars" in stats

    def test_unknown_target(self, capsys, noisy_or_file):
        code, out, err = run(capsys, "infer", noisy_or_file, "--target", "ghost")
        assert code != 0
        assert json.loads(err)["error"] == "unknown-variable"

    def test_bad_evidence_syntax(self, capsys, noisy_or_file):
        code, out, err = run(
            capsys, "infer", noisy_or_file, "--target", "E", "--evidence", "C1"
        )
        assert code != 0
        assert json.loads(err)["error"] == "usage"

    def test_contradictory_query_is_a_usage_error(self, capsys, noisy_or_file):
        for extra in (
            ["--target", "C1", "--evidence", "C1=T"],
            ["--target", "C1", "--target", "C1"],
            ["--target", "E", "--evidence", "C1=T", "--evidence", "C1=F"],
        ):
            code, out, err = run(capsys, "infer", noisy_or_file, *extra)
            assert code == 1, extra
            assert out == ""
            assert json.loads(err)["error"] == "usage", extra

    def test_unknown_state(self, capsys, noisy_or_file):
        code, out, err = run(
            capsys, "infer", noisy_or_file, "--target", "E", "--evidence", "C1=maybe"
        )
        assert code != 0
        assert json.loads(err)["error"] == "unknown-state"

    def test_stats_count_pruned_states(self, capsys, noisy_or_file):
        code, out, err = run(
            capsys, "infer", noisy_or_file, "--target", "C1", "--evidence", "E=F", "--stats"
        )
        assert code == 0
        # E = F leaves its multiplicative prefix variable one state.
        assert json.loads(out)["stats"]["pruned_states"] == 2

    def test_zero_posterior_code(self, capsys, tmp_path):
        doc = {
            "variables": [{"name": n, "states": ["a", "b"]} for n in "AB"],
            "nodes": [
                {"child": "A", "parents": [], "cpd": {"type": "table", "values": [1.0, 0.0]}},
                {"child": "B", "parents": ["A"], "cpd": {"type": "table", "values": [0.5] * 4}},
            ],
        }
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "infer", str(path), "--target", "B", "--evidence", "A=b")
        assert code == 1
        assert json.loads(err)["error"] == "zero-posterior"

    def test_negative_mass_code(self, capsys, monkeypatch, noisy_or_file):
        def negative(*args, **kwargs):
            raise NegativeMassError("unnormalized posterior entry -0.5 below the bound")

        monkeypatch.setattr(cli, "query_posterior", negative)
        code, out, err = run(capsys, "infer", noisy_or_file, "--target", "E")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "negative-mass"
        assert "-0.5" in payload["message"]

    def test_guard_applies_to_infer(self, capsys, monkeypatch, noisy_or_file):
        monkeypatch.setenv("NOISYMAX_GUARD_MULTS", "1")
        code, out, err = run(capsys, "infer", noisy_or_file, "--target", "E")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "guard-exceeded"
        assert "multiplications exceed the guard" in payload["message"]


class TestGen:
    def test_written_file_validates_and_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        args = ["gen", "--kind", "bn2o", "--seed", "42", "--diseases", "6",
                "--findings", "4", "--max-parents", "3"]
        assert cli.main(args + ["-o", str(first)]) == 0
        assert cli.main(args + ["-o", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        net = parse_network(first.read_text())
        assert len(net.variables) == 10

    def test_infeasible_spec(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "gen", "--kind", "bn2o", "--seed", "1", "--diseases", "2",
            "--findings", "1", "--max-parents", "5", "-o", str(tmp_path / "x.json"),
        )
        assert code != 0
        payload = json.loads(err)
        assert payload["error"] == "invalid-spec"
        assert "infeasible" in payload["message"]


class TestBench:
    def test_writes_report_and_csv(self, capsys, tmp_path, noisy_or_file):
        report = tmp_path / "report.json"
        csv_path = tmp_path / "cells.csv"
        code, out, err = run(
            capsys,
            "bench", noisy_or_file,
            "--strategies", "trivial,multiplicative",
            "--out", str(report),
            "--csv", str(csv_path),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["query_count"] == 3
        assert len(doc["cells"]) == 6
        assert all(cell["status"] == "ok" for cell in doc["cells"])
        header = csv_path.read_text().splitlines()[0]
        assert header == "query,strategy,mults,peak,time_ms,status"

    def test_unknown_strategy(self, capsys, noisy_or_file):
        for argv in (
            ["bench", noisy_or_file, "--strategies", "trivial,bogus"],
            ["expand", noisy_or_file, "--strategy", "bogus"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1
            payload = json.loads(err)
            assert payload["error"] == "unknown-strategy"
            assert "bogus" in payload["message"]

    def test_empty_strategy_list_is_a_usage_error(self, capsys, noisy_or_file):
        for argv in (
            ["bench", noisy_or_file, "--strategies", ","],
            ["expand", noisy_or_file, "--strategy", ","],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert json.loads(err)["error"] == "usage", argv

    def test_repeated_strategy_is_a_usage_error(self, capsys, noisy_or_file):
        for argv in (
            ["bench", noisy_or_file, "--strategies", "trivial,trivial"],
            ["expand", noisy_or_file, "--strategy", "multiplicative, multiplicative"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            payload = json.loads(err)
            assert payload["error"] == "usage", argv
            assert "twice" in payload["message"]

    def test_usage_error_exits_nonzero(self, capsys, noisy_or_file):
        for argv in (
            ["infer", noisy_or_file],  # --target is required
            ["infer", noisy_or_file, "--target", "E", "--strategy", "bogus"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2
            payload = json.loads(capsys.readouterr().err)
            assert payload["error"] == "usage"
            assert payload["message"]

    def test_help_stays_plain_text(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["infer", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: noisymax infer")

    def test_agreement_error_is_json(self, capsys, monkeypatch, noisy_or_file):
        def disagree(*args, **kwargs):
            raise AgreementError("E", 0.25)

        monkeypatch.setattr(cli, "run_benchmark", disagree)
        code, out, err = run(capsys, "bench", noisy_or_file)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "agreement-error"
        assert payload["query"] == "E"
        assert payload["deviation"] == 0.25
