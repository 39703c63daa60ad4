"""End-to-end CLI behavior: exit codes, machine-readable errors, outputs."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisymax
from noisymax import AgreementError, NegativeMassError, cli
from noisymax.model import parse_network, serialize_network
from helpers import (
    noisy_or_network,
    references_doc,
    single_effect_network,
    wide_noisy_or_network,
)


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


def argparse_usage_error(capsys, *argv) -> dict:
    """The one JSON ``usage`` line that argparse writes to stderr before
    exiting with code 2."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "usage", argv
    return payload


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

    def test_file_that_is_not_utf8_is_an_io_error(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_bytes(b'\xff\xfe{"variables": []}')
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "io-error"

    @pytest.mark.parametrize("value", [[["a"]], "ab"], ids=["list", "string"])
    def test_malformed_reference_is_a_schema_error(self, capsys, tmp_path, value):
        doc = references_doc("table")
        doc["nodes"][2]["parents"] = value
        path = tmp_path / "refs.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "schema-error"
        assert payload["message"].startswith("nodes[2]")

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

    @pytest.mark.parametrize(
        "node, key, value, code",
        [
            (0, "values", [float("nan"), 1.0], "malformed-distribution"),
            (2, "links", [[[1, 0], ["x", 1]], [[1, 0], [0.4, 0.6]]], "schema-error"),
            (0, "values", [True, False], "schema-error"),
            (0, "values", ["0.25", " 0.75 "], "schema-error"),
            (0, "values", [[0.5], [0.5]], "schema-error"),
            # An integer too large for a float, written as 401 bare digits.
            (0, "values", [10**400, 0], "malformed-distribution"),
            (2, "links", [[[1, 0], [10**400, 0]], [[1, 0], [0.4, 0.6]]], "malformed-distribution"),
        ],
    )
    def test_bad_numbers_are_rejected_before_inference(
        self, capsys, tmp_path, node, key, value, code
    ):
        doc = json.loads(serialize_network(noisy_or_network()))
        doc["nodes"][node]["cpd"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN is written as the bare token NaN
        for argv in (["validate", str(path)], ["infer", str(path), "--target", "E"]):
            exit_code, out, err = run(capsys, *argv)
            assert exit_code == 1, argv
            assert out == ""
            assert json.loads(err)["error"] == code

    def test_deeply_nested_document_is_a_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "syntax-error"

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc["nodes"][2]["cpd"]["links"].__setitem__(0, [1, 0, 0.2, 0.8]),
             "link table for cause 0: rows must be 2-D"),
            (lambda doc: doc["variables"][1].__setitem__("name", "C1"),
             "duplicate variable name 'C1'"),
        ],
        ids=["flat-link-rows", "duplicate-variable"],
    )
    def test_schema_defects(self, capsys, tmp_path, mutate, message):
        doc = json.loads(serialize_network(noisy_or_network()))
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert json.loads(err) == {"error": "schema-error", "message": message}


class TestExpand:
    def test_sizes_across_strategies(self, capsys, four_cause_file):
        code, out, err = run(capsys, "expand", four_cause_file)
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

    @pytest.mark.parametrize("command", ["expand", "infer"])
    def test_oversized_selector_is_a_guard_error(self, capsys, tmp_path, command):
        # The multiplicative selector of a 40-state effect holds 40 * 2**39
        # entries; the guard must refuse it before numpy tries to allocate.
        doc = json.loads(serialize_network(noisy_or_network()))
        doc["variables"][2]["states"] = [f"l{k}" for k in range(40)]
        doc["nodes"][2]["cpd"]["links"] = [[[1] + [0] * 39, [0.025] * 40]] * 2
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["--target", "E"] if command == "infer" else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "guard-exceeded"


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
        assert stats["query"] == "C1|E=T"

    def test_unknown_target(self, capsys, noisy_or_file):
        code, out, err = run(capsys, "infer", noisy_or_file, "--target", "ghost")
        assert code != 0
        assert json.loads(err)["error"] == "unknown-variable"

    def test_bad_evidence_syntax(self, capsys, noisy_or_file):
        code, out, err = run(
            capsys, "infer", noisy_or_file, "--target", "E", "--evidence", "C1"
        )
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_contradictory_query_is_a_usage_error(self, capsys, noisy_or_file):
        for extra in (
            ["--target", "C1", "--evidence", "C1=T"],
            ["--target", "C1", "--target", "C1"],
            ["--target", "E", "--evidence", "C1=T", "--evidence", "C1=F"],
        ):
            code, out, err = run(capsys, "infer", noisy_or_file, *extra)
            assert code == 2, extra
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

    def test_guard_applies_to_infer(self, capsys, noisy_or_file):
        code, out, err = run(capsys, "infer", noisy_or_file, "--target", "E", "--guard-mults", "1")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "guard-exceeded"
        assert "multiplications exceed the guard" in payload["message"]

    def test_malformed_guard_flag_is_a_usage_error(self, capsys, noisy_or_file):
        for raw in ("abc", "0", "-3", "1e8", ""):
            argv = ["infer", noisy_or_file, "--target", "E", "--guard-mults", raw]
            payload = argparse_usage_error(capsys, *argv)
            assert payload["message"] == (
                f"argument --guard-mults: must be a positive integer, got {raw!r}"
            )


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


class TestWriteFailures:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--seed", "1", "-o", "{missing}/net.json"],
            ["bench", "{net}", "--strategies", "trivial", "--out", "{missing}/report.json"],
            ["bench", "{net}", "--strategies", "trivial", "--csv", "{missing}/cells.csv"],
        ],
    )
    def test_unwritable_output_is_an_io_error(self, capsys, tmp_path, noisy_or_file, argv):
        missing = tmp_path / "no-such-dir"
        argv = [a.format(missing=missing, net=noisy_or_file) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "io-error"
        assert "no-such-dir" in payload["message"]

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_bench_output_is_checked_before_the_grid(
        self, capsys, monkeypatch, tmp_path, noisy_or_file, flag
    ):
        def never(*args, **kwargs):
            raise AssertionError("the grid ran before the output was checked")

        monkeypatch.setattr(cli, "run_benchmark", never)
        target = str(tmp_path / "no-such-dir" / "report")
        code, out, err = run(capsys, "bench", noisy_or_file, flag, target)
        assert code == 1
        assert json.loads(err)["error"] == "io-error"

    def test_bench_out_and_csv_on_one_file_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, noisy_or_file
    ):
        def never(*args, **kwargs):
            raise AssertionError("the grid ran with both outputs on one file")

        monkeypatch.setattr(cli, "run_benchmark", never)
        (tmp_path / "sub").mkdir()
        report = tmp_path / "report"
        report.write_bytes(b"earlier report\n")
        same = tmp_path / "sub" / ".." / "report"
        code, out, err = run(
            capsys, "bench", noisy_or_file, "--out", str(report), "--csv", str(same)
        )
        assert code == 2
        assert json.loads(err)["error"] == "usage"
        assert report.read_bytes() == b"earlier report\n"

    def test_failed_run_keeps_an_existing_report(
        self, capsys, monkeypatch, tmp_path, noisy_or_file
    ):
        def disagree(*args, **kwargs):
            raise AgreementError("E", 1.0)

        monkeypatch.setattr(cli, "run_benchmark", disagree)
        report, cells = tmp_path / "report.json", tmp_path / "cells.csv"
        report.write_text("earlier report\n")
        code, out, err = run(
            capsys, "bench", noisy_or_file, "--out", str(report), "--csv", str(cells)
        )
        assert code == 1
        assert json.loads(err)["error"] == "agreement-error"
        assert report.read_text() == "earlier report\n"
        assert not cells.exists()

    def test_closed_stdout_is_an_io_error(self, capsys, tmp_path):
        # The expand report of this network (about 290 KB) outgrows a pipe's
        # buffer, so the write meets the closed pipe.
        net = str(tmp_path / "net.json")
        gen = ["gen", "--seed", "1", "--diseases", "200", "--findings", "400"]
        assert run(capsys, *gen, "--max-parents", "5", "-o", net)[0] == 0
        src = str(Path(noisymax.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, "-m", "noisymax", "expand", net],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "io-error"


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

    def test_refused_expansion_is_recorded_as_aborted(self, capsys, tmp_path):
        path, report = tmp_path / "wide.json", tmp_path / "report.json"
        path.write_text(serialize_network(wide_noisy_or_network(20)))
        code, out, err = run(
            capsys,
            "bench", str(path),
            "--strategies", "parent-divorcing,multiplicative",
            "--out", str(report),
        )
        assert code == 0
        assert err == ""
        doc = json.loads(report.read_text())
        assert doc["totals"]["parent-divorcing"]["completed"] == 3
        assert doc["histograms"]["multiplicative"] == {"aborted": 3}
        assert {c["reason"] for c in doc["cells"] if c["status"] == "aborted"} == {
            "selector would hold 20*2^19 entries"
        }

    def test_guard_default_then_flag(self, capsys, tmp_path):
        path, report = tmp_path / "net.json", tmp_path / "report.json"
        path.write_text(serialize_network(single_effect_network(6)))
        argv = ["bench", str(path), "--strategies", "trivial", "--out", str(report)]
        assert run(capsys, *argv)[0] == 0
        assert {c["status"] for c in json.loads(report.read_text())["cells"]} == {"ok"}
        assert run(capsys, *argv, "--guard-mults", "5")[0] == 0
        cells = {c["query"]: c for c in json.loads(report.read_text())["cells"]}
        assert cells["e"]["status"] == "aborted"
        assert cells["e"]["reason"] == "8 multiplications exceed the guard"

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
            assert code == 2, argv
            assert out == ""
            assert json.loads(err)["error"] == "usage", argv

    def test_repeated_strategy_is_a_usage_error(self, capsys, noisy_or_file):
        for argv in (
            ["bench", noisy_or_file, "--strategies", "trivial,trivial"],
            ["expand", noisy_or_file, "--strategy", "multiplicative, multiplicative"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            payload = json.loads(err)
            assert payload["error"] == "usage", argv
            assert "twice" in payload["message"]

    def test_nonpositive_guard_is_a_usage_error(self, capsys, noisy_or_file):
        for raw in ("0", "-1", "abc", ""):
            payload = argparse_usage_error(capsys, "bench", noisy_or_file, "--guard-mults", raw)
            assert "--guard-mults" in payload["message"]

    def test_usage_error_exits_nonzero(self, capsys, noisy_or_file, tmp_path):
        for argv in (
            ["infer", noisy_or_file],  # --target is required
            ["infer", noisy_or_file, "--target", "E", "--strategy", "bogus"],
            # Only infer and bench take a guard.
            ["validate", noisy_or_file, "--guard-mults", "5"],
            ["expand", noisy_or_file, "--guard-mults", "5"],
            ["gen", "--seed", "1", "-o", str(tmp_path / "net.json"), "--guard-mults", "5"],
        ):
            assert argparse_usage_error(capsys, *argv)["message"]

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


class TestOutputPins:
    """The bytes of ``expand`` and of the ``bench`` report on two generated
    networks, so a refactor that moves any count, ordering, answer or
    message fails here."""

    @pytest.mark.parametrize(
        "gen_args, expand_digest, bench_digest",
        [
            (
                ["--kind", "bn2o", "--seed", "11", "--domain-size", "3"],
                "290f8425ea0367129df207f7195cc4c5c24c245cb38084a4c89fc23cecca69f7",
                "2aa149f451588dc129d75792942869252c51b9888a14e3c6bbe097e4b4816eea",
            ),
            (
                ["--kind", "multilevel", "--seed", "12"],
                "e969a73b133dff10ab605f9eeefda355a850a01bb2654a49d5dbd188be3e7d5c",
                "8787736fb137d4385627a4f4f05588c48399183abdc5dd7668b5e6e3db08ad48",
            ),
        ],
        ids=["bn2o-seed11-m3", "multilevel-seed12"],
    )
    def test_expand_and_bench_bytes(
        self, capsys, tmp_path, gen_args, expand_digest, bench_digest
    ):
        net, report = str(tmp_path / "net.json"), str(tmp_path / "report.json")
        assert run(capsys, "gen", *gen_args, "-o", net)[0] == 0
        code, out, err = run(capsys, "expand", net)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expand_digest
        assert run(capsys, "bench", net, "--out", report)[0] == 0
        doc = json.loads(Path(report).read_text())
        del doc["cell_times_ms"]
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == bench_digest

    @pytest.mark.parametrize(
        "gen_args, report_digest, csv_digest",
        [
            (
                ["--kind", "bn2o", "--seed", "11", "--domain-size", "3"],
                "724cdc8fc223eaaa9163e359502bf33f2c139a7722cd0fe5087bca5164ea43a2",
                "13d674a914dc554c28442bc31e87a46878d2983bb95ee1129acbd2b0769b2a89",
            ),
            (
                ["--kind", "multilevel", "--seed", "12"],
                "d96f7881a9dec36e4a8a115d9f41860bce62b05b5f8774e718f4bf73ffeb6a99",
                "20277d8a30b645be801b5458c47722a3c2317aec0117fce4b18b56291b7eaad7",
            ),
        ],
        ids=["bn2o-seed11-m3", "multilevel-seed12"],
    )
    def test_bench_key_order_and_csv_rows(
        self, capsys, tmp_path, gen_args, report_digest, csv_digest
    ):
        net, report, rows = (str(tmp_path / name) for name in ("net.json", "r.json", "r.csv"))
        assert run(capsys, "gen", *gen_args, "-o", net)[0] == 0
        assert run(capsys, "bench", net, "--out", report, "--csv", rows)[0] == 0
        doc = json.loads(Path(report).read_text())
        del doc["cell_times_ms"]
        text = json.dumps(doc, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == report_digest
        with open(rows, newline="") as f:
            text = "\n".join(",".join(r[:4] + r[5:]) for r in csv.reader(f))
        assert hashlib.sha256(text.encode()).hexdigest() == csv_digest

    @pytest.mark.parametrize(
        "gen_args, query_args, expected",
        [
            (
                ["--kind", "bn2o", "--seed", "11", "--domain-size", "3"],
                ["--target", "d0", "--evidence", "f0=l2", "--evidence", "f1=l0"],
                ["d0|f0=l2,f1=l0", "multiplicative", 34, 4, 6, 6],
            ),
            (
                ["--kind", "bn2o", "--seed", "11", "--domain-size", "3"],
                ["--target", "d0", "--evidence", "f0=l2", "--evidence", "f1=l0",
                 "--strategy", "parent-divorcing"],
                ["d0|f0=l2,f1=l0", "parent-divorcing", 38, 9, 6, 6],
            ),
            (
                ["--kind", "multilevel", "--seed", "12"],
                ["--target", "d1", "--target", "d2", "--evidence", "f9=l1"],
                ["d1,d2|f9=l1", "multiplicative", 108, 8, 10, 0],
            ),
        ],
        ids=["bn2o-multiplicative", "bn2o-parent-divorcing", "multilevel-two-targets"],
    )
    def test_infer_stats_items(
        self, capsys, tmp_path, gen_args, query_args, expected
    ):
        net = str(tmp_path / "net.json")
        assert run(capsys, "gen", *gen_args, "-o", net)[0] == 0
        code, out, err = run(capsys, "infer", net, *query_args, "--stats")
        assert code == 0
        stats = json.loads(out)["stats"]
        del stats["wall_time_ms"]
        keys = ["query", "strategy", "multiplications", "peak_table_entries",
                "relevant_vars", "pruned_states"]
        assert list(stats.items()) == list(zip(keys, expected))
