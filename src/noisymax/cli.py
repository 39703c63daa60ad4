"""Command-line interface: validate, expand, infer, gen, bench."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path

from .bench import AgreementError, GeneratorSpec, generate, query_label, run_benchmark
from .factorize import Strategy, expand
from .infer import DEFAULT_GUARD_MULTS, InferenceError, Query, query_posterior
from .model import GuardExceededError, Network, NetworkError, parse_network, serialize_network

STRATEGY_NAMES = [s.value for s in Strategy]


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a JSON ``usage`` error with exit code 2, the
    code ``main`` also gives every other ``usage`` error."""

    def error(self, message):
        self.exit(2, json.dumps({"error": "usage", "message": message}) + "\n")


def _load(path: str) -> Network:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("io-error", str(exc)) from None
    return parse_network(text)


def _write(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError("io-error", str(exc)) from None


def _check_writable(path: str):
    """Raise ``io-error`` now if ``path`` cannot be written, without
    truncating an existing file or leaving a new one behind."""
    target = Path(path)
    existed = target.exists()
    try:
        with target.open("a"):
            pass
        if not existed:
            target.unlink()
    except OSError as exc:
        raise CliError("io-error", str(exc)) from None


def _emit(doc: dict):
    print(json.dumps(doc, indent=2))


def _guard_mults(raw: str) -> int:
    """``--guard-mults``: a positive decimal integer, else a ``usage`` error."""
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return int(raw)


def _parse_strategies(raw: str) -> list[Strategy]:
    if raw == "all":
        return list(Strategy)
    try:
        strategies = [Strategy(name.strip()) for name in raw.split(",") if name.strip()]
    except ValueError as exc:
        raise CliError("unknown-strategy", str(exc)) from None
    if not strategies:
        raise CliError("usage", f"no strategy named in {raw!r}")
    if len(set(strategies)) != len(strategies):
        raise CliError("usage", f"a strategy is named twice in {raw!r}")
    return strategies


def cmd_validate(args) -> int:
    net = _load(args.file)
    _emit({"ok": True, "variables": len(net.variables), "nodes": len(net.nodes)})
    return 0


def cmd_expand(args) -> int:
    net = _load(args.file)
    reports = []
    for strategy in _parse_strategies(args.strategy):
        _, report = expand(net, strategy)
        reports.append(report.to_json())
    _emit({"reports": reports})
    return 0


def cmd_infer(args) -> int:
    net = _load(args.file)
    names = net.names
    try:
        targets = tuple(names[t] for t in args.target)
    except KeyError as exc:
        raise CliError("unknown-variable", f"unknown target variable {exc.args[0]!r}") from None
    evidence = {}
    for item in args.evidence or []:
        if "=" not in item:
            raise CliError("usage", f"evidence must look like VAR=state, got {item!r}")
        var_name, state_name = item.split("=", 1)
        if var_name not in names:
            raise CliError("unknown-variable", f"unknown evidence variable {var_name!r}")
        var = net.variables[names[var_name]]
        if state_name not in var.domain:
            raise CliError(
                "unknown-state", f"variable {var_name!r} has no state {state_name!r}"
            )
        if var.id in evidence:
            raise CliError("usage", f"evidence variable {var_name!r} is given twice")
        evidence[var.id] = var.domain.index(state_name)
    try:
        query = Query(targets, evidence)
    except ValueError as exc:
        raise CliError("usage", str(exc)) from None

    strategy = Strategy(args.strategy)
    expanded, _ = expand(net, strategy)
    start = time.perf_counter()
    posterior, stats = query_posterior(expanded, query, max_multiplications=args.guard_mults)
    wall_time_ms = (time.perf_counter() - start) * 1000.0

    if len(targets) == 1:
        domain = net.variables[targets[0]].domain
        result = {state: float(p) for state, p in zip(domain, posterior.values)}
    else:
        domains = [net.variables[t].domain for t in targets]
        result = []
        for assignment, p in zip(itertools.product(*domains), posterior.values.ravel()):
            result.append({"assignment": list(assignment), "probability": float(p)})
    doc = {"targets": [net.variables[t].name for t in targets], "posterior": result}
    if args.stats:
        doc["stats"] = {
            "query": query_label(net, query),
            "strategy": strategy.value,
            **stats.counts(),
            "wall_time_ms": wall_time_ms,
        }
    _emit(doc)
    return 0


def cmd_gen(args) -> int:
    try:
        spec = GeneratorSpec(
            kind=args.kind,
            seed=args.seed,
            diseases=args.diseases,
            findings=args.findings,
            max_parents=args.max_parents,
            effect_domain_size=args.domain_size,
            link_density=args.density,
        )
    except ValueError as exc:
        raise CliError("invalid-spec", str(exc)) from None
    net = generate(spec)
    _write(args.out, serialize_network(net))
    _emit({"written": args.out, "variables": len(net.variables)})
    return 0


def cmd_bench(args) -> int:
    if args.out and args.csv and Path(args.out).resolve() == Path(args.csv).resolve():
        raise CliError("usage", f"--out and --csv name the same file {args.out!r}")
    net = _load(args.file)
    strategies = _parse_strategies(args.strategies)
    for path in (args.out, args.csv):
        if path:
            _check_writable(path)
    report = run_benchmark(net, strategies, guard_mults=args.guard_mults)
    if args.out:
        _write(args.out, json.dumps(report.to_json(), indent=2) + "\n")
    if args.csv:
        _write(args.csv, report.to_csv())
    _emit(
        {
            "queries": report.query_count,
            "cells": len(report.cells),
            "out": args.out,
            "csv": args.csv,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noisymax",
        description="Exact inference over networks with factored noisy-max nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    guard_mults = dict(type=_guard_mults, default=DEFAULT_GUARD_MULTS, metavar="N")

    p = sub.add_parser("validate", help="parse and validate a network file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("expand", help="expand noisy-max nodes and report sizes")
    p.add_argument("file")
    p.add_argument("--strategy", default="all", help=f"one of {STRATEGY_NAMES} or 'all'")
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("infer", help="answer a posterior query")
    p.add_argument("file")
    p.add_argument("--target", action="append", required=True, help="target variable name")
    p.add_argument("--evidence", action="append", metavar="VAR=state")
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default=Strategy.MULTIPLICATIVE.value)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--guard-mults", **guard_mults)
    p.set_defaults(handler=cmd_infer)

    p = sub.add_parser("gen", help="generate a synthetic network")
    p.add_argument("--kind", choices=["bn2o", "multilevel"], default="bn2o")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--diseases", type=int, default=10)
    p.add_argument("--findings", type=int, default=10)
    p.add_argument("--max-parents", type=int, default=3)
    p.add_argument("--domain-size", type=int, default=2)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("bench", help="run the benchmark grid on a network file")
    p.add_argument("file")
    p.add_argument("--strategies", default="all")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--guard-mults", **guard_mults)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError as exc:
        # The reader closed stdout: send what is still buffered to devnull,
        # so that the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        doc = {"error": "io-error", "message": f"standard output closed: {exc}"}
    except (NetworkError, CliError, InferenceError, GuardExceededError, AgreementError) as exc:
        doc = {"error": exc.code, "message": str(exc)}
        if isinstance(exc, AgreementError):
            doc.update(query=exc.query, deviation=exc.deviation)
    except ValueError as exc:
        doc = {"error": "inference-error", "message": str(exc)}
    print(json.dumps(doc), file=sys.stderr)
    return 2 if doc["error"] == "usage" else 1


if __name__ == "__main__":
    sys.exit(main())
