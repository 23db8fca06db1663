"""Command-line front end.

Subcommands: analyze, safety, verify, figure, examples.  Reports are
human-first text by default; `--format json` switches to the machine
contract, which is byte-reproducible for a fixed config and seed (wall
times therefore go to stderr, never into JSON).  Exit codes: 0 success,
1 assertion/claim failure, 2 parse or usage error (a malformed file, a
profile and a rule over different alternatives or, for a table rule, a
different voter count, or an argument out of range, not an integer or
naming no order of the domain), 3 inconclusive scans.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import time

from safevote.core import (
    MAX_ALTERNATIVES, Domain, DomainMismatchError, LinearOrder, ParseError, SafevoteError, _integer, format_json,
    parse_profile, read_text, voters_of_present_type, voters_of_type,
)
from safevote.fixtures import FIXTURES
from safevote.geometry import figure_spec, render_svg
from safevote.rules import DEFAULT_ENUMERATION_BOUND, ScoringRule, enumerable_size, parse_rule, random_table_rule
from safevote.strategy import (  # noqa: F401 - bench/test_bench.py reads cli.has_incentive
    InconclusiveError,
    NoIncentiveError,
    SafetyStatus,
    analyze,
    classify_safety,
    has_incentive,
    threshold_scan,
    verify_certificate,
    verify_gs,
    verify_safe_pivotal,
    verify_safely_manipulable,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3


class UsageError(SafevoteError):
    """A command-line argument is malformed, out of range, or names no order of the domain."""


def _order(text: str, domain: Domain, flag: str) -> LinearOrder:
    try:
        return LinearOrder.from_string(text, domain)
    except (SafevoteError, ValueError) as exc:
        raise UsageError(f"{flag} {text!r}: {exc}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safevote", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # what `_parse` dispatches on

    def common(p: argparse.ArgumentParser, *, profile=False, rule=False, report=True) -> None:
        if profile:
            p.add_argument("--profile", required=True, help="profile text file")
        if rule:
            p.add_argument("--rule", required=True, help="rule config file")
        if report:
            p.add_argument("--format", choices=("json", "text"), default="text")
        else:
            p.set_defaults(format="text")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("analyze", help="winner, scores, incentives, escapes")
    common(p, profile=True, rule=True)

    p = sub.add_parser("safety", help="classify one strategic vote")
    common(p, profile=True, rule=True)
    p.add_argument("--type", required=True, dest="type_order", help="sincere order, e.g. 'A>B>C' or 'ABC'")
    p.add_argument("--strategic", required=True, help="strategic order")

    p = sub.add_parser("verify", help="sampled theorem-verification campaign")
    common(p)
    # Integers are read as a file's are, by `_integer`, not by `int`.
    p.add_argument("--n", default="2", help="voters per sampled table rule")
    p.add_argument("--m", default="3", help="alternatives per sampled table rule")
    p.add_argument("--samples", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--budget", default=str(DEFAULT_ENUMERATION_BOUND), help="profile-scan cap per search")

    p = sub.add_parser("figure", help="render the barycentric score figure as SVG")
    common(p, profile=True, rule=True, report=False)
    p.add_argument(
        "--trajectory",
        action="append",
        default=[],
        metavar="TYPE:STRATEGIC:KMAX",
        help="arrow spec, e.g. 'ABC:ACB:17'; repeatable",
    )

    p = sub.add_parser("examples", help="run the bundled fixtures")
    common(p)
    return parser


def _load(args):
    profile = parse_profile(read_text(args.profile))
    rule = parse_rule(read_text(args.rule), base_dir=os.path.dirname(os.path.abspath(args.rule)))
    try:
        rule.check_profile(profile)
    except DomainMismatchError as exc:
        raise UsageError(str(exc)) from None
    return profile, rule


def cmd_analyze(args):
    profile, rule = _load(args)
    analysis = analyze(rule, profile)
    report = {
        "winner": analysis.winner.label,
        "rule_fingerprint": rule.fingerprint(),
        "types": [
            {"type": t.type_order.compact, "count": t.count, "incentives": [o.compact for o in t.strategic_orders]}
            for t in analysis.types
        ],
        "escapes": [c.to_json_dict() for c in analysis.escapes],
    }
    if isinstance(rule, ScoringRule):
        report["scores"] = {a.label: str(s) for a, s in rule.scores(profile).items()}
    return EXIT_OK, report, _analyze_text(report)


def _analyze_text(report):
    yield f"winner: {report['winner']}"
    if "scores" in report:
        yield "scores: " + "  ".join(f"{k}={v}" for k, v in sorted(report["scores"].items()))
    for entry in report["types"]:
        yield f"type {entry['type']} x{entry['count']}: incentives {', '.join(entry['incentives']) or 'none'}"
    yield f"escapes: {len(report['escapes'])}"
    for esc in report["escapes"]:
        yield f"  voter {esc['voter']} can escape via {esc['strategic_order']}"


def cmd_safety(args):
    profile, rule = _load(args)
    type_order = _order(args.type_order, profile.domain, "--type")
    strategic = _order(args.strategic, profile.domain, "--strategic")
    if strategic == type_order:
        raise UsageError("--strategic must differ from --type")
    members = voters_of_present_type(profile, type_order)
    report: dict = {
        "type": type_order.compact,
        "strategic_order": str(strategic),
        "rule_fingerprint": rule.fingerprint(),
    }
    try:
        verdict = classify_safety(rule, profile, min(members), strategic)
    except NoIncentiveError:
        report["status"] = "no incentive"
    else:
        report["status"] = verdict.status.value
        if verdict.status == SafetyStatus.UNSAFE:
            report["kind"] = verdict.kind.value if verdict.kind else None
            report["witness_bad"] = sorted(v + 1 for v in verdict.witness_bad or ())
            if verdict.good is not None and verdict.bad is not None:
                report["good"] = sorted(v + 1 for v in verdict.good)
                report["bad"] = sorted(v + 1 for v in verdict.bad)
        report["witness_coalition"] = sorted(v + 1 for v in verdict.incentive.coalition)
    if rule.anonymous:
        table = threshold_scan(rule, profile, type_order, strategic)
        report["thresholds"] = {str(k): alt.label for k, alt in table.items()}
    return EXIT_OK, report, _safety_text(report)


def _safety_text(report):
    yield f"type {report['type']} voting {report['strategic_order']}: {report['status']}"
    if "kind" in report:
        yield f"kind: {report['kind']}"
        yield f"bad coalition (1-based): {report['witness_bad']}"
    if "thresholds" in report:
        yield "switchers -> winner:"
        for k in sorted(report["thresholds"], key=int):
            yield f"  {k}: {report['thresholds'][k]}"


def cmd_verify(args):
    n, m, samples, seed, budget = (
        _integer(getattr(args, flag), None, f"--{flag} must be an integer, got {{!r}}")
        for flag in ("n", "m", "samples", "seed", "budget")
    )
    # The theorems need m >= 3; a campaign outside their hypothesis would
    # report failures of claims that need not hold.
    for flag, value, least in (("--n", n, 1), ("--m", m, 3), ("--samples", samples, 0), ("--budget", budget, 1)):
        if value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    if m > MAX_ALTERNATIVES:
        raise UsageError(f"--m must be at most {MAX_ALTERNATIVES}, got {m}")
    try:
        enumerable_size(m, n)
    except SafevoteError as exc:  # the profile space passes the enumeration bound
        raise UsageError(str(exc)) from None
    master = random.Random(seed)
    rule_seeds = [master.getrandbits(63) for _ in range(samples)]
    results = []
    failures = 0
    inconclusive = 0
    start = time.monotonic()
    for rule_seed in rule_seeds:
        rule = random_table_rule(n, m, rule_seed)
        entry = {"seed": rule_seed, "fingerprint": rule.fingerprint()}
        for claim, search in (
            ("gs", verify_gs),
            ("safely_manipulable", verify_safely_manipulable),
            ("safe_pivotal", verify_safe_pivotal),
        ):
            try:
                certificate = search(rule, budget=budget)
            except InconclusiveError:
                entry[claim] = "inconclusive"
                inconclusive += 1
                continue
            if certificate is None or not verify_certificate(rule, certificate):
                entry[claim] = "failure"
                failures += 1
            else:
                entry[claim] = "certificate"
        results.append(entry)
    elapsed = time.monotonic() - start
    report = {
        "n": n,
        "m": m,
        "samples": samples,
        "seed": seed,
        "budget": budget,
        "failures": failures,
        "inconclusive": inconclusive,
        "rules": results,
    }
    print(f"campaign wall-time: {elapsed:.2f}s", file=sys.stderr)
    code = EXIT_FAILURE if failures else EXIT_INCONCLUSIVE if inconclusive else EXIT_OK
    return code, report, _verify_text(report)


def _verify_text(report):
    yield f"samples: {report['samples']} (n={report['n']}, m={report['m']}, seed={report['seed']})"
    yield f"failures: {report['failures']}"
    yield f"inconclusive: {report['inconclusive']}"


def cmd_figure(args):
    profile, rule = _load(args)
    if not isinstance(rule, ScoringRule):
        raise SafevoteError("figures are defined for scoring rules")
    moves = []
    for raw in args.trajectory:
        parts = raw.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad trajectory spec {raw!r}; expected TYPE:STRATEGIC:KMAX")
        k_max = _integer(parts[2], None, "--trajectory KMAX must be an integer, got {!r}")
        type_order, strategic = (_order(part, profile.domain, "--trajectory") for part in parts[:2])
        if strategic == type_order:
            raise UsageError(f"bad trajectory spec {raw!r}; STRATEGIC must differ from TYPE")
        count = len(voters_of_type(profile, type_order))
        # A type with no voters has no trajectory at all: `trajectory` fails it.
        if k_max < 0 or count and k_max > count:
            raise UsageError(f"bad trajectory spec {raw!r}; KMAX {k_max} is outside 0..{count}, the TYPE count")
        moves.append((type_order, strategic, k_max))
    return EXIT_OK, None, render_svg(figure_spec(rule, profile, moves)).splitlines()


def cmd_examples(args):
    payload = []
    for fixture in FIXTURES:
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in fixture.results()]
        passed = all(check["passed"] for check in checks)
        payload.append({"fixture": fixture.name, "passed": passed, "checks": checks, "notes": list(fixture.notes)})
    passes = sum(fixture["passed"] for fixture in payload)
    report = {"fixtures": payload, "summary": f"{passes}/{len(payload)} fixtures pass"}
    return (EXIT_OK if passes == len(payload) else EXIT_FAILURE), report, _examples_text(report)


def _examples_text(report):
    for fixture in report["fixtures"]:
        yield f"[{'PASS' if fixture['passed'] else 'FAIL'}] {fixture['fixture']}"
        for check in fixture["checks"]:
            yield f"    ok: {check['name']}" if check["passed"] else f"    FAIL: {check['name']}  ({check['detail']})"
        for note in fixture["notes"]:
            yield f"    note: {note}"
    yield report["summary"]


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)`, without the top-level pass when
    argv[0] names a subcommand.

    That pass only picks the subcommand; argparse then parses the rest with
    the subcommand's parser and sets `command`, as here.  Every other argv,
    and a subcommand's arguments that leave extras, go to the full parser,
    so every usage message, help text and exit code is argparse's own.
    """
    parser = _build_parser()
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is not None:
        args, extras = subparser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; `--help` prints the module docstring.

    Each `cmd_*` returns (exit code, report, text lines); `main` alone writes
    the JSON report or the text lines to `--out` or stdout, and text lines are
    built only for `--format text`.  `main` is reentrant: it builds its
    argument parser once per process and keeps no state between calls.  It
    hands `<subcommand> ...` straight to that subcommand's parser and sends
    every other argv, and a subcommand's that leaves unrecognized arguments,
    to the full parser (`_parse`).  `analyze` scores each strategic vote
    once; one incentive walk per type gives both its summary and its escape.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # Looked up at each call: a patched module binding takes effect.
        code, report, text = globals()[f"cmd_{args.command}"](args)
        output = format_json(report) + "\n" if args.format == "json" else "".join(f"{line}\n" for line in text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        else:
            sys.stdout.write(output)
        return code
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SafevoteError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
