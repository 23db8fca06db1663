"""Command-line front end.

Subcommands: analyze, safety, verify, figure, examples.  Reports are
human-first text by default; `--format json` switches to the machine
contract, which is byte-reproducible for a fixed config and seed (wall
times therefore go to stderr, never into JSON).  Exit codes: 0 success,
1 assertion/claim failure, 2 parse or usage error (a malformed file, a
profile and a rule over different alternatives, or an argument or
SAFEVOTE_BUDGET out of range or naming no order of the domain), 3
inconclusive scans.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from safevote.core import Domain, LinearOrder, ParseError, SafevoteError, all_orders, parse_profile, voters_of_type
from safevote.fixtures import FIXTURES
from safevote.geometry import figure_spec, render_svg
from safevote.rules import DEFAULT_ENUMERATION_BOUND, ScoringRule, parse_rule, random_table_rule, scores
from safevote.strategy import (  # noqa: F401 - bench/test_bench.py reads cli.has_incentive
    InconclusiveError,
    NoIncentiveError,
    SafetyStatus,
    classify_safety,
    find_escapes,
    has_incentive,
    incentives,
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


def _default_budget() -> int:
    raw = os.environ.get("SAFEVOTE_BUDGET")
    if raw is None:
        return DEFAULT_ENUMERATION_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"SAFEVOTE_BUDGET must be an integer, got {raw!r}") from None
    if value <= 0:
        raise UsageError(f"SAFEVOTE_BUDGET must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safevote", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, profile=False, rule=False, report=True) -> None:
        if profile:
            p.add_argument("--profile", required=True, help="profile text file")
        if rule:
            p.add_argument("--rule", required=True, help="rule config file")
        if report:
            p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("analyze", help="winner, scores, incentives, escapes")
    common(p, profile=True, rule=True)

    p = sub.add_parser("safety", help="classify one strategic vote")
    common(p, profile=True, rule=True)
    p.add_argument("--type", required=True, dest="type_order", help="sincere order, e.g. 'A>B>C' or 'ABC'")
    p.add_argument("--strategic", required=True, help="strategic order")

    p = sub.add_parser("verify", help="sampled theorem-verification campaign")
    common(p)
    p.add_argument("--n", type=int, default=2, help="voters per sampled table rule")
    p.add_argument("--m", type=int, default=3, help="alternatives per sampled table rule")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="profile-scan cap per search")

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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load(args):
    with open(args.profile, encoding="utf-8") as fh:
        profile = parse_profile(fh.read())
    with open(args.rule, encoding="utf-8") as fh:
        rule = parse_rule(fh.read(), base_dir=os.path.dirname(os.path.abspath(args.rule)))
    if profile.domain != rule.domain:
        raise UsageError(f"profile over {profile.domain.labels} does not match rule over {rule.domain.labels}")
    return profile, rule


def _incentive_summary(rule, profile):
    """Per-type summary of which strategic orders carry an incentive."""
    summary = []
    orders = all_orders(profile.domain)
    for type_order in profile.types_present():
        found = {w.strategic_order for w in incentives(rule, profile, type_order, orders)}
        summary.append(
            {
                "type": type_order.compact,
                "count": len(voters_of_type(profile, type_order)),
                "incentives": [o.compact for o in orders if o in found],
            }
        )
    return summary


def cmd_analyze(args) -> int:
    profile, rule = _load(args)
    winner = rule.evaluate(profile)
    report = {
        "winner": winner.label,
        "rule_fingerprint": rule.fingerprint(),
        "types": _incentive_summary(rule, profile),
        "escapes": [c.to_json_dict() for c in find_escapes(rule, profile)],
    }
    if isinstance(rule, ScoringRule):
        report["scores"] = {a.label: str(s) for a, s in scores(rule, profile).items()}
    if args.format == "json":
        _emit(_json_dumps(report), args.out)
    else:
        lines = [f"winner: {winner.label}"]
        if "scores" in report:
            lines.append("scores: " + "  ".join(f"{k}={v}" for k, v in sorted(report["scores"].items())))
        for entry in report["types"]:
            inc = ", ".join(entry["incentives"]) if entry["incentives"] else "none"
            lines.append(f"type {entry['type']} x{entry['count']}: incentives {inc}")
        lines.append(f"escapes: {len(report['escapes'])}")
        for esc in report["escapes"]:
            lines.append(f"  voter {esc['voter']} can escape via {esc['strategic_order']}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_safety(args) -> int:
    profile, rule = _load(args)
    type_order = _order(args.type_order, profile.domain, "--type")
    strategic = _order(args.strategic, profile.domain, "--strategic")
    if strategic == type_order:
        raise UsageError("--strategic must differ from --type")
    members = voters_of_type(profile, type_order)
    if not members:
        raise SafevoteError(f"type {type_order.compact} not present in the profile")
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
    if args.format == "json":
        _emit(_json_dumps(report), args.out)
    else:
        lines = [f"type {report['type']} voting {report['strategic_order']}: {report['status']}"]
        if "kind" in report:
            lines.append(f"kind: {report['kind']}")
            lines.append(f"bad coalition (1-based): {report['witness_bad']}")
        if "thresholds" in report:
            lines.append("switchers -> winner:")
            for k in sorted(report["thresholds"], key=int):
                lines.append(f"  {k}: {report['thresholds'][k]}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    # The theorems need m >= 3; a campaign outside their hypothesis would
    # report failures of claims that need not hold.
    minimums = (("--n", args.n, 1), ("--m", args.m, 3), ("--samples", args.samples, 0), ("--budget", budget, 1))
    for flag, value, least in minimums:
        if value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    master = random.Random(args.seed)
    rule_seeds = [master.getrandbits(63) for _ in range(args.samples)]
    results = []
    failures = 0
    inconclusive = 0
    start = time.monotonic()
    for rule_seed in rule_seeds:
        rule = random_table_rule(args.n, args.m, rule_seed)
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
        "n": args.n,
        "m": args.m,
        "samples": args.samples,
        "seed": args.seed,
        "budget": budget,
        "failures": failures,
        "inconclusive": inconclusive,
        "rules": results,
    }
    if args.format == "json":
        _emit(_json_dumps(report), args.out)
    else:
        lines = [
            f"samples: {args.samples} (n={args.n}, m={args.m}, seed={args.seed})",
            f"failures: {failures}",
            f"inconclusive: {inconclusive}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    print(f"campaign wall-time: {elapsed:.2f}s", file=sys.stderr)
    if failures:
        return EXIT_FAILURE
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_figure(args) -> int:
    profile, rule = _load(args)
    if not isinstance(rule, ScoringRule):
        raise SafevoteError("figures are defined for scoring rules")
    moves = []
    for raw in args.trajectory:
        parts = raw.split(":")
        if len(parts) != 3 or not parts[2].isdecimal():
            raise UsageError(f"bad trajectory spec {raw!r}; expected TYPE:STRATEGIC:KMAX, KMAX >= 0")
        type_order, strategic = (_order(part, profile.domain, "--trajectory") for part in parts[:2])
        if strategic == type_order:
            raise UsageError(f"bad trajectory spec {raw!r}; STRATEGIC must differ from TYPE")
        moves.append((type_order, strategic, int(parts[2])))
    svg = render_svg(figure_spec(rule, profile, moves))
    _emit(svg, args.out)
    return EXIT_OK


def cmd_examples(args) -> int:
    all_passed = True
    payload = []
    lines = []
    for fixture in FIXTURES:
        results = fixture.results()
        passed = all(r.passed for r in results)
        all_passed = all_passed and passed
        payload.append(
            {
                "fixture": fixture.name,
                "passed": passed,
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
                ],
                "notes": list(fixture.notes),
            }
        )
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {fixture.name}")
        for r in results:
            mark = "ok" if r.passed else "FAIL"
            lines.append(f"    {mark}: {r.name}" + ("" if r.passed else f"  ({r.detail})"))
        for note in fixture.notes:
            lines.append(f"    note: {note}")
    summary = f"{sum(1 for p in payload if p['passed'])}/{len(payload)} fixtures pass"
    lines.append(summary)
    if args.format == "json":
        _emit(_json_dumps({"fixtures": payload, "summary": summary}), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_passed else EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "safety": cmd_safety,
        "verify": cmd_verify,
        "figure": cmd_figure,
        "examples": cmd_examples,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SafevoteError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
