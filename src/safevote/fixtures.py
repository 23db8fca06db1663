"""Bundled reference elections used as regression fixtures.

Each fixture pins a profile, a rule (including the tie-break order, which
the sources leave open; the chosen orders are validated by the threshold
scans below), and a list of documented assertions.  Fixture 4 ships with
a corrected third preference type: the printed order EBCAD is inconsistent
with the printed totals, which require E > B > C > D > A; the scoring
oracle in the test suite confirms the correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from safevote.core import Domain, LinearOrder, Profile, all_orders, switch_votes, voters_of_type
from safevote.rules import Rule, ScoringRule, borda, k_approval, plurality
from safevote.strategy import (
    SafetyStatus,
    UnsafeKind,
    _pivotal_moves,
    classify_safety,
    safety_verdicts,
    threshold_scan,
)

EXAMPLE_4_ERRATUM = (
    "third type corrected from EBCAD to E > B > C > D > A: the printed totals "
    "(A=59, D=30) require the corrected order, while EBCAD would give A=73, D=16"
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    rule: Rule
    profile: Profile
    run: Callable[["Fixture"], list[CheckResult]]
    notes: tuple[str, ...] = ()

    def results(self) -> list[CheckResult]:
        return self.run(self)


def _order(labels: str, domain: Domain) -> LinearOrder:
    return LinearOrder.from_labels(labels, domain)


def _ballots_profile(domain: Domain, ballots: str) -> Profile:
    """One voter per space-separated order, in order: "ABC BAC" is voters 1 and 2."""
    return Profile(tuple(_order(labels, domain) for labels in ballots.split()))


def _counts_profile(domain: Domain, counts: dict[str, int]) -> Profile:
    return Profile.from_counts([(_order(labels, domain), c) for labels, c in counts.items()])


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _winner_check(name: str, rule: Rule, profile: Profile, expected: str, *switches: tuple[int, str]) -> CheckResult:
    """The winner once each (0-based voter, order labels) switch is made, in turn."""
    for voter, labels in switches:
        profile = switch_votes(profile, frozenset({voter}), _order(labels, profile.domain))
    got = rule.evaluate(profile).label
    return _check(name, got == expected, f"expected {expected}, got {got}")


def _verdict_check(
    name: str, rule: Rule, profile: Profile, type_labels: str, strategic_labels: str, kind: UnsafeKind | None = None
) -> CheckResult:
    """The vote of the type's first voter is Safe, or Unsafe of `kind` when one is given."""
    domain = profile.domain
    voter = min(voters_of_type(profile, _order(type_labels, domain)))
    verdict = classify_safety(rule, profile, voter, _order(strategic_labels, domain))
    if kind is None:
        return _check(name, verdict.status == SafetyStatus.SAFE, f"verdict={verdict.status.value}")
    return _check(
        name,
        verdict.status == SafetyStatus.UNSAFE and verdict.kind == kind,
        f"verdict={verdict.status.value}/{verdict.kind and verdict.kind.value}",
    )


def _scores_check(name: str, rule: ScoringRule, profile: Profile, expected: dict[str, int]) -> CheckResult:
    got = {a.label: s for a, s in rule.scores(profile).items()}
    return _check(name, got == expected, f"expected {expected}, got {got}")


def _threshold_check(
    name: str,
    rule: Rule,
    profile: Profile,
    type_labels: str,
    strategic_labels: str,
    expected: dict[range, str],
) -> CheckResult:
    domain = profile.domain
    table = threshold_scan(rule, profile, _order(type_labels, domain), _order(strategic_labels, domain))
    mismatches = []
    for ks, label in expected.items():
        for k in ks:
            got = table[k].label if k in table else f"none: the type has {len(table) - 1} voters"
            if got != label:
                mismatches.append(f"k={k}: expected {label}, got {got}")
    return _check(name, not mismatches, "; ".join(mismatches))


# ---------------------------------------------------------------------------
# Fixture 1: Plurality, 4 voters - two would-be manipulators block each other
# ---------------------------------------------------------------------------

_D3 = Domain.from_labels("ABC")


def _run_plurality_four(fx: Fixture) -> list[CheckResult]:
    rule, profile = fx.rule, fx.profile
    pivots = sorted({move.voter + 1 for move in _pivotal_moves(rule, profile, all_orders(profile.domain))})
    return [
        _winner_check("sincere winner is C", rule, profile, "C"),
        _winner_check("voter 1 voting B>A>C elects B", rule, profile, "B", (0, "BAC")),
        _winner_check("voter 2 voting A>B>C elects A", rule, profile, "A", (1, "ABC")),
        _winner_check("both manipulating keeps C", rule, profile, "C", (0, "BAC"), (1, "ABC")),
        _check("exactly voters 1 and 2 are pivotal manipulators", pivots == [1, 2], f"pivots={pivots}"),
    ]


FIXTURE_1 = Fixture(
    name="plurality-4-voters",
    description="Plurality, tie-break A>B>C, 4 voters: two lone manipulators cancel out",
    rule=plurality(_order("ABC", _D3)),
    profile=_ballots_profile(_D3, "ABC BAC CAB CBA"),
    run=_run_plurality_four,
)


# ---------------------------------------------------------------------------
# Fixture 2: Borda, 4 voters - the joint switch overshoots to the worst outcome
# ---------------------------------------------------------------------------


def _run_borda_four(fx: Fixture) -> list[CheckResult]:
    rule, profile = fx.rule, fx.profile
    return [
        _winner_check("sincere winner is B", rule, profile, "B"),
        _winner_check("voter 1 voting A>C>B elects A", rule, profile, "A", (0, "ACB")),
        _winner_check("both voting A>C>B elects C", rule, profile, "C", (0, "ACB"), (1, "ACB")),
        _verdict_check("A>C>B is unsafe for voter 1 (overshoot)", rule, profile, "ABC", "ACB", UnsafeKind.OVERSHOOT),
    ]


FIXTURE_2 = Fixture(
    name="borda-4-voters",
    description="Borda, tie-break A>B>C, 4 voters: both like-minded manipulators acting elects their worst",
    rule=borda(_order("ABC", _D3)),
    profile=_ballots_profile(_D3, "ABC ABC BCA CBA"),
    run=_run_borda_four,
)


# ---------------------------------------------------------------------------
# Fixture 3: Borda, 94 voters - overshoot window plus a safe vote for another type
# ---------------------------------------------------------------------------


def _run_borda_94(fx: Fixture) -> list[CheckResult]:
    rule, profile = fx.rule, fx.profile
    return [
        _scores_check("sincere scores A=96 B=99 C=87", rule, profile, {"A": 96, "B": 99, "C": 87}),
        _winner_check("sincere winner is B", rule, profile, "B"),
        _threshold_check(
            "ABC->ACB thresholds (B to 3, A for 4..9, C from 10)",
            rule,
            profile,
            "ABC",
            "ACB",
            {range(0, 4): "B", range(4, 10): "A", range(10, 18): "C"},
        ),
        _verdict_check(
            "A>C>B is unsafe overshooting for ABC voters", rule, profile, "ABC", "ACB", UnsafeKind.OVERSHOOT
        ),
        _verdict_check("C>A>B is safe for ACB voters", rule, profile, "ACB", "CAB"),
        _threshold_check(
            "ACB->CAB elects C from 13 switchers",
            rule,
            profile,
            "ACB",
            "CAB",
            {range(0, 13): "B", range(13, 16): "C"},
        ),
    ]


FIXTURE_3 = Fixture(
    name="borda-94-voters",
    description="Borda, tie-break B>A>C, 94 voters: unsafe overshoot window and a safe vote",
    rule=borda(_order("BAC", _D3)),
    profile=_counts_profile(
        _D3, {"ABC": 17, "ACB": 15, "BAC": 18, "BCA": 16, "CAB": 14, "CBA": 14}
    ),
    run=_run_borda_94,
)


# ---------------------------------------------------------------------------
# Fixture 4: Borda, 41 voters, 5 alternatives - strategic undershooting
# ---------------------------------------------------------------------------

_D5 = Domain.from_labels("ABCDE")


def _run_borda_41(fx: Fixture) -> list[CheckResult]:
    rule, profile = fx.rule, fx.profile
    return [
        _scores_check(
            "sincere scores A=59 B=102 C=110 D=30 E=109",
            rule,
            profile,
            {"A": 59, "B": 102, "C": 110, "D": 30, "E": 109},
        ),
        _winner_check("sincere winner is C", rule, profile, "C"),
        _threshold_check(
            "ABCDE->BADCE thresholds (E for 2..6, B from 8)",
            rule,
            profile,
            "ABCDE",
            "BADCE",
            {range(2, 7): "E", range(8, 11): "B"},
        ),
        _verdict_check(
            "B>A>D>C>E is unsafe undershooting for ABCDE voters", rule, profile, "ABCDE", "BADCE", UnsafeKind.UNDERSHOOT
        ),
    ]


FIXTURE_4 = Fixture(
    name="borda-41-voters",
    description="Borda, tie-break C>E>B>A>D, 41 voters, 5 alternatives: strategic undershooting",
    rule=borda(_order("CEBAD", _D5)),
    profile=_counts_profile(_D5, {"ABCDE": 10, "CEBAD": 15, "EBCDA": 14, "EDACB": 2}),
    run=_run_borda_41,
    notes=(EXAMPLE_4_ERRATUM,),
)


# ---------------------------------------------------------------------------
# Fixture 5: 2-approval, 33 voters - unsafely but not safely manipulable
# ---------------------------------------------------------------------------


def _run_two_approval_33(fx: Fixture) -> list[CheckResult]:
    rule, profile = fx.rule, fx.profile
    d = profile.domain
    votes: list[tuple[str, str]] = []
    unsafe_only = True
    for type_order in profile.types_present():
        for verdict in safety_verdicts(rule, profile, type_order, all_orders(d)):
            votes.append((type_order.compact, verdict.incentive.strategic_order.compact))
            unsafe_only = unsafe_only and verdict.status == SafetyStatus.UNSAFE
    types_with_incentive = sorted({t for t, _ in votes})
    return [
        _scores_check("sincere scores A=23 B=25 C=18", rule, profile, {"A": 23, "B": 25, "C": 18}),
        _winner_check("sincere winner is B", rule, profile, "B"),
        _threshold_check(
            "ABC->ACB thresholds (A for 3..4, C from 6)",
            rule,
            profile,
            "ABC",
            "ACB",
            {range(3, 5): "A", range(6, 9): "C"},
        ),
        _check(
            "only type ABC has any incentive",
            types_with_incentive == ["ABC"],
            f"types with incentive: {types_with_incentive}",
        ),
        _check(
            "every available strategic vote is unsafe",
            unsafe_only and bool(votes),
            f"incentivized votes: {votes}",
        ),
    ]


FIXTURE_5 = Fixture(
    name="two-approval-33-voters",
    description="2-approval, tie-break A>B>C, 33 voters: unsafely but not safely manipulable",
    rule=k_approval(2, _order("ABC", _D3)),
    profile=_counts_profile(
        _D3, {"ABC": 8, "ACB": 4, "BAC": 7, "BCA": 5, "CAB": 4, "CBA": 5}
    ),
    run=_run_two_approval_33,
)


FIXTURES: tuple[Fixture, ...] = (FIXTURE_1, FIXTURE_2, FIXTURE_3, FIXTURE_4, FIXTURE_5)
