"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (run with `pytest -s` to see them
live) and enforces its runtime ceiling.  Criteria 5 and 6 share one set
of sampled rules, generated once per session.
"""

import json
import random
import time

from safevote import cli
from safevote.core import (
    Domain,
    LinearOrder,
    Profile,
    all_orders,
    switch_votes,
    voters_of_type,
)
from safevote.geometry import embed, trajectory
from safevote.rules import (
    ScoringRule,
    borda,
    k_approval,
    plurality,
    random_table_rule,
)
from safevote.strategy import (
    Certificate,
    SafetyStatus,
    UnsafeKind,
    classify_safety,
    has_incentive,
    threshold_scan,
    verify_certificate,
    verify_safe_pivotal,
    verify_safely_manipulable,
)

from helpers import region_of

D3 = Domain.from_labels("ABC")
D5 = Domain.from_labels("ABCDE")


def o(labels: str, domain: Domain = D3) -> LinearOrder:
    return LinearOrder.from_labels(labels, domain)


def counts_profile(domain: Domain, counts: dict[str, int]) -> Profile:
    return Profile.from_counts([(o(k, domain), v) for k, v in counts.items()])


PROFILE_1 = Profile((o("ABC"), o("BAC"), o("CAB"), o("CBA")))
PROFILE_2 = Profile((o("ABC"), o("ABC"), o("BCA"), o("CBA")))
PROFILE_94 = counts_profile(D3, {"ABC": 17, "ACB": 15, "BAC": 18, "BCA": 16, "CAB": 14, "CBA": 14})
PROFILE_41 = counts_profile(D5, {"ABCDE": 10, "CEBAD": 15, "EBCDA": 14, "EDACB": 2})
PROFILE_33 = counts_profile(D3, {"ABC": 8, "ACB": 4, "BAC": 7, "BCA": 5, "CAB": 4, "CBA": 5})

BORDA_94 = borda(o("BAC"))
BORDA_41 = borda(o("CEBAD", D5))
APPROVAL_33 = k_approval(2, o("ABC"))

_SAMPLES: dict[str, list] = {}


def _campaign_samples():
    """10,000 sampled rules at (n=2, m=3) plus 1,000 at (n=3, m=3)."""
    if "rules" not in _SAMPLES:
        _SAMPLES["rules"] = [random_table_rule(2, 3, s) for s in range(10_000)] + [
            random_table_rule(3, 3, 10_000 + s) for s in range(1_000)
        ]
    return _SAMPLES["rules"]


def _report(number: int, detail: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit:.0f}s)"
    print(f"criterion {number}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_1_four_voter_examples():
    started = time.monotonic()
    rule1 = plurality(o("ABC"))
    assert rule1.evaluate(PROFILE_1).label == "C"
    assert rule1.evaluate(switch_votes(PROFILE_1, frozenset({0}), o("BAC"))).label == "B"
    assert rule1.evaluate(switch_votes(PROFILE_1, frozenset({1}), o("ABC"))).label == "A"
    both = switch_votes(switch_votes(PROFILE_1, frozenset({0}), o("BAC")), frozenset({1}), o("ABC"))
    assert rule1.evaluate(both).label == "C"
    rule2 = borda(o("ABC"))
    assert rule2.evaluate(PROFILE_2).label == "B"
    assert rule2.evaluate(switch_votes(PROFILE_2, frozenset({0}), o("ACB"))).label == "A"
    assert rule2.evaluate(switch_votes(PROFILE_2, frozenset({0, 1}), o("ACB"))).label == "C"
    _report(1, "four-voter plurality and Borda fixtures exact", started, 1.0)


def test_criterion_2_borda_94():
    started = time.monotonic()
    got = {a.label: s for a, s in BORDA_94.scores(PROFILE_94).items()}
    assert got == {"A": 96, "B": 99, "C": 87}
    assert BORDA_94.evaluate(PROFILE_94).label == "B"
    table = threshold_scan(BORDA_94, PROFILE_94, o("ABC"), o("ACB"))
    assert all(table[k].label == "A" for k in range(4, 9))
    assert all(table[k].label == "C" for k in range(10, 18))
    verdict = classify_safety(BORDA_94, PROFILE_94, 0, o("ACB"))
    assert verdict.status == SafetyStatus.UNSAFE and verdict.kind == UnsafeKind.OVERSHOOT
    acb_voter = min(voters_of_type(PROFILE_94, o("ACB")))
    safe = classify_safety(BORDA_94, PROFILE_94, acb_voter, o("CAB"))
    assert safe.status == SafetyStatus.SAFE
    full_table = threshold_scan(BORDA_94, PROFILE_94, o("ACB"), o("CAB"))
    assert all(full_table[k].label == "C" for k in range(13, 16))
    _report(2, "94-voter Borda scores, thresholds, overshoot, safe vote", started, 1.0)


def test_criterion_3_borda_41():
    started = time.monotonic()
    got = {a.label: s for a, s in BORDA_41.scores(PROFILE_41).items()}
    assert got == {"A": 59, "B": 102, "C": 110, "D": 30, "E": 109}
    assert BORDA_41.evaluate(PROFILE_41).label == "C"
    table = threshold_scan(BORDA_41, PROFILE_41, o("ABCDE", D5), o("BADCE", D5))
    assert all(table[k].label == "E" for k in range(2, 7))
    assert all(table[k].label == "B" for k in range(8, 11))
    voter = min(voters_of_type(PROFILE_41, o("ABCDE", D5)))
    verdict = classify_safety(BORDA_41, PROFILE_41, voter, o("BADCE", D5))
    assert verdict.status == SafetyStatus.UNSAFE and verdict.kind == UnsafeKind.UNDERSHOOT
    _report(3, "41-voter Borda with corrected third type, undershoot", started, 1.0)


def test_criterion_4_two_approval_33():
    started = time.monotonic()
    got = {a.label: s for a, s in APPROVAL_33.scores(PROFILE_33).items()}
    assert got == {"A": 23, "B": 25, "C": 18}
    assert APPROVAL_33.evaluate(PROFILE_33).label == "B"
    table = threshold_scan(APPROVAL_33, PROFILE_33, o("ABC"), o("ACB"))
    assert table[3].label == "A" and table[4].label == "A"
    assert all(table[k].label == "C" for k in range(6, 9))
    incentivized = []
    for type_order in PROFILE_33.types_present():
        voter = min(voters_of_type(PROFILE_33, type_order))
        for strategic in all_orders(D3):
            if strategic == type_order:
                continue
            if has_incentive(APPROVAL_33, PROFILE_33, voter, strategic) is None:
                continue
            incentivized.append(type_order.compact)
            verdict = classify_safety(APPROVAL_33, PROFILE_33, voter, strategic)
            assert verdict.status == SafetyStatus.UNSAFE
    assert incentivized and set(incentivized) == {"ABC"}
    _report(4, "33-voter 2-approval: unsafely but not safely manipulable", started, 10.0)


def test_criterion_5_safely_manipulable_property():
    started = time.monotonic()
    failures = 0
    for rule in _campaign_samples():
        certificate = verify_safely_manipulable(rule)
        if certificate is None or not verify_certificate(rule, certificate):
            failures += 1
    assert failures == 0
    _report(5, "11,000 sampled rules all safely manipulable, 0 failures", started, 300.0)


def test_criterion_6_safe_pivotal_property():
    started = time.monotonic()
    failures = 0
    for rule in _campaign_samples():
        certificate = verify_safe_pivotal(rule)
        if certificate is None or not verify_certificate(rule, certificate):
            failures += 1
            continue
        as_pivotal = Certificate(
            claim="GS-manipulable",
            profile=certificate.profile,
            voter=certificate.voter,
            strategic_order=certificate.strategic_order,
            sets=dict(certificate.sets),
            outcomes=dict(certificate.outcomes),
        )
        if not verify_certificate(rule, as_pivotal):
            failures += 1
    assert failures == 0
    _report(6, "11,000 sampled rules all safe-pivotal, pivotal inequality holds", started, 300.0)


def test_criterion_7_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(7)
    orders = all_orders(D3)
    rule_makers = (borda, plurality, lambda tb: k_approval(2, tb))
    disagreements = 0
    for _ in range(200):
        rule = rng.choice(rule_makers)(rng.choice(orders))
        n = rng.randint(1, 6)
        profile = Profile(tuple(rng.choice(orders) for _ in range(n)))
        for type_order in profile.types_present():
            voter = min(voters_of_type(profile, type_order))
            for strategic in orders:
                if strategic == type_order:
                    continue
                fast = has_incentive(rule, profile, voter, strategic)
                slow = has_incentive(rule, profile, voter, strategic, force_subsets=True)
                if fast != slow:
                    disagreements += 1
                    continue
                if fast is None:
                    continue
                v_fast = classify_safety(rule, profile, voter, strategic)
                v_slow = classify_safety(rule, profile, voter, strategic, force_subsets=True)
                if v_fast != v_slow:
                    disagreements += 1
    assert disagreements == 0
    _report(7, "200 profiles: size and subset searches agree everywhere", started, 120.0)


def test_criterion_8_geometry_consistency():
    started = time.monotonic()
    rng = random.Random(8)
    orders = all_orders(D3)
    violations = 0
    for _ in range(1_000):
        weights = tuple(sorted((rng.randint(0, 9) for _ in range(3)), reverse=True))
        if sum(weights) == 0:
            weights = (1, 0, 0)
        rule = ScoringRule.from_ints(weights, rng.choice(orders))
        profile = Profile.from_counts(
            [(order, rng.randint(0, 12)) for order in orders] + [(orders[0], 1)]
        )
        point = embed(rule.scores(profile))
        if sum(point.coords) != 1:
            violations += 1
        if region_of(point, rule.tiebreak) != rule.evaluate(profile):
            violations += 1
    first = trajectory(BORDA_94, PROFILE_94, o("ABC"), o("ACB"), 17)
    if any(p.x1 * 282 != 96 for p in first):
        violations += 1
    second = trajectory(BORDA_94, PROFILE_94, o("ACB"), o("CAB"), 15)
    if any(p.x2 * 282 != 99 for p in second):
        violations += 1
    assert violations == 0
    _report(8, "1,000 profiles: geometric winner equals algebraic winner", started, 30.0)


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    started = time.monotonic()
    args = ["verify", "--samples", "50", "--seed", "123", "--format", "json"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["failures"] == 0
    _report(9, "identical seeds produce byte-identical verify reports", started, 60.0)
