"""The standalone certificate checker, `safevote.check`, against faulty
searches and against the replay through the searches that it replaced."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from helpers import object_path_replay
from safevote import strategy
from safevote.check import verify_certificate
from safevote.core import Domain, LinearOrder, Profile, all_orders, voters_of_type
from safevote.rules import ScoringRule, TableRule, borda, k_approval, plurality, random_table_rule
from safevote.strategy import (
    CLAIMS,
    Certificate,
    construct_safe_from_inferior,
    find_escapes,
    lift_safe_pivotal,
    verify_gs,
    verify_safe_pivotal,
    verify_safely_manipulable,
)

D3 = Domain.from_labels("ABC")
ORDERS = all_orders(D3)


def o(labels: str) -> LinearOrder:
    return LinearOrder.from_labels(labels, D3)


PROFILE_94 = Profile.from_counts(
    [(o(k), v) for k, v in {"ABC": 17, "ACB": 15, "BAC": 18, "BCA": 16, "CAB": 14, "CBA": 14}.items()]
)
BORDA_94 = borda(o("BAC"))


# ---------------------------------------------------------------------------
# Faults patched into the searches, one at a time
# ---------------------------------------------------------------------------


def all_safe(classify):
    """`_classify` calling every incentivized vote Safe."""

    def faulty(rule, profile, voter, strategic_order, moves):
        verdict = classify(rule, profile, voter, strategic_order, moves)
        return verdict and strategy.SafetyVerdict(strategy.SafetyStatus.SAFE, verdict.incentive)

    return faulty


def without_the_whole_type(walk):
    """`_walk` whose subset walk stops one size short: it never tries the
    coalition of the whole type."""

    def faulty(rule, profile, voter, force_subsets=False):
        moves = walk(rule, profile, voter, force_subsets)
        if rule.anonymous and not force_subsets:
            return moves
        whole = voters_of_type(profile, profile.orders[voter])

        def short(order):
            sincere, pairs, coalition, by_size = moves(order)
            return sincere, ((key, winner) for key, winner in pairs if frozenset(key) != whole), coalition, by_size

        return short

    return faulty


def first_switcher_only(switches):
    """`TableRule.switches` that moves the table index by the first
    switcher's place value only, whatever the coalition's size."""

    def faulty(self, profile, type_order, order):
        winner = switches(self, profile, type_order, order)
        return lambda coalition: winner(frozenset(sorted(coalition)[:1]))

    return faulty


def first_change_only(size_runs):
    """`ScoringRule.size_runs` that stops at the winner's first change."""
    return lambda self, profile, type_order, order: itertools.islice(size_runs(self, profile, type_order, order), 2)


def safe_votes_at_94():
    """The SafelyManipulable certificates the safe scan's per-profile search
    emits at the 94-voter Borda fixture, tie-break B > A > C."""
    moves = strategy._safe_incentive_moves(BORDA_94, PROFILE_94, ORDERS)
    return [(BORDA_94, strategy._certify(BORDA_94, "SafelyManipulable", PROFILE_94, move)) for move in moves]


def safe_scans(seed):
    """What the two safe scans emit for a (2, 3) table rule."""
    rule = random_table_rule(2, 3, seed)
    return [(rule, verify_safely_manipulable(rule)), (rule, verify_safe_pivotal(rule))]


FAULTS = {
    # The ABC voters' ACB vote overshoots: it is Unsafe, and both faults call it Safe.
    "classify-all-safe": (strategy, "_classify", all_safe, safe_votes_at_94),
    "runs-first-change": (ScoringRule, "size_runs", first_change_only, safe_votes_at_94),
    "walk-without-the-whole-type": (strategy, "_walk", without_the_whole_type, lambda: safe_scans(32)),
    "table-kernel-first-switcher": (TableRule, "switches", first_switcher_only, lambda: safe_scans(45)),
}


@pytest.mark.parametrize("name", FAULTS)
def test_the_checker_rejects_a_certificate_of_each_faulty_search(name, monkeypatch):
    owner, attr, fault, emitted = FAULTS[name]
    right = emitted()
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    wrong = emitted()
    monkeypatch.undo()
    assert all(verify_certificate(rule, cert) for rule, cert in right)
    rejected = [cert for rule, cert in wrong if not verify_certificate(rule, cert)]
    assert rejected, name
    if emitted is safe_votes_at_94:
        assert [(cert.profile.orders[cert.voter], cert.strategic_order) for cert in rejected] == [(o("ABC"), o("ACB"))]


def test_an_overshooting_vote_is_not_safe_under_a_classifier_that_calls_it_safe(monkeypatch):
    # The replay through the searches shares the classifier's fault; the
    # checker shares no code with it.
    voter = min(voters_of_type(PROFILE_94, o("ABC")))
    bare = Certificate(claim="SafelyManipulable", profile=PROFILE_94, voter=voter, strategic_order=o("ACB"))
    assert not verify_certificate(BORDA_94, bare) and not object_path_replay(BORDA_94, bare)
    monkeypatch.setattr(strategy, "_classify", all_safe(strategy._classify))
    assert strategy._is_safe(BORDA_94, PROFILE_94, voter, o("ACB"))
    assert object_path_replay(BORDA_94, bare)
    assert not verify_certificate(BORDA_94, bare)


# ---------------------------------------------------------------------------
# The checker against the replay through the searches
# ---------------------------------------------------------------------------


@st.composite
def rules_and_profiles(draw):
    """A (2, 3) or (3, 3) table rule, or Borda, plurality or 2-approval at
    m = 3 with n <= 6, and a profile of the rule's size."""
    if draw(st.booleans()):
        n = draw(st.sampled_from((2, 3)))
        rule = random_table_rule(n, 3, draw(st.integers(0, 10**6)))
    else:
        n = draw(st.integers(1, 6))
        rule = draw(st.sampled_from((borda, plurality, lambda t: k_approval(2, t))))(draw(st.sampled_from(ORDERS)))
    profile = Profile(tuple(draw(st.lists(st.sampled_from(ORDERS), min_size=n, max_size=n))))
    return rule, n, profile


def certificates(rule, n, profile, type_order, strategic_order):
    """What the scans, `find_escapes`, `construct_safe_from_inferior` and
    `lift_safe_pivotal` emit."""
    found = [search(rule, n=n) for search in (verify_gs, verify_safely_manipulable, verify_safe_pivotal)]
    if found[1] is not None:
        found.append(lift_safe_pivotal(rule, found[1]))
    found += find_escapes(rule, profile)
    if strategic_order != type_order:
        found.append(construct_safe_from_inferior(rule, profile, type_order, strategic_order))
    return [cert for cert in found if cert is not None]


def bare_votes(profile):
    """A bare certificate of each claim for each strategic vote at the profile."""
    for (voter, own), order, claim in itertools.product(enumerate(profile.orders), ORDERS, CLAIMS):
        if order != own:
            yield Certificate(claim, profile, voter, order)


def tampered(cert):
    """The certificate and its tampered forms."""
    n, voter, coalition = cert.profile.n, cert.voter, cert.sets.get("coalition", frozenset())
    swapped = {"before": cert.outcomes.get("after"), "after": cert.outcomes.get("before")}
    yield cert
    yield dataclasses.replace(cert, outcomes=swapped)
    yield from (dataclasses.replace(cert, claim=claim) for claim in CLAIMS if claim != cert.claim)
    yield from (dataclasses.replace(cert, claim=claim, sets={}, outcomes={}) for claim in CLAIMS)
    yield from (dataclasses.replace(cert, voter=other) for other in range(n) if other != voter)
    for sets in ({"coalition": frozenset()}, {}, {"coalition": frozenset(range(n))}, {"coalition": coalition - {voter}}):
        yield dataclasses.replace(cert, sets=sets)
    yield dataclasses.replace(cert, rule_fingerprint="0123456789abcdef")


@given(rules_and_profiles(), st.sampled_from(ORDERS), st.data())
@settings(max_examples=100, deadline=None)
def test_the_checker_agrees_with_the_replay_through_the_searches(drawn, strategic_order, data):
    rule, n, profile = drawn
    type_order = data.draw(st.sampled_from(profile.types_present()))
    searched = certificates(rule, n, profile, type_order, strategic_order)
    for form in itertools.chain(*map(tampered, searched), bare_votes(profile)):
        assert verify_certificate(rule, form) == object_path_replay(rule, form), form
