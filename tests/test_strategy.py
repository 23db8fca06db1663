"""Unit tests for incentives, safety classification, and certificate search."""

import dataclasses
import hashlib
import itertools
import json
import operator
import random
import re
import sys
from collections import Counter

import pytest

from helpers import SubsetWalk, perturbed_dictatorship, table_from_function
from safevote import strategy
from safevote.core import (
    Domain,
    LinearOrder,
    Profile,
    SafevoteError,
    all_orders,
    switch_votes,
    voters_of_type,
)
from safevote.rules import (
    Rule,
    ScoringRule,
    TableRule,
    all_profiles,
    borda,
    check_predicates,
    decode_profile,
    k_approval,
    plurality,
    profile_space_size,
    random_table_rule,
)
from safevote.strategy import (
    Certificate,
    SafetyVerdict,
    _subsets,
    InconclusiveError,
    NoIncentiveError,
    SafetyStatus,
    UnsafeKind,
    analyze,
    classify_safety,
    construct_safe_from_endup,
    construct_safe_from_inferior,
    find_L_inferior,
    find_escapes,
    has_incentive,
    incentives,
    lift_safe_pivotal,
    safety_verdicts,
    threshold_scan,
    verify_certificate,
    verify_gs,
    verify_safe_pivotal,
    verify_safely_manipulable,
)

D3 = Domain.from_labels("ABC")
D4 = Domain.from_labels("ABCD")
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


def dictatorial_rule(n: int = 2) -> TableRule:
    return table_from_function(D3, n, lambda p: p.orders[0].top)


def reference_coalitions(voter, members):
    """Reference walk: coalitions of members containing the voter, by size,
    then lexicographically, one generator step and one `frozenset` each."""
    for size in range(len(members)):
        for combo in itertools.combinations(sorted(members - {voter}), size):
            yield frozenset((voter, *combo))


def coalitions(voter, members):
    """The subset walk's keys: the voter followed by each subset of the
    other members, smallest first, as voter tuples."""
    return _subsets((voter,), sorted(members - {voter}), range(len(members)))


@pytest.mark.parametrize("size", range(1, 10))
def test_coalitions_match_the_reference_walk(size):
    for members in (frozenset(range(size)), frozenset(random.Random(size).sample(range(40), size))):
        for voter in members:
            walk = list(coalitions(voter, members))
            assert list(map(frozenset, walk)) == list(reference_coalitions(voter, members))
            # The voter first, then the other members in sorted order.
            assert all(type(c) is tuple and c[0] == voter and list(c[1:]) == sorted(c[1:]) for c in walk)
        # The inferior walk's order: largest proper subsets first.
        ordered = sorted(members)
        largest_first = [frozenset(c) for k in range(size - 1, -1, -1) for c in itertools.combinations(ordered, k)]
        walk = list(_subsets((), ordered, range(size - 1, -1, -1)))
        assert list(map(frozenset, walk)) == largest_first
        assert all(type(c) is tuple for c in walk)


def two_pass_classify_safety(rule, profile, voter, strategic_order):
    """Reference classifier: an incentive check first, whose witness the
    verdict carries, then a second walk over the same coalitions, filtering
    worsening ones by every member's incentive.  Returns the verdict and
    whether that filter dropped a worsening coalition."""
    incentive = has_incentive(rule, profile, voter, strategic_order)
    if incentive is None:
        raise NoIncentiveError("no incentive")
    type_order = profile.orders[voter]
    members = voters_of_type(profile, type_order)
    sincere = rule.evaluate(profile)
    if rule.anonymous:
        # One canonical coalition per size, and every member shares the incentive.
        others = sorted(members - {voter})
        coalitions = [frozenset((voter, *others[:size])) for size in range(len(members))]
        incentivized = members
    else:
        coalitions = reference_coalitions(voter, members)
        incentivized = frozenset(
            v for v in members if has_incentive(rule, profile, v, strategic_order, force_subsets=True) is not None
        )
    improving, worsening, dropped = [], [], False
    for coalition in coalitions:
        outcome = rule.evaluate(switch_votes(profile, coalition, strategic_order))
        if type_order.prefers(outcome, sincere):
            improving.append(coalition)
        elif type_order.prefers(sincere, outcome):
            if coalition <= incentivized:
                worsening.append(coalition)
            else:
                dropped = True
    if not worsening:
        return SafetyVerdict(SafetyStatus.SAFE, incentive), dropped
    for kind, nested in ((UnsafeKind.OVERSHOOT, operator.lt), (UnsafeKind.UNDERSHOOT, operator.gt)):
        for bad in worsening:
            for good in improving:
                if nested(good, bad):
                    verdict = SafetyVerdict(SafetyStatus.UNSAFE, incentive, worsening[0], kind, good, bad)
                    return verdict, dropped
    return SafetyVerdict(SafetyStatus.UNSAFE, incentive, worsening[0], UnsafeKind.OTHER), dropped


def assert_replays_own_record(rule, cert):
    """The certificate's fingerprint, coalition and outcomes describe the
    switch it records."""
    profile, coalition = cert.profile, cert.sets["coalition"]
    assert cert.rule_fingerprint == rule.fingerprint()
    assert cert.voter in coalition
    assert cert.outcomes["before"] == rule.evaluate(profile)
    assert cert.outcomes["after"] == rule.evaluate(switch_votes(profile, coalition, cert.strategic_order))


class TestHasIncentive:
    def test_pivotal_single_voter(self):
        rule = plurality(o("ABC"))
        witness = has_incentive(rule, PROFILE_1, 0, o("BAC"))
        assert witness is not None
        assert witness.coalition == {0}
        assert witness.outcome_before.label == "C"
        assert witness.outcome_after.label == "B"

    def test_minimal_coalition_size_four(self):
        witness = has_incentive(BORDA_94, PROFILE_94, 0, o("ACB"))
        assert witness is not None
        assert len(witness.coalition) == 4
        assert witness.outcome_after.label == "A"
        assert witness.outcome_before.label == "B"

    def test_winning_type_has_no_incentive(self):
        voter = min(voters_of_type(PROFILE_33, o("BAC")))
        for strategic in all_orders(D3):
            if strategic == o("BAC"):
                continue
            assert has_incentive(APPROVAL_33, PROFILE_33, voter, strategic) is None

    def test_same_order_rejected(self):
        with pytest.raises(ValueError):
            has_incentive(BORDA_94, PROFILE_94, 0, o("ABC"))

    @pytest.mark.parametrize("voter", [-1, 4])
    @pytest.mark.parametrize(
        "rule, force_subsets",
        [(borda(o("ABC")), False), (borda(o("ABC")), True), (random_table_rule(4, 3, 0), False)],
        ids=["scoring", "scoring-subsets", "table"],
    )
    def test_voter_outside_the_profile_rejected(self, rule, force_subsets, voter):
        # A negative voter must not be read from the end of the profile.
        profile = Profile(tuple(map(o, ("BCA", "CBA", "ABC", "ABC"))))
        for search in (has_incentive, classify_safety):
            with pytest.raises(ValueError, match=rf"voter {voter} is outside 0\.\.3"):
                search(rule, profile, voter, o("ACB"), force_subsets=force_subsets)

    def test_witness_invariants(self):
        witness = has_incentive(BORDA_94, PROFILE_94, 0, o("ACB"))
        assert 0 in witness.coalition
        assert witness.coalition <= voters_of_type(PROFILE_94, o("ABC"))
        assert o("ABC").prefers(witness.outcome_after, witness.outcome_before)

    def test_size_and_subset_paths_agree(self):
        for strategic in ("ACB", "BAC", "CAB"):
            fast = has_incentive(BORDA_94, PROFILE_94, 0, o(strategic))
            slow = has_incentive(BORDA_94, PROFILE_94, 0, o(strategic), force_subsets=True)
            assert fast == slow

    def test_subset_path_evaluates_every_coalition(self, monkeypatch):
        # The oracle path asks the kernel about each coalition in turn.
        asked, evaluated = [], []
        kernel, evaluate = ScoringRule.switches, ScoringRule.evaluate

        def counting(rule, profile):
            evaluated.append(profile)
            return evaluate(rule, profile)

        def recording(rule, profile, type_order, order):
            winner = kernel(rule, profile, type_order, order)

            def ask(coalition):
                asked.append(coalition)
                return winner(coalition)

            return ask

        monkeypatch.setattr(ScoringRule, "switches", recording)
        monkeypatch.setattr(ScoringRule, "evaluate", counting)
        members = voters_of_type(PROFILE_33, o("BAC"))
        voter = min(members)
        assert has_incentive(APPROVAL_33, PROFILE_33, voter, o("ABC"), force_subsets=True) is None
        # The sincere winner from one evaluation, then every coalition
        # containing the voter from the kernel, once each.
        assert evaluated == [PROFILE_33]
        assert asked == [*coalitions(voter, members)]
        assert len(set(asked)) == len(asked) == 2 ** (len(members) - 1)

    def test_voter_walk_builds_each_coalition_once(self, monkeypatch):
        # Every strategic order of a voter's walk reads the same coalitions,
        # built once for the walk rather than once per order.
        built, subsets = [], strategy._subsets

        def recording(*args):
            for coalition in subsets(*args):
                built.append(coalition)
                yield coalition

        monkeypatch.setattr(strategy, "_subsets", recording)
        rule = dictatorial_rule(3)
        walk = strategy._walk(rule, Profile((o("ABC"), o("ABC"), o("BAC"))), 0)
        for order in all_orders(D3)[1:]:
            _, moves, _, _ = walk(order)
            assert [frozenset(key) for key, _ in moves] == [frozenset({0}), frozenset({0, 1})]
        assert list(map(frozenset, built)) == [frozenset({0}), frozenset({0, 1})]


class TestClassifySafety:
    def test_forced_subset_walk_makes_one_python_call_per_coalition(self):
        # The kernel's `winner` is the one Python frame per coalition: the
        # walk pairs coalitions with winners in C, with no generator resumed.
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            verdict = classify_safety(BORDA_94, PROFILE_94, 0, o("ACB"), force_subsets=True)
        finally:
            sys.setprofile(None)
        assert (verdict.kind, len(verdict.good), len(verdict.bad)) == (UnsafeKind.OVERSHOOT, 4, 10)
        coalitions = 2 ** (len(voters_of_type(PROFILE_94, o("ABC"))) - 1)
        assert calls < 1.1 * coalitions, (calls, coalitions)

    def test_overshoot_94(self):
        verdict = classify_safety(BORDA_94, PROFILE_94, 0, o("ACB"))
        assert verdict.status == SafetyStatus.UNSAFE
        assert verdict.kind == UnsafeKind.OVERSHOOT
        assert len(verdict.good) == 4
        assert len(verdict.bad) == 10
        assert len(verdict.witness_bad) == 10
        assert verdict.good < verdict.bad

    def test_safe_vote_94(self):
        voter = min(voters_of_type(PROFILE_94, o("ACB")))
        verdict = classify_safety(BORDA_94, PROFILE_94, voter, o("CAB"))
        assert verdict.status == SafetyStatus.SAFE
        assert verdict.witness_bad is None

    def test_overshoot_four_voters(self):
        rule = borda(o("ABC"))
        verdict = classify_safety(rule, PROFILE_2, 0, o("ACB"))
        assert verdict.status == SafetyStatus.UNSAFE
        assert verdict.kind == UnsafeKind.OVERSHOOT
        assert verdict.good == {0}
        assert verdict.bad == {0, 1}

    def test_undershoot_41(self):
        voter = min(voters_of_type(PROFILE_41, o("ABCDE", D5)))
        verdict = classify_safety(BORDA_41, PROFILE_41, voter, o("BADCE", D5))
        assert verdict.status == SafetyStatus.UNSAFE
        assert verdict.kind == UnsafeKind.UNDERSHOOT
        assert len(verdict.good) == 8
        assert len(verdict.bad) == 2
        assert verdict.bad < verdict.good

    def test_nested_pair_replays(self):
        verdict = classify_safety(BORDA_94, PROFILE_94, 0, o("ACB"))
        sincere = BORDA_94.evaluate(PROFILE_94)
        good_out = BORDA_94.evaluate(switch_votes(PROFILE_94, verdict.good, o("ACB")))
        bad_out = BORDA_94.evaluate(switch_votes(PROFILE_94, verdict.bad, o("ACB")))
        assert o("ABC").prefers(good_out, sincere)
        assert o("ABC").prefers(sincere, bad_out)

    def test_all_incentivized_votes_unsafe_33(self):
        incentivized = []
        for type_order in PROFILE_33.types_present():
            voter = min(voters_of_type(PROFILE_33, type_order))
            for strategic in all_orders(D3):
                if strategic == type_order:
                    continue
                if has_incentive(APPROVAL_33, PROFILE_33, voter, strategic) is None:
                    continue
                incentivized.append((type_order.compact, strategic.compact))
                verdict = classify_safety(APPROVAL_33, PROFILE_33, voter, strategic)
                assert verdict.status == SafetyStatus.UNSAFE
        assert incentivized
        assert {t for t, _ in incentivized} == {"ABC"}

    def test_no_incentive_raises(self):
        # Voter 4's top already wins; no strategic vote can help.
        with pytest.raises(NoIncentiveError):
            classify_safety(plurality(o("ABC")), PROFILE_1, 3, o("CAB"))

    def test_same_order_rejected(self):
        with pytest.raises(ValueError):
            classify_safety(BORDA_94, PROFILE_94, 0, o("ABC"))

    def test_safety_verdicts_follow_incentives(self):
        # The verdicts of a type's votes come in `incentives` order, each
        # carrying the witness `incentives` yields for that vote.
        cases = [(BORDA_94, PROFILE_94), (APPROVAL_33, PROFILE_33)]
        cases += [(random_table_rule(2, 3, seed), p) for seed in range(3) for p in all_profiles(D3, 2)]
        for rule, profile in cases:
            for type_order in profile.types_present():
                verdicts = list(safety_verdicts(rule, profile, type_order, all_orders(D3)))
                assert [v.incentive for v in verdicts] == list(incentives(rule, profile, type_order, all_orders(D3)))
                for v in verdicts:
                    assert v == classify_safety(rule, profile, v.incentive.voter, v.incentive.strategic_order)

    def test_single_walk_matches_two_pass_reference(self):
        # Every (profile, voter, strategic order) of twelve sampled table
        # rules: the verdicts agree, or both sides find no incentive.
        outcomes = set()
        dropped_votes = 0
        for n, seed in [(2, s) for s in range(10)] + [(3, 0), (3, 1)]:
            rule = random_table_rule(n, 3, seed)
            for profile in all_profiles(D3, n):
                for voter in range(n):
                    for strategic in all_orders(D3):
                        if strategic == profile.orders[voter]:
                            continue
                        try:
                            expected, dropped = two_pass_classify_safety(rule, profile, voter, strategic)
                        except NoIncentiveError:
                            with pytest.raises(NoIncentiveError):
                                classify_safety(rule, profile, voter, strategic)
                            outcomes.add("no incentive")
                            continue
                        assert classify_safety(rule, profile, voter, strategic) == expected
                        outcomes.add(expected.kind or expected.status)
                        dropped_votes += dropped
        assert outcomes >= {"no incentive", SafetyStatus.SAFE, UnsafeKind.OVERSHOOT, UnsafeKind.UNDERSHOOT}
        assert dropped_votes > 0

    def test_other_when_no_improving_and_worsening_pair_nests(self):
        # Three BAC voters: {0, 1} voting ACB elects B, their favourite, while
        # {0, 2} elects C.  Neither coalition holds the other, so the vote is
        # unsafe with no nested pair.
        rule = random_table_rule(3, 3, 5)
        profile = decode_profile(86, 3, all_orders(D3))
        assert profile.orders == (o("BAC"),) * 3
        verdict = classify_safety(rule, profile, 0, o("ACB"))
        assert (verdict.status, verdict.kind) == (SafetyStatus.UNSAFE, UnsafeKind.OTHER)
        assert verdict.witness_bad == {0, 2} and verdict.incentive.coalition == {0, 1}
        assert verdict.good is None and verdict.bad is None
        assert verdict == two_pass_classify_safety(rule, profile, 0, o("ACB"))[0]
        bare = Certificate(claim="SafelyManipulable", profile=profile, voter=0, strategic_order=o("ACB"))
        assert not verify_certificate(rule, bare)


class TestThresholdScan:
    def test_sincere_at_zero(self):
        table = threshold_scan(BORDA_94, PROFILE_94, o("ABC"), o("ACB"))
        assert table[0].label == "B"

    def test_94_thresholds(self):
        table = threshold_scan(BORDA_94, PROFILE_94, o("ABC"), o("ACB"))
        got = {k: alt.label for k, alt in table.items()}
        expected = {k: "B" for k in range(4)}
        expected.update({k: "A" for k in range(4, 10)})
        expected.update({k: "C" for k in range(10, 18)})
        assert got == expected

    def test_94_safe_thresholds(self):
        table = threshold_scan(BORDA_94, PROFILE_94, o("ACB"), o("CAB"))
        got = {k: alt.label for k, alt in table.items()}
        assert got == {**{k: "B" for k in range(13)}, **{k: "C" for k in range(13, 16)}}

    def test_33_thresholds(self):
        table = threshold_scan(APPROVAL_33, PROFILE_33, o("ABC"), o("ACB"))
        for k in (3, 4):
            assert table[k].label == "A"
        for k in range(6, 9):
            assert table[k].label == "C"

    def test_non_anonymous_rule_rejected(self):
        rule = random_table_rule(2, 3, 0)
        with pytest.raises(SafevoteError, match="requires an anonymous rule"):
            threshold_scan(rule, next(all_profiles(D3, 2)), o("ABC"), o("ACB"))

    def test_absent_type_rejected(self):
        with pytest.raises(SafevoteError, match="type ACB not present in the profile"):
            threshold_scan(BORDA_94, PROFILE_2, o("ACB"), o("CAB"))


class TestFindEscapes:
    def test_borda_three_voter_census(self):
        # Independent census of Borda, 3 voters: 21 escape certificates
        # across the 216 profiles, every one of which replays.
        rule = borda(o("ABC"))
        total = 0
        for profile in all_profiles(D3, 3):
            certificates = find_escapes(rule, profile)
            for cert in certificates:
                assert cert.claim == "Escape"
                assert cert.verified
                assert verify_certificate(rule, cert)
                assert profile.orders[cert.voter].bottom == rule.evaluate(profile)
            total += len(certificates)
        assert total == 21

    def test_winner_nobody_bottom_gives_empty(self):
        rule = borda(o("ABC"))
        profile = Profile((o("ABC"), o("ACB"), o("BAC")))
        assert rule.evaluate(profile).label == "A"
        assert all(t.bottom.label != "A" for t in profile.types_present())
        assert find_escapes(rule, profile) == []

    def test_agreed_profile_gives_empty(self):
        assert find_escapes(borda(o("ABC")), Profile((o("BCA"),) * 4)) == []


class TestLInferior:
    def test_no_inferior_subsets_four_voters(self):
        assert find_L_inferior(borda(o("ABC")), PROFILE_2, o("ABC"), o("ACB")) == []

    def test_94_inferior_sizes(self):
        subsets = find_L_inferior(BORDA_94, PROFILE_94, o("ACB"), o("CAB"))
        # Fewer than 13 switchers leave B elected, which ACB ranks below
        # the full-switch winner C, so every size up to 12 is inferior.
        assert sorted(len(s) for s in subsets) == list(range(13))

    def test_full_set_never_returned(self):
        members = voters_of_type(PROFILE_94, o("ACB"))
        for subset in find_L_inferior(BORDA_94, PROFILE_94, o("ACB"), o("CAB")):
            assert subset < members

    def test_constant_rule_has_none(self):
        rule = ScoringRule.from_ints([1, 1, 1], o("ABC"))
        assert find_L_inferior(rule, PROFILE_94, o("ABC"), o("ACB")) == []

    def test_absent_type_rejected(self):
        # Both walks check the type, and so does the construction.
        for rule in (BORDA_94, SubsetWalk(BORDA_94)):
            with pytest.raises(SafevoteError, match="type CAB not present in the profile"):
                find_L_inferior(rule, PROFILE_2, o("CAB"), o("ABC"))
            with pytest.raises(SafevoteError, match="type CAB not present in the profile"):
                construct_safe_from_inferior(rule, PROFILE_2, o("CAB"), o("ABC"))

    def test_same_order_rejected(self):
        with pytest.raises(ValueError):
            find_L_inferior(BORDA_94, PROFILE_94, o("ABC"), o("ABC"))

    def test_subset_path_agrees_on_sizes(self):
        profile = counts_profile(D3, {"ACB": 4, "BAC": 3, "CAB": 2})
        fast = find_L_inferior(BORDA_94, profile, o("ACB"), o("CAB"))
        slow = find_L_inferior(SubsetWalk(BORDA_94), profile, o("ACB"), o("CAB"))
        assert sorted({len(s) for s in fast}) == sorted({len(s) for s in slow})


ENDUP_94 = construct_safe_from_endup(BORDA_94, PROFILE_94, min(voters_of_type(PROFILE_94, o("ACB"))), o("CAB"))


class TestSizePathReadsRuns:
    """Under an anonymous rule the searches read the rule's runs kernel and
    never score a coalition through `switches`."""

    SEARCHES = {
        "has_incentive": lambda: [has_incentive(BORDA_94, PROFILE_94, 0, o(s)) for s in ("ACB", "BAC", "CAB")],
        "classify_safety": lambda: [
            verdict
            for type_order in PROFILE_94.types_present()
            for verdict in safety_verdicts(BORDA_94, PROFILE_94, type_order, all_orders(D3))
        ],
        "threshold_scan": lambda: [
            threshold_scan(BORDA_94, PROFILE_94, o("ABC"), o("ACB")),
            threshold_scan(BORDA_94, PROFILE_94, o("ACB"), o("CAB")),
        ],
        "find_L_inferior": lambda: find_L_inferior(BORDA_94, PROFILE_94, o("ACB"), o("CAB")),
        "lift_safe_pivotal": lambda: lift_safe_pivotal(BORDA_94, ENDUP_94).to_json(),
    }

    def test_searches_never_call_the_switch_kernel(self, monkeypatch):
        pinned = {name: search() for name, search in self.SEARCHES.items()}
        overshoot, safe_acb, safe_cab = pinned["classify_safety"]
        assert (overshoot.kind, len(overshoot.good), len(overshoot.bad)) == (UnsafeKind.OVERSHOOT, 4, 10)
        assert overshoot.good == overshoot.incentive.coalition == frozenset(range(4))
        assert overshoot.witness_bad == overshoot.bad == frozenset(range(10))
        assert (safe_acb.status, len(safe_acb.incentive.coalition)) == (SafetyStatus.SAFE, 13)
        assert (safe_cab.status, len(safe_cab.incentive.coalition)) == (SafetyStatus.SAFE, 4)
        assert [w and len(w.coalition) for w in pinned["has_incentive"]] == [4, None, None]
        abc_acb, acb_cab = pinned["threshold_scan"]
        assert "".join(w.label for w in abc_acb.values()) == "BBBB" + "A" * 6 + "C" * 8
        assert "".join(w.label for w in acb_cab.values()) == "B" * 13 + "CCC"
        assert [len(s) for s in pinned["find_L_inferior"]] == list(range(13))
        # The ACB voters' CAB vote is safe but no single voter moves the
        # winner, so the lift peels one voter off a moving coalition.
        lifted = json.loads(pinned["lift_safe_pivotal"])
        assert ENDUP_94.profile == PROFILE_94 and len(ENDUP_94.sets["coalition"]) == 13
        assert (lifted["voter"], lifted["sets"], lifted["verified"]) == (30, {"coalition": [30]}, True)

        def kernel(*args):
            raise AssertionError("the size path asked the switch kernel or walked subsets")

        monkeypatch.setattr(ScoringRule, "switches", kernel)
        monkeypatch.setattr(strategy, "_subsets", kernel)
        for name, search in self.SEARCHES.items():
            assert search() == pinned[name], name


class TestOneTallyPerScoreVector:
    """Every question on one profile reads its one tally per score vector."""

    def test_analyze_scans_the_ballots_once(self, scanned):
        def report(analysis):
            return analysis.winner, analysis.types, [c.to_json() for c in analysis.escapes]

        profile = scanned(PROFILE_94)
        assert report(analyze(BORDA_94, profile)) == report(analyze(BORDA_94, PROFILE_94))
        assert profile.counts.scans == 1

    def test_safety_scans_the_ballots_once(self, scanned):
        profile = scanned(PROFILE_94)
        verdict = classify_safety(BORDA_94, profile, 0, o("ACB"))
        table = threshold_scan(BORDA_94, profile, o("ABC"), o("ACB"))
        assert (verdict.kind, len(table)) == (UnsafeKind.OVERSHOOT, 18)
        assert profile.counts.scans == 1
        assert plurality(o("BAC")).evaluate(profile) == o("BAC").top
        assert profile.counts.scans == 2


class TestLiftReadsRuns:
    def test_runs_and_subset_walk_lift_alike(self):
        # Count profiles of at most 12 voters; the subset walk asks every
        # member's incentive over all of the type's subsets.
        rng = random.Random(12)
        lifts = peeled = 0
        for trial in range(300):
            domain = (D3, D4)[trial % 4 == 3]
            tiebreak = rng.choice(all_orders(domain))
            rule = (borda(tiebreak), plurality(tiebreak), k_approval(2, tiebreak))[trial % 3]
            ballots = rng.choices(rng.sample(all_orders(domain), rng.randint(1, 4)), k=rng.randint(2, 12))
            profile = Profile.from_counts(list(Counter(ballots).items()))
            for type_order in profile.types_present():
                voter = min(voters_of_type(profile, type_order))
                for strategic in all_orders(domain):
                    if strategic == type_order:
                        continue
                    try:
                        cert = construct_safe_from_endup(rule, profile, voter, strategic)
                    except NoIncentiveError:
                        continue
                    if cert is None:
                        continue
                    lifted = lift_safe_pivotal(rule, cert)
                    assert lifted.to_json() == lift_safe_pivotal(SubsetWalk(rule), cert).to_json()
                    assert lifted.verified
                    lifts += 1
                    peeled += lifted.profile != cert.profile
        assert lifts > 100 and 0 < peeled < lifts


def key_minimum_of_maximal(rule, profile, type_order, strategic):
    """The largest inferior subset, first in sorted order, among the
    pairwise-maximal ones, from every subset replayed through `evaluate`."""
    members = sorted(voters_of_type(profile, type_order))
    full = rule.evaluate(switch_votes(profile, frozenset(members), strategic))
    family = [
        frozenset(subset)
        for size in range(len(members))
        for subset in itertools.combinations(members, size)
        if type_order.prefers(full, rule.evaluate(switch_votes(profile, frozenset(subset), strategic)))
    ]
    maximal = [s for s in family if not any(s < t for t in family)]
    return min(maximal, key=lambda s: (-len(s), sorted(s)), default=None)


class TestInferiorWalk:
    def test_runs_and_subset_walk_construct_alike(self):
        # Count profiles of at most 12 voters: the runs give one prefix per
        # inferior size, the subset walk every subset, largest first.
        rng = random.Random(23)
        built = 0
        for trial in range(150):
            domain = (D3, D4)[trial % 4 == 3]
            tiebreak = rng.choice(all_orders(domain))
            rule = (borda(tiebreak), plurality(tiebreak), k_approval(2, tiebreak))[trial % 3]
            ballots = rng.choices(rng.sample(all_orders(domain), rng.randint(1, 4)), k=rng.randint(2, 12))
            profile = Profile.from_counts(list(Counter(ballots).items()))
            for type_order in profile.types_present():
                for strategic in all_orders(domain):
                    if strategic == type_order:
                        continue
                    cert = construct_safe_from_inferior(rule, profile, type_order, strategic)
                    walked = construct_safe_from_inferior(SubsetWalk(rule), profile, type_order, strategic)
                    assert (cert and cert.to_json()) == (walked and walked.to_json())
                    built += cert is not None
        assert built > 100

    @pytest.mark.parametrize("n", [2, 3])
    def test_table_rules_shift_the_key_minimum_of_the_maximal_sets(self, n):
        built = 0
        for rule in [family(n, 3, seed) for family in (random_table_rule, perturbed_dictatorship) for seed in range(3)]:
            for profile in all_profiles(rule.domain, n):
                for type_order in profile.types_present():
                    for strategic in all_orders(rule.domain):
                        if strategic == type_order:
                            continue
                        cert = construct_safe_from_inferior(rule, profile, type_order, strategic)
                        expected = key_minimum_of_maximal(rule, profile, type_order, strategic)
                        assert (cert and cert.sets["inferior"]) == expected
                        built += cert is not None
        assert built > 0


class TestConstructSafe:
    def test_from_inferior_94(self):
        cert = construct_safe_from_inferior(BORDA_94, PROFILE_94, o("ACB"), o("CAB"))
        assert cert is not None
        assert cert.claim == "SafelyManipulable"
        assert cert.verified
        assert verify_certificate(BORDA_94, cert)
        assert len(cert.sets["inferior"]) == 12
        assert len(cert.sets["coalition"]) == 3

    def test_from_inferior_chain_inequality(self):
        cert = construct_safe_from_inferior(BORDA_94, PROFILE_94, o("ACB"), o("CAB"))
        inferior, coalition = cert.sets["inferior"], cert.sets["coalition"]
        partial = BORDA_94.evaluate(switch_votes(PROFILE_94, inferior, o("CAB")))
        members = voters_of_type(PROFILE_94, o("ACB"))
        full = BORDA_94.evaluate(switch_votes(PROFILE_94, members, o("CAB")))
        joint = BORDA_94.evaluate(switch_votes(PROFILE_94, inferior | coalition, o("CAB")))
        assert o("ACB").prefers(full, partial)
        assert not o("ACB").prefers(full, joint)

    def test_from_inferior_scaled_94(self):
        # The 94-voter fixture scaled by 1,000: the construction builds the
        # one prefix it shifts, and its certificate stays byte-identical.
        profile = Profile.from_counts([(order, 1000 * count) for order, count in PROFILE_94.counts.items()])
        cert = construct_safe_from_inferior(BORDA_94, profile, o("ACB"), o("CAB"))
        assert (cert.verified, len(cert.sets["inferior"]), len(cert.sets["coalition"])) == (True, 12000, 3000)
        digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
        assert digest == "fe96e725986751f846240419b25dbd202f515e5f380095112e6293a3ccd2738b"

    def test_from_inferior_none_without_subsets(self):
        assert construct_safe_from_inferior(borda(o("ABC")), PROFILE_2, o("ABC"), o("ACB")) is None

    def test_from_endup_already_safe(self):
        voter = min(voters_of_type(PROFILE_94, o("ACB")))
        cert = construct_safe_from_endup(BORDA_94, PROFILE_94, voter, o("CAB"))
        assert cert is not None
        assert cert.profile == PROFILE_94
        assert cert.verified
        assert verify_certificate(BORDA_94, cert)

    def test_from_endup_unsafe_at_profile(self):
        # A sampled table rule where voter 1's vote is unsafe at the
        # profile but the full type switch weakly improves: the emitted
        # certificate lives at a shifted profile yet still verifies.
        rule = random_table_rule(3, 3, 0)
        profile = Profile((o("ABC"),) * 3)
        verdict = classify_safety(rule, profile, 0, o("ACB"))
        assert verdict.status == SafetyStatus.UNSAFE
        cert = construct_safe_from_endup(rule, profile, 0, o("ACB"))
        assert cert is not None
        assert cert.profile != profile
        assert cert.verified
        assert verify_certificate(rule, cert)

    def test_from_endup_full_switch_worsens(self):
        assert construct_safe_from_endup(BORDA_94, PROFILE_94, 0, o("ACB")) is None

    def test_from_endup_requires_incentive(self):
        with pytest.raises(NoIncentiveError):
            construct_safe_from_endup(plurality(o("ABC")), PROFILE_1, 3, o("CAB"))


class TestVerifiers:
    def test_gs_pivotal_manipulation_found(self):
        rule = plurality(o("ABC"))
        cert = verify_gs(rule, n=4)
        assert cert is not None
        assert cert.claim == "GS-manipulable"
        assert verify_certificate(rule, cert)

    def test_gs_none_for_dictatorship(self):
        assert verify_gs(dictatorial_rule()) is None

    def test_safely_manipulable_borda_four_voters(self):
        rule = borda(o("ABC"))
        cert = verify_safely_manipulable(rule, n=4)
        assert cert is not None
        assert cert.claim == "SafelyManipulable"
        assert verify_certificate(rule, cert)

    def test_safely_manipulable_none_for_dictatorship(self):
        assert verify_safely_manipulable(dictatorial_rule()) is None

    def test_safe_pivotal_none_for_dictatorship(self):
        assert verify_safe_pivotal(dictatorial_rule()) is None

    def test_sampled_rules_yield_all_three_certificates(self):
        for seed in range(25):
            rule = random_table_rule(2, 3, seed)
            for search in (verify_gs, verify_safely_manipulable, verify_safe_pivotal):
                cert = search(rule)
                assert cert is not None
                assert verify_certificate(rule, cert)

    def test_safe_scans_at_depth_keep_their_certificates(self):
        # Each certificate's JSON is pinned by its sha256.  All three scans
        # walk 5,831 of the 13,824 profiles before the first move.
        pinned = {
            verify_gs: "7dcc513f8f329987c38e7933918ae8fa64eb3d8dc8eb5ffcbb7b5b5503c6eaea",
            verify_safe_pivotal: "1140e1e621864eb86e5da6e4e9b14fb6b8e9d74c26bad9f65409daa5718392ee",
            verify_safely_manipulable: "2f51c8683d9c8db16f367998c2361a4a7c7aae215ed4a2725957064225c64815",
        }
        rule = perturbed_dictatorship(3, 4, 0)
        for search, digest in pinned.items():
            cert = search(rule)
            assert cert.profile.index == 5831
            assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest, search.__name__
            assert verify_certificate(rule, cert)

    def test_safe_pivotal_certificate_is_gs_certificate(self):
        rule = random_table_rule(2, 3, 11)
        cert = verify_safe_pivotal(rule)
        as_gs = Certificate(
            claim="GS-manipulable",
            profile=cert.profile,
            voter=cert.voter,
            strategic_order=cert.strategic_order,
            sets=dict(cert.sets),
            outcomes=dict(cert.outcomes),
            rule_fingerprint=cert.rule_fingerprint,
        )
        assert verify_certificate(rule, as_gs)

    @staticmethod
    def replaying_candidates(rule, n, claim):
        """(profile, voter, strategic order) in canonical scan order whose
        bare candidate certificate for the claim replays."""
        orders = all_orders(rule.domain)
        for profile in all_profiles(rule.domain, n):
            for voter in range(n):
                for strategic in orders:
                    if strategic == profile.orders[voter]:
                        continue
                    candidate = Certificate(claim=claim, profile=profile, voter=voter, strategic_order=strategic)
                    if verify_certificate(rule, candidate):
                        yield profile, voter, strategic

    @pytest.mark.parametrize("case", ["table-0", "table-2", "table-9", "table-15", "table-22", "plurality-4"])
    def test_scans_return_first_replaying_candidate(self, case):
        kind, arg = case.split("-")
        rule, n = (plurality(o("ABC")), int(arg)) if kind == "plurality" else (random_table_rule(2, 3, int(arg)), 2)
        for claim, search in (("GS-manipulable", verify_gs), ("SafePivotal", verify_safe_pivotal)):
            cert = search(rule, n=n)
            assert (cert.profile, cert.voter, cert.strategic_order) == next(self.replaying_candidates(rule, n, claim))
            assert cert.sets == {"coalition": frozenset({cert.voter})}
        cert = verify_safely_manipulable(rule, n=n)
        assert verify_certificate(rule, cert)
        # No earlier profile admits any replaying candidate.
        first_profile, _, _ = next(self.replaying_candidates(rule, n, "SafelyManipulable"))
        assert first_profile == cert.profile

    def test_budget_exhaustion_is_inconclusive(self):
        with pytest.raises(InconclusiveError) as exc:
            verify_gs(dictatorial_rule(), budget=1)
        assert exc.value.scanned == 1

    @pytest.mark.parametrize("search", [verify_gs, verify_safely_manipulable, verify_safe_pivotal])
    @pytest.mark.parametrize("budget", [0, -1])
    def test_no_budget_stops_before_any_move(self, search, budget):
        class Untouchable(Rule):
            domain, anonymous, n = D3, False, 2

            def evaluate(self, profile):
                raise AssertionError("a move was tried")

            switches = solo_switches = evaluate

        with pytest.raises(InconclusiveError) as exc:
            search(Untouchable(), budget=budget)
        assert exc.value.scanned == budget

    def test_lift_agrees_with_direct_search(self):
        for seed in range(40):
            rule = random_table_rule(2, 3, 100 + seed)
            safe_cert = verify_safely_manipulable(rule)
            direct = verify_safe_pivotal(rule)
            assert safe_cert is not None and direct is not None
            lifted = lift_safe_pivotal(rule, safe_cert)
            assert lifted.claim == "SafePivotal"
            assert lifted.verified
            assert verify_certificate(rule, lifted)

    def test_lift_rejects_wrong_claim(self):
        rule = random_table_rule(2, 3, 5)
        cert = verify_gs(rule)
        with pytest.raises(ValueError):
            lift_safe_pivotal(rule, cert)

    def test_lift_rejects_a_vote_with_no_moving_coalition(self):
        # The BCA voters' favourite B wins, so none of them has an incentive,
        # and no coalition of two or more can be peeled to a pivotal voter.
        voter = 51
        assert PROFILE_94.orders[voter] == o("BCA")
        bare = Certificate(claim="SafelyManipulable", profile=PROFILE_94, voter=voter, strategic_order=o("ACB"))
        with pytest.raises(SafevoteError, match="certificate does not lift: no moving coalition found"):
            lift_safe_pivotal(BORDA_94, bare)

    @pytest.mark.parametrize("voter", [-1, PROFILE_94.n])
    def test_lift_rejects_a_voter_out_of_range(self, voter):
        bare = Certificate(claim="SafelyManipulable", profile=PROFILE_94, voter=voter, strategic_order=o("ACB"))
        with pytest.raises(ValueError, match=re.escape(f"voter {voter} is outside 0..{PROFILE_94.n - 1}")):
            lift_safe_pivotal(BORDA_94, bare)

    def test_needs_n_for_scoring_rules(self):
        with pytest.raises(ValueError):
            verify_gs(borda(o("ABC")))


class TestSharedFirstLine:
    """Profiles of the walk's first line, shared by every scan at their
    (domain, n), carry what earlier questions left on them."""

    def test_cold_and_warm_walks_give_the_same_certificates(self, monkeypatch):
        rule = random_table_rule(2, 3, 3)
        searches = (verify_gs, verify_safely_manipulable, verify_safe_pivotal)
        cold = []
        for search in searches:
            monkeypatch.setitem(D3.__dict__, "_first_lines", {})
            cold.append(search(rule).to_json())
        # A scoring rule's predicate check walks every profile, so it leaves
        # a tally on each shared one.
        check_predicates(borda(o("ABC")), 2)
        assert all("_tallies" in profile.__dict__ for profile in D3._first_lines[2])
        assert [search(rule).to_json() for search in searches] == cold

    def test_scoring_rules_read_their_own_scores_off_a_shared_profile(self):
        rules = (borda(o("ABC")), plurality(o("CBA")), k_approval(2, o("BAC")), borda(o("ABC")))
        for profile in itertools.islice(all_profiles(D3, 3), 6):
            for rule in rules:
                expected = {a: sum(rule.weights[order.rank(a)] for order in profile.orders) for a in D3}
                assert rule.scores(profile) == expected
            assert len(profile._tallies) >= 3


class TestCertificateRecords:
    """Each producer's certificate replays the move it records."""

    def test_escapes(self):
        rule = borda(o("ABC"))
        certificates = [c for profile in all_profiles(D3, 3) for c in find_escapes(rule, profile)]
        assert len(certificates) == 21
        for cert in certificates:
            assert_replays_own_record(rule, cert)

    def test_constructions_94(self):
        voter = min(voters_of_type(PROFILE_94, o("ACB")))
        from_endup = construct_safe_from_endup(BORDA_94, PROFILE_94, voter, o("CAB"))
        from_inferior = construct_safe_from_inferior(BORDA_94, PROFILE_94, o("ACB"), o("CAB"))
        for cert in (from_endup, from_inferior):
            assert_replays_own_record(BORDA_94, cert)
        assert from_inferior.profile == switch_votes(PROFILE_94, from_inferior.sets["inferior"], o("CAB"))

    def test_from_endup_at_shifted_profile(self):
        rule = random_table_rule(3, 3, 0)
        cert = construct_safe_from_endup(rule, Profile((o("ABC"),) * 3), 0, o("ACB"))
        assert "inferior" in cert.sets
        assert_replays_own_record(rule, cert)

    def test_verifiers_and_lift(self):
        peeled = 0
        for seed in range(40):
            rule = random_table_rule(2, 3, 100 + seed)
            certificates = [search(rule) for search in (verify_gs, verify_safely_manipulable, verify_safe_pivotal)]
            lifted = lift_safe_pivotal(rule, certificates[1])
            peeled += lifted.profile != certificates[1].profile
            for cert in (*certificates, lifted):
                assert_replays_own_record(rule, cert)
        # Both lift constructions ran: already pivotal, and peeled.
        assert 0 < peeled < 40

    def test_verifiers_on_a_scoring_rule(self):
        rule = plurality(o("ABC"))
        for search in (verify_gs, verify_safely_manipulable, verify_safe_pivotal):
            assert_replays_own_record(rule, search(rule, n=4))


class TestCertificates:
    def test_json_payload(self):
        rule = plurality(o("ABC"))
        cert = verify_gs(rule, n=4)
        payload = cert.to_json_dict()
        assert list(payload) == [
            "claim", "profile", "voter", "strategic_order",
            "sets", "outcomes", "verified", "rule_fingerprint",
        ]
        assert payload["voter"] == cert.voter + 1
        assert payload["rule_fingerprint"] == rule.fingerprint()
        assert all(v >= 1 for vs in payload["sets"].values() for v in vs)
        assert json.loads(cert.to_json()) == payload

    def test_json_is_json_dumps(self):
        rules = [random_table_rule(2, 3, seed) for seed in range(10)]
        certificates = [search(rule) for rule in rules for search in (verify_gs, verify_safely_manipulable, verify_safe_pivotal)]
        certificates += [search(plurality(o("ABC")), n=4) for search in (verify_gs, verify_safely_manipulable)]
        certificates += find_escapes(BORDA_94, PROFILE_94) + [ENDUP_94, lift_safe_pivotal(BORDA_94, ENDUP_94)]
        for cert in certificates:
            assert cert.to_json() == json.dumps(cert.to_json_dict(), sort_keys=True, indent=2)

    def test_json_is_stable(self):
        rule = plurality(o("ABC"))
        cert = verify_gs(rule, n=4)
        assert cert.to_json() == verify_gs(rule, n=4).to_json()

    def test_unknown_claim_rejected(self):
        # No search emits an L-inferior certificate, so it is no claim.
        for claim in ("Bogus", "LInferior"):
            with pytest.raises(ValueError):
                Certificate(claim=claim, profile=PROFILE_1, voter=0, strategic_order=o("BAC"))

    def test_tampered_certificate_fails_verification(self):
        # Voter 3's top already wins, so no strategic vote can satisfy
        # the pivotal inequality this claim asserts.
        rule = plurality(o("ABC"))
        tampered = Certificate(
            claim="GS-manipulable", profile=PROFILE_1, voter=2, strategic_order=o("ABC")
        )
        assert not verify_certificate(rule, tampered)

    def test_out_of_range_voter_fails_verification(self):
        cert = Certificate(
            claim="GS-manipulable", profile=PROFILE_1, voter=9, strategic_order=o("BAC")
        )
        assert not verify_certificate(plurality(o("ABC")), cert)


def one_certificate_per_claim():
    """(rule, certificate) for each claim whose move `verify_certificate` replays."""
    table = random_table_rule(2, 3, 5)
    yield table, verify_gs(table)
    yield table, verify_safely_manipulable(table)
    yield table, verify_safe_pivotal(table)
    yield BORDA_94, find_escapes(BORDA_94, PROFILE_94)[0]
    yield BORDA_94, construct_safe_from_inferior(BORDA_94, PROFILE_94, o("ACB"), o("CAB"))


class TestCertificateReplay:
    """`verify_certificate` replays whatever a certificate records: its rule
    fingerprint, its coalition and both outcomes."""

    def test_untampered_certificates_verify(self):
        for rule, cert in one_certificate_per_claim():
            assert verify_certificate(rule, cert), cert.claim

    def test_replay_never_uses_a_switch_kernel(self, monkeypatch):
        certificates = list(one_certificate_per_claim())

        def kernel(*args):
            raise AssertionError("verify_certificate called a switch kernel")

        for cls in (ScoringRule, TableRule):
            monkeypatch.setattr(cls, "switches", kernel)
        monkeypatch.setattr(ScoringRule, "size_runs", kernel)
        for rule, cert in certificates:
            assert verify_certificate(rule, cert), cert.claim

    def test_fingerprint_renders_the_rule_once(self, monkeypatch):
        rendered = []
        config_text = TableRule.config_text
        monkeypatch.setattr(TableRule, "config_text", lambda rule: rendered.append(rule) or config_text(rule))
        rule = random_table_rule(2, 3, 5)
        for search in (verify_gs, verify_safely_manipulable, verify_safe_pivotal):
            cert = search(rule)
            assert verify_certificate(rule, cert), cert.claim
            assert cert.rule_fingerprint == rule.fingerprint()
        assert rendered == [rule]

    def test_gs_with_swapped_outcomes_and_bogus_fingerprint_fails(self):
        rule = random_table_rule(2, 3, 5)
        cert = verify_gs(rule)
        swapped = {"before": cert.outcomes["after"], "after": cert.outcomes["before"]}
        assert not verify_certificate(rule, dataclasses.replace(cert, outcomes=swapped, rule_fingerprint="bogus"))

    def test_swapped_outcomes_fail(self):
        for rule, cert in one_certificate_per_claim():
            swapped = {"before": cert.outcomes["after"], "after": cert.outcomes["before"]}
            assert not verify_certificate(rule, dataclasses.replace(cert, outcomes=swapped)), cert.claim

    def test_foreign_fingerprint_fails(self):
        foreign = random_table_rule(2, 3, 6).fingerprint()
        for rule, cert in one_certificate_per_claim():
            assert foreign != rule.fingerprint()
            assert not verify_certificate(rule, dataclasses.replace(cert, rule_fingerprint=foreign)), cert.claim

    def test_emptied_coalition_fails(self):
        for rule, cert in one_certificate_per_claim():
            assert not verify_certificate(rule, dataclasses.replace(cert, sets={"coalition": frozenset()})), cert.claim

    def test_coalition_of_another_type_fails(self):
        cert = find_escapes(BORDA_94, PROFILE_94)[0]
        type_order = PROFILE_94.orders[cert.voter]
        stranger = next(v for v in range(PROFILE_94.n) if PROFILE_94.orders[v] != type_order)
        mixed = {"coalition": cert.sets["coalition"] | {stranger}}
        assert not verify_certificate(BORDA_94, dataclasses.replace(cert, sets=mixed))

    def test_outcomes_without_a_coalition_fail(self):
        for rule, cert in one_certificate_per_claim():
            assert not verify_certificate(rule, dataclasses.replace(cert, sets={})), cert.claim

    def test_table_replays_set_up_no_kernel_and_switch_a_solo_move_once(self, monkeypatch):
        # No replay asks either of the table's kernels.  A GS
        # certificate records the voter alone, so the record's replay is
        # the claim's solo switch: the sincere profile and the switched one
        # are each evaluated once.
        certificates = [(rule, cert) for rule, cert in one_certificate_per_claim() if isinstance(rule, TableRule)]
        assert [cert.claim for _, cert in certificates] == ["GS-manipulable", "SafelyManipulable", "SafePivotal"]
        evaluated = []
        evaluate = TableRule.evaluate

        def counted(self, profile):
            evaluated.append(profile)
            return evaluate(self, profile)

        def kernel(*args):
            raise AssertionError("verify_certificate called a switch kernel")

        monkeypatch.setattr(TableRule, "evaluate", counted)
        for name in ("switches", "solo_switches"):
            monkeypatch.setattr(TableRule, name, kernel)
        for rule, cert in certificates:
            assert verify_certificate(rule, cert), cert.claim
        rule, gs = certificates[0]
        assert gs.sets == {"coalition": frozenset({gs.voter})}
        evaluated.clear()
        assert verify_certificate(rule, gs)
        assert evaluated == [gs.profile, switch_votes(gs.profile, frozenset({gs.voter}), gs.strategic_order)]
