"""Unit tests for scoring rules, table rules, predicates, and derived rules."""

import random
from fractions import Fraction

import pytest

from safevote import rules
from safevote.core import Domain, LinearOrder, Profile, all_orders, completely_agreed
from safevote.rules import (
    AntagonismError,
    BudgetExceededError,
    DomainMismatchError,
    ParseError,
    SamplingError,
    ScoringRule,
    TableRule,
    all_profiles,
    borda,
    check_predicates,
    decode_profile,
    encode_profile,
    format_table_entries,
    k_approval,
    parse_rule,
    plurality,
    profile_space_size,
    random_table_rule,
    scores,
    subrule_minus,
    two_voter_reduction,
)

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


def projection_rule(n: int, voter: int = 0) -> TableRule:
    """Table rule electing one fixed voter's top choice."""
    return TableRule.from_function(D3, n, lambda p: p.orders[voter].top)


def constant_rule(n: int, label: str = "A") -> TableRule:
    alt = D3.by_label(label)
    return TableRule(D3, n, (alt,) * profile_space_size(3, n))


def uniform_table(n: int, seed: int) -> TableRule:
    """The first table `random_table_rule(n, 3, seed)` draws, before its
    onto and non-dictatorial checks."""
    rng = random.Random(seed)
    return TableRule(D3, n, tuple(D3.alternatives[rng.randrange(3)] for _ in range(profile_space_size(3, n))))


class TestScoringEvaluate:
    def test_plurality_four_voters(self):
        assert plurality(o("ABC")).evaluate(PROFILE_1).label == "C"

    def test_borda_four_voters(self):
        assert borda(o("ABC")).evaluate(PROFILE_2).label == "B"

    def test_borda_94(self):
        rule = borda(o("BAC"))
        got = {a.label: s for a, s in scores(rule, PROFILE_94).items()}
        assert got == {"A": 96, "B": 99, "C": 87}
        assert rule.evaluate(PROFILE_94).label == "B"

    def test_two_approval_33(self):
        rule = k_approval(2, o("ABC"))
        got = {a.label: s for a, s in scores(rule, PROFILE_33).items()}
        assert got == {"A": 23, "B": 25, "C": 18}
        assert rule.evaluate(PROFILE_33).label == "B"

    def test_borda_41_corrected_type(self):
        rule = borda(o("CEBAD", D5))
        got = {a.label: s for a, s in scores(rule, PROFILE_41).items()}
        assert got == {"A": 59, "B": 102, "C": 110, "D": 30, "E": 109}
        assert rule.evaluate(PROFILE_41).label == "C"

    def test_borda_41_uncorrected_type_is_inconsistent(self):
        # Negative control: with the third block voting EBCAD instead of
        # EBCDA the A and D totals cannot match the documented values.
        wrong = counts_profile(D5, {"ABCDE": 10, "CEBAD": 15, "EBCAD": 14, "EDACB": 2})
        got = {a.label: s for a, s in scores(borda(o("CEBAD", D5)), wrong).items()}
        assert got["A"] == 73
        assert got["D"] == 16

    def test_agreed_profile_scores(self):
        rule = borda(o("ABC"))
        got = scores(rule, completely_agreed(o("BCA"), 7))
        assert got[D3.by_label("B")] == 7 * 2
        assert got[D3.by_label("A")] == 0

    def test_score_conservation(self):
        rule = ScoringRule.from_ints([5, 2, 1], o("CAB"))
        for profile in (PROFILE_1, PROFILE_2, PROFILE_94):
            assert sum(scores(rule, profile).values()) == profile.n * 8

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            borda(o("ABC")).evaluate(PROFILE_41)


class TestScoringValidation:
    def test_increasing_weights_rejected(self):
        with pytest.raises(ValueError):
            ScoringRule.from_ints([0, 1, 2], o("ABC"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScoringRule((Fraction(1), Fraction(0)), o("ABC"))

    def test_k_approval_bounds(self):
        with pytest.raises(ValueError):
            k_approval(3, o("ABC"))
        with pytest.raises(ValueError):
            k_approval(0, o("ABC"))

    def test_constant_vector_flagged(self):
        assert ScoringRule.from_ints([1, 1, 1], o("ABC")).is_constant_vector
        assert not borda(o("ABC")).is_constant_vector


class TestTieBreaking:
    def test_strict_max_ignores_tiebreak(self):
        profile = counts_profile(D3, {"ABC": 3, "BAC": 1})
        winners = {borda(tb).evaluate(profile).label for tb in all_orders(D3)}
        assert winners == {"A"}

    def test_full_tie_goes_to_tiebreak_head(self):
        profile = Profile((o("ABC"), o("BCA"), o("CAB")))
        assert borda(o("BAC")).evaluate(profile).label == "B"
        assert borda(o("CBA")).evaluate(profile).label == "C"

    def test_anonymity_under_voter_permutation(self):
        rule = borda(o("BAC"))
        rng = random.Random(42)
        for _ in range(20):
            perm = list(range(PROFILE_1.n))
            rng.shuffle(perm)
            shuffled = Profile(tuple(PROFILE_1.orders[i] for i in perm))
            assert rule.evaluate(shuffled) == rule.evaluate(PROFILE_1)


class TestProfileEncoding:
    def test_round_trip_all_two_voter_profiles(self):
        orders = all_orders(D3)
        index = {x: i for i, x in enumerate(orders)}
        for idx in range(36):
            profile = decode_profile(idx, 2, orders)
            assert encode_profile(profile, index) == idx

    def test_first_voter_most_significant(self):
        orders = all_orders(D3)
        profile = decode_profile(6, 2, orders)
        assert [x.compact for x in profile.orders] == ["ACB", "ABC"]

    def test_all_profiles_canonical_order(self):
        first = next(all_profiles(D3, 3))
        assert all(x.compact == "ABC" for x in first.orders)
        assert sum(1 for _ in all_profiles(D3, 2)) == 36


class TestTableRule:
    def test_lookup_matches_encoding(self):
        rule = TableRule.from_function(D3, 2, borda(o("ABC")).evaluate)
        for profile in all_profiles(D3, 2):
            assert rule.evaluate(profile) == borda(o("ABC")).evaluate(profile)

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError):
            TableRule(D3, 2, (D3.by_label("A"),) * 35)

    def test_voter_count_enforced(self):
        rule = constant_rule(2)
        with pytest.raises(DomainMismatchError):
            rule.evaluate(Profile((o("ABC"),)))

    def test_from_function_budget(self):
        with pytest.raises(BudgetExceededError):
            TableRule.from_function(D3, 9, lambda p: p.orders[0].top)

    def test_fingerprint_distinguishes_rules(self):
        assert constant_rule(2).fingerprint() != projection_rule(2).fingerprint()
        assert constant_rule(2).fingerprint() == constant_rule(2).fingerprint()


class TestCheckPredicates:
    def test_constant_rule_not_onto(self):
        report = check_predicates(constant_rule(2))
        assert not report.onto
        assert report.dictatorial is None
        assert report.anonymous
        assert not report.weakly_unanimous
        # Everyone-ranks-A-last profiles still elect A.
        assert report.antagonistic is not None
        assert report.agreed_image == {D3.by_label("A")}

    def test_projection_rule_is_dictatorial(self):
        report = check_predicates(projection_rule(2))
        assert report.dictatorial == 0
        assert report.onto
        assert not report.anonymous

    def test_borda_two_voters_exhaustive(self):
        report = check_predicates(borda(o("ABC")), n=2)
        assert report.onto
        assert report.dictatorial is None
        assert report.anonymous
        assert report.weakly_unanimous
        assert report.antagonistic is None
        assert report.agreed_image == set(D3)
        assert report.exhaustive

    def test_analytic_shortcut_agrees_with_exhaustive(self, monkeypatch):
        cases = [
            (rule, n, check_predicates(rule, n=n))
            for rule in (borda(o("ABC")), plurality(o("CBA")), k_approval(2, o("BAC")))
            for n in (2, 3)
        ]
        monkeypatch.setattr(rules, "DEFAULT_ENUMERATION_BOUND", 1)
        for rule, n, exhaustive in cases:
            assert exhaustive.exhaustive
            analytic = check_predicates(rule, n=n)
            assert analytic.onto == exhaustive.onto
            assert analytic.dictatorial == exhaustive.dictatorial
            assert analytic.anonymous == exhaustive.anonymous
            assert analytic.weakly_unanimous == exhaustive.weakly_unanimous
            assert (analytic.antagonistic is None) == (exhaustive.antagonistic is None)
            assert analytic.agreed_image == exhaustive.agreed_image
            assert not analytic.exhaustive

    def test_space_past_the_bound_takes_the_analytic_path(self):
        # (3!)^9 is about 10 million profiles, past DEFAULT_ENUMERATION_BOUND.
        report = check_predicates(borda(o("ABC")), n=9)
        assert not report.exhaustive
        assert report.onto and report.dictatorial is None

    def test_no_shortcut_for_constant_vector(self, monkeypatch):
        rule = ScoringRule.from_ints([1, 1, 1], o("ABC"))
        monkeypatch.setattr(rules, "DEFAULT_ENUMERATION_BOUND", 1)
        with pytest.raises(BudgetExceededError):
            check_predicates(rule, n=2)

    def test_no_shortcut_for_table_rules(self, monkeypatch):
        rule = constant_rule(2)
        monkeypatch.setattr(rules, "DEFAULT_ENUMERATION_BOUND", 10)
        with pytest.raises(BudgetExceededError):
            check_predicates(rule)

    def test_weakly_unanimous_implies_onto(self):
        for seed in range(30):
            rule = uniform_table(2, seed)
            report = check_predicates(rule)
            if report.weakly_unanimous:
                assert report.onto

    def test_needs_n_for_scoring_rules(self):
        with pytest.raises(ValueError):
            check_predicates(borda(o("ABC")))


class TestTwoVoterReduction:
    def test_agreed_diagonal(self):
        rule = borda(o("ABC"))
        reduced = two_voter_reduction(rule, frozenset({0, 1}), frozenset({2, 3}), n=4)
        for order in all_orders(D3):
            pair = Profile((order, order))
            assert reduced.evaluate(pair) == rule.evaluate(completely_agreed(order, 4))

    def test_faithful_to_blow_up(self):
        rule = borda(o("ABC"))
        part1, part2 = frozenset({0, 1}), frozenset({2, 3})
        reduced = two_voter_reduction(rule, part1, part2, n=4)
        for p in all_orders(D3):
            for q in all_orders(D3):
                expanded = Profile((p, p, q, q))
                assert reduced.evaluate(Profile((p, q))) == rule.evaluate(expanded)

    def test_dictatorship_transfers(self):
        parent = projection_rule(3)
        reduced = two_voter_reduction(parent, frozenset({0}), frozenset({1, 2}))
        assert check_predicates(reduced).dictatorial == 0

    def test_invalid_partitions_rejected(self):
        rule = borda(o("ABC"))
        with pytest.raises(ValueError):
            two_voter_reduction(rule, frozenset(), frozenset({0, 1}), n=2)
        with pytest.raises(ValueError):
            two_voter_reduction(rule, frozenset({0}), frozenset({0, 1}), n=2)
        with pytest.raises(ValueError):
            two_voter_reduction(rule, frozenset({0}), frozenset({1}), n=3)

    def test_needs_n_for_scoring_rules(self):
        with pytest.raises(ValueError):
            two_voter_reduction(borda(o("ABC")), frozenset({0}), frozenset({1}))


class TestSubrule:
    def test_borda_minus_c_matches_lifted_parent(self):
        parent = borda(o("ABC"))
        sub = subrule_minus(parent, D3.by_label("C"))
        assert sub.domain.labels == "AB"
        c = D3.by_label("C")
        for profile in all_profiles(sub.domain, 2):
            lifted = Profile(
                tuple(
                    LinearOrder(tuple(D3.by_label(a.label) for a in x.ranking) + (c,))
                    for x in profile.orders
                )
            )
            assert sub.evaluate(profile).label == parent.evaluate(lifted).label
            assert sub.evaluate(profile).label != "C"

    def test_subrule_is_proper_for_borda(self):
        sub = subrule_minus(borda(o("ABC")), D3.by_label("C"))
        report = check_predicates(sub, n=2)
        assert report.onto
        assert report.dictatorial is None

    def test_dictatorship_restricts(self):
        sub = subrule_minus(projection_rule(2), D3.by_label("C"))
        assert check_predicates(sub).dictatorial == 0

    def test_antagonistic_parent_detected(self):
        sub = subrule_minus(constant_rule(2, "A"), D3.by_label("A"))
        with pytest.raises(AntagonismError):
            sub.evaluate(next(all_profiles(sub.domain, 2)))

    def test_removed_alternative_must_exist(self):
        with pytest.raises(DomainMismatchError):
            subrule_minus(borda(o("ABC")), D5.by_label("E"))


class TestRandomTableRule:
    def test_deterministic_given_seed(self):
        assert random_table_rule(2, 3, 99).winners == random_table_rule(2, 3, 99).winners

    def test_constraints_hold_post_hoc(self):
        for seed in range(20):
            rule = random_table_rule(2, 3, seed)
            report = check_predicates(rule)
            assert report.onto
            assert report.dictatorial is None

    def test_rejection_budget_reports_attempts(self):
        with pytest.raises(SamplingError) as exc:
            # Every one-alternative table elects voter 1's top choice.
            random_table_rule(2, 1, 0)
        assert "after 1000 attempts" in str(exc.value)

    def test_space_bound_enforced(self):
        with pytest.raises(BudgetExceededError):
            random_table_rule(9, 3, 0)


class TestRuleConfig:
    SCORING_TEXT = "rule: scoring\nscores: 2 1 0\ntiebreak: B > A > C\n"

    def test_parse_scoring(self):
        rule = parse_rule(self.SCORING_TEXT)
        assert isinstance(rule, ScoringRule)
        assert rule.weights == (2, 1, 0)
        assert rule.tiebreak.compact == "BAC"
        assert rule.evaluate(PROFILE_94).label == "B"

    def test_scoring_config_round_trip(self):
        rule = borda(o("BAC"))
        assert parse_rule(rule.config_text()) == rule

    def test_fractional_weights(self):
        rule = parse_rule("rule: scoring\nscores: 1 1/2 0\ntiebreak: A > B > C\n")
        assert rule.weights == (1, Fraction(1, 2), 0)

    def test_parse_table_via_entries_file(self, tmp_path):
        rule = random_table_rule(2, 3, 7)
        (tmp_path / "winners.txt").write_text(format_table_entries(rule))
        config = "rule: table\nn: 2\nm: 3\nentries: winners.txt\n"
        parsed = parse_rule(config, base_dir=str(tmp_path))
        assert isinstance(parsed, TableRule)
        assert parsed.winners == rule.winners

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("rule: runoff\n")

    def test_missing_fields_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("rule: scoring\nscores: 2 1 0\n")
        with pytest.raises(ParseError):
            parse_rule("rule: table\nn: 2\nm: 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("rule: scoring\nrule: scoring\n")

    def test_non_contiguous_table_rejected(self, tmp_path):
        (tmp_path / "winners.txt").write_text("0: A\n2: B\n")
        with pytest.raises(ParseError):
            parse_rule("rule: table\nn: 1\nm: 3\nentries: winners.txt\n", base_dir=str(tmp_path))

    def test_winner_outside_domain_reports_line(self, tmp_path):
        (tmp_path / "winners.txt").write_text("0: A\n1: Z\n2: B\n")
        with pytest.raises(ParseError) as exc:
            parse_rule("rule: table\nn: 1\nm: 3\nentries: winners.txt\n", base_dir=str(tmp_path))
        assert exc.value.line == 2

    def test_duplicate_index_rejected(self, tmp_path):
        (tmp_path / "winners.txt").write_text("0: A\n0: B\n")
        with pytest.raises(ParseError):
            parse_rule("rule: table\nn: 1\nm: 3\nentries: winners.txt\n", base_dir=str(tmp_path))
