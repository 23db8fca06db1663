"""Unit tests for scoring rules, table rules and predicates."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from safevote import rules
from safevote.core import Domain, EditError, LinearOrder, Profile, all_orders, voters_of_type
from safevote.rules import (
    Rule,
    RulePredicateReport,
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
    enumerable_size,
    k_approval,
    parse_rule,
    plurality,
    profile_space_size,
    random_table_rule,
)
from helpers import ObjectPath, format_table_entries, randrange_table_rule, table_from_function

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
    return table_from_function(D3, n, lambda p: p.orders[voter].top)


def constant_rule(n: int, label: str = "A") -> TableRule:
    alt = D3.by_label(label)
    return TableRule(D3, n, (alt,) * profile_space_size(3, n))


class TestScoringEvaluate:
    def test_plurality_four_voters(self):
        assert plurality(o("ABC")).evaluate(PROFILE_1).label == "C"

    def test_borda_four_voters(self):
        assert borda(o("ABC")).evaluate(PROFILE_2).label == "B"

    def test_borda_94(self):
        rule = borda(o("BAC"))
        got = {a.label: s for a, s in rule.scores(PROFILE_94).items()}
        assert got == {"A": 96, "B": 99, "C": 87}
        assert rule.evaluate(PROFILE_94).label == "B"

    def test_two_approval_33(self):
        rule = k_approval(2, o("ABC"))
        got = {a.label: s for a, s in rule.scores(PROFILE_33).items()}
        assert got == {"A": 23, "B": 25, "C": 18}
        assert rule.evaluate(PROFILE_33).label == "B"

    def test_borda_41_corrected_type(self):
        rule = borda(o("CEBAD", D5))
        got = {a.label: s for a, s in rule.scores(PROFILE_41).items()}
        assert got == {"A": 59, "B": 102, "C": 110, "D": 30, "E": 109}
        assert rule.evaluate(PROFILE_41).label == "C"

    def test_borda_41_uncorrected_type_is_inconsistent(self):
        # Negative control: with the third block voting EBCAD instead of
        # EBCDA the A and D totals cannot match the documented values.
        wrong = counts_profile(D5, {"ABCDE": 10, "CEBAD": 15, "EBCAD": 14, "EDACB": 2})
        got = {a.label: s for a, s in borda(o("CEBAD", D5)).scores(wrong).items()}
        assert got["A"] == 73
        assert got["D"] == 16

    def test_agreed_profile_scores(self):
        rule = borda(o("ABC"))
        got = rule.scores(Profile((o("BCA"),) * 7))
        assert got[D3.by_label("B")] == 7 * 2
        assert got[D3.by_label("A")] == 0

    def test_score_conservation(self):
        rule = ScoringRule.from_ints([5, 2, 1], o("CAB"))
        for profile in (PROFILE_1, PROFILE_2, PROFILE_94):
            assert sum(rule.scores(profile).values()) == profile.n * 8

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


def fraction_set_up(weights, tiebreak: LinearOrder):
    """The scoring set-up in `Fraction` arithmetic: the weights, their common
    scale, the points `int(w * scale)`, the fingerprint, and whether the
    weights increase anywhere."""
    fractions = tuple(Fraction(w) for w in weights)
    scale = math.lcm(*(w.denominator for w in fractions))
    config = f"rule: scoring\nscores: {' '.join(map(str, fractions))}\ntiebreak: {tiebreak}\n"
    fingerprint = hashlib.sha256(config.encode()).hexdigest()[:16]
    increasing = any(a < b for a, b in zip(fractions, fractions[1:]))
    return fractions, scale, tuple(int(w * scale) for w in fractions), fingerprint, increasing


FRACTIONS = st.fractions(-50, 50, max_denominator=12)
WEIGHT_VALUES = st.one_of(
    st.integers(-50, 50), FRACTIONS, FRACTIONS.map(str), st.integers(-50, 50).map(str), st.floats(-50, 50, width=16)
)


class TestIntegerSetUp:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_set_up(self, data):
        weights = data.draw(st.lists(WEIGHT_VALUES, min_size=3, max_size=3))
        if data.draw(st.booleans()):
            weights.sort(key=Fraction, reverse=True)
        tiebreak = LinearOrder(tuple(data.draw(st.permutations(D3.alternatives))))
        fractions, scale, points, fingerprint, increasing = fraction_set_up(weights, tiebreak)
        if increasing:
            with pytest.raises(ValueError, match="must be non-increasing"):
                ScoringRule(tuple(weights), tiebreak)
            return
        rule = ScoringRule(tuple(weights), tiebreak)
        assert rule.weights == fractions and all(type(w) is Fraction for w in rule.weights)
        assert (rule._scale, rule._points, rule.fingerprint()) == (scale, points, fingerprint)

    @given(st.integers(-(10**30), 10**30))
    def test_integer_tokens_read_as_fraction_reads_them(self, value):
        for token in (str(value), "-" + str(abs(value))):
            weight = rules._weight(token)
            assert type(weight) is int and weight == Fraction(token)

    @pytest.mark.parametrize("token", ["1" * 4301, "-" + "1" * 4301, "0" * 4300 + "1", "1" * 4300])
    def test_long_integer_tokens_fail_as_fraction_fails(self, token):
        text = f"rule: scoring\nscores: {token} 0 0\ntiebreak: A > B > C\n"
        try:
            expected = ScoringRule((Fraction(token), 0, 0), o("ABC"))
        except ValueError as exc:
            with pytest.raises(ParseError) as parsed:
                parse_rule(text)
            assert str(parsed.value) == f"line 2: bad score vector '{token} 0 0': {exc}"
        else:
            assert parse_rule(text) == expected

    def test_integer_and_fraction_spellings_give_one_rule(self):
        ints, spelled = (
            parse_rule(f"rule: scoring\nscores: {scores}\ntiebreak: B > A > C\n") for scores in ("2 1 0", "2/1 1.0 0")
        )
        assert ints == spelled
        assert (ints._scale, ints._points, ints.fingerprint()) == (spelled._scale, spelled._points, spelled.fingerprint())


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
        for idx in range(36):
            profile = decode_profile(idx, 2, orders)
            assert profile.index == idx

    def test_first_voter_most_significant(self):
        orders = all_orders(D3)
        profile = decode_profile(6, 2, orders)
        assert [x.compact for x in profile.orders] == ["ACB", "ABC"]

    def test_all_profiles_canonical_order(self):
        first = next(all_profiles(D3, 3))
        assert all(x.compact == "ABC" for x in first.orders)
        assert sum(1 for _ in all_profiles(D3, 2)) == 36

    @pytest.mark.parametrize(
        "labels, n",
        [("ABC", 1), ("ABC", 2), ("ABC", 3), ("ABCD", 2), ("CAB", 2)],
        ids=["m3-n1", "m3-n2", "m3-n3", "m4-n2", "labels-not-sorted"],
    )
    def test_all_profiles_walks_the_encoding(self, labels, n):
        domain = Domain.from_labels(labels)
        orders = all_orders(domain)
        profiles = list(all_profiles(domain, n))
        assert len(profiles) == profile_space_size(len(domain), n)
        for index, profile in enumerate(profiles):
            # Each walked profile's index, computed from its ballots, is its
            # place in the walk.
            assert Profile(profile.orders).index == index
            assert profile.index == index
            assert profile == decode_profile(index, n, orders)


class TestTableRule:
    def test_lookup_matches_encoding(self):
        rule = table_from_function(D3, 2, borda(o("ABC")).evaluate)
        for profile in all_profiles(D3, 2):
            assert rule.evaluate(profile) == borda(o("ABC")).evaluate(profile)

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError):
            TableRule(D3, 2, (D3.by_label("A"),) * 35)

    def test_voter_count_enforced(self):
        rule = constant_rule(2)
        with pytest.raises(DomainMismatchError):
            rule.evaluate(Profile((o("ABC"),)))

    @pytest.mark.parametrize("kernel", ["evaluate", "switches", "solo_switches"])
    def test_mismatched_profile_raises_the_check_profile_messages(self, kernel):
        # `evaluate` checks a profile inline and calls `check_profile` only on
        # a mismatch; every kernel raises the same messages.
        rule = random_table_rule(2, 3, 0)
        calls = {
            "evaluate": lambda profile: rule.evaluate(profile),
            "switches": lambda profile: rule.switches(profile, profile.orders[0], all_orders(profile.domain)[-1]),
            "solo_switches": lambda profile: list(rule.solo_switches(profile, all_orders(profile.domain))),
        }
        cases = [
            (Profile((o("ABCD", Domain.of_size(4)),) * 2), "profile over ABCD does not match rule over ABC"),
            (Profile((o("ABC"),) * 3), "rule expects 2 voters, profile has 3"),
        ]
        for profile, message in cases:
            with pytest.raises(DomainMismatchError, match=f"^{message}$"):
                calls[kernel](profile)

    def test_from_function_budget(self):
        with pytest.raises(BudgetExceededError):
            table_from_function(D3, 9, lambda p: p.orders[0].top)

    def test_fingerprint_distinguishes_rules(self):
        assert constant_rule(2).fingerprint() != projection_rule(2).fingerprint()
        assert constant_rule(2).fingerprint() == constant_rule(2).fingerprint()


class TestCheckPredicates:
    def test_constant_rule_not_onto(self):
        report = check_predicates(constant_rule(2))
        assert not report.onto
        assert report.dictatorial is None

    def test_projection_rule_is_dictatorial(self):
        report = check_predicates(projection_rule(2))
        assert report.dictatorial == 0
        assert report.onto

    def test_borda_two_voters_exhaustive(self):
        report = check_predicates(borda(o("ABC")), n=2)
        assert report.onto
        assert report.dictatorial is None
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

    def test_needs_n_for_scoring_rules(self):
        with pytest.raises(ValueError):
            check_predicates(borda(o("ABC")))


def reference_predicates(rule: Rule, n: int) -> RulePredicateReport:
    """The predicate report walked over decoded `Profile` objects: every
    profile evaluated, both predicates read off the objects."""
    image = set()
    dictator_candidates = set(range(n))
    for profile in all_profiles(rule.domain, n):
        winner = rule.evaluate(profile)
        image.add(winner)
        dictator_candidates = {i for i in dictator_candidates if profile.orders[i].top == winner}
    return RulePredicateReport(
        onto=image == set(rule.domain),
        dictatorial=min(dictator_candidates) if dictator_candidates else None,
    )


def labels_table(n: int, k: int, seed: int, domain: Domain = D3) -> TableRule:
    """A uniformly drawn table over the first k labels of the domain."""
    rng = random.Random(seed)
    size = profile_space_size(len(domain), n)
    return TableRule(domain, n, tuple(domain.alternatives[rng.randrange(k)] for _ in range(size)))


class RecordingRule(Rule):
    """A rule that records every profile it is asked about."""

    def __init__(self, rule: Rule):
        self.rule, self.seen = rule, []
        self.domain, self.anonymous, self.n = rule.domain, rule.anonymous, rule.n

    def evaluate(self, profile: Profile):
        self.seen.append(profile)
        return self.rule.evaluate(profile)


class TestPredicateReportMatchesObjectPath:
    """The id-based report equals the per-`Profile` reference on the
    branches the sampling campaign never reaches, and on what it samples."""

    CASES = {
        **{f"labels-{k}-n{n}-s{seed}": (lambda n=n, k=k, seed=seed: labels_table(n, k, seed), n)
           for n in (2, 3) for k in (1, 2, 3) for seed in range(4)},
        "dictator-1": (lambda: projection_rule(2, 0), 2),
        "dictator-2": (lambda: projection_rule(2, 1), 2),
        "dictator-2-of-3": (lambda: projection_rule(3, 1), 3),
        "borda-table-n2": (lambda: table_from_function(D3, 2, borda(o("ABC")).evaluate), 2),
        "borda-table-n3": (lambda: table_from_function(D3, 3, borda(o("CAB")).evaluate), 3),
        **{f"random-n{n}-m3-s{seed}": (lambda n=n, seed=seed: random_table_rule(n, 3, seed), n)
           for n in (2, 3) for seed in range(5)},
        **{f"random-n2-m4-s{seed}": (lambda seed=seed: random_table_rule(2, 4, seed), 2) for seed in range(3)},
        "borda-n2": (lambda: borda(o("ABC")), 2),
        "plurality-n3": (lambda: plurality(o("CBA")), 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_report_matches_reference(self, case):
        make, n = self.CASES[case]
        rule = make()
        report = check_predicates(rule, n=n)
        assert report == reference_predicates(rule, n)
        assert report.exhaustive

    @pytest.mark.parametrize("m", range(1, 8))
    def test_an_order_ids_top_leads_its_block_of_ids(self, m):
        # The report reads an order id's top as id // (m-1)!.  One voter
        # whose favourite always wins is a dictator only if that reading
        # matches `top` at every id.
        orders = Domain.of_size(m)._orders
        assert [i // math.factorial(m - 1) for i in range(len(orders))] == [order.top.index for order in orders]
        rule = TableRule(Domain.of_size(m), 1, tuple(order.top for order in orders))
        assert rules._check_predicates_exhaustive(rule, 1).dictatorial == 0

    def test_a_table_draw_builds_no_order_from_a_fresh_interpreter(self):
        code = (
            "from safevote.core import Domain\n"
            "from safevote.rules import random_table_rule\n"
            "random_table_rule(1, 9, 1)\n"
            "assert '_orders' not in Domain.of_size(9).__dict__\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True)

    def test_reports_cover_every_branch(self):
        reports = [check_predicates(labels_table(2, k, 0)) for k in (1, 2, 3)]
        assert [r.onto for r in reports] == [False, False, True]
        assert check_predicates(projection_rule(2, 1)).dictatorial == 1

    def test_both_walks_stop_at_the_same_profile(self):
        # A rule undefined at one profile: both walks evaluate profiles in
        # the same order and stop there.
        stop = decode_profile(2, 2, all_orders(D3))

        class Undefined(Exception):
            pass

        class UndefinedAtStop(RecordingRule):
            def evaluate(self, profile):
                winner = super().evaluate(profile)
                if profile == stop:
                    raise Undefined(profile)
                return winner

        runs = []
        for check in (check_predicates, reference_predicates):
            rule = UndefinedAtStop(borda(o("ABC")))
            with pytest.raises(Undefined):
                check(rule, 2)
            runs.append(rule.seen)
        assert runs[0] == runs[1]
        assert len(runs[0]) == 3

    def test_winner_outside_the_domain_names_the_first_in_table_order(self):
        winners = [D3.by_label("A")] * 36
        winners[7], winners[20] = D5.by_label("E"), D5.by_label("D")
        with pytest.raises(DomainMismatchError, match="table winner E outside domain ABC"):
            TableRule(D3, 2, tuple(winners))


class TestPivotKernel:
    """`TableRule.solo_switches` yields what the default built on
    `switches` yields, in the same order."""

    @pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
    def test_random_table_rules(self, n, seed):
        rule = random_table_rule(n, 3, seed)
        orders = all_orders(D3)
        for profile in all_profiles(rule.domain, n):
            assert list(rule.solo_switches(profile, orders)) == list(Rule.solo_switches(rule, profile, orders))

    def test_tabulated_plurality_four_voters(self):
        rule = table_from_function(D3, 4, plurality(o("BCA")).evaluate)
        orders = all_orders(D3)
        for profile in all_profiles(D3, 4):
            assert list(rule.solo_switches(profile, orders)) == list(Rule.solo_switches(rule, profile, orders))

    def test_foreign_order_and_voter_count_rejected(self):
        rule = random_table_rule(2, 3, 0)
        with pytest.raises(DomainMismatchError):
            list(rule.solo_switches(Profile((o("ABC"), o("BCA"))), all_orders(D5)))
        with pytest.raises(DomainMismatchError):
            list(rule.solo_switches(Profile((o("ABC"),) * 3), all_orders(D3)))


@st.composite
def scoring_switch_setups(draw):
    """(rule, profile, type, strategic order): a scoring rule over 3 or 4
    alternatives with fractional weights, a profile of 1 to 12 voters, a
    type present in it and an order other than the type."""
    m = draw(st.sampled_from((3, 4)))
    orders = all_orders(Domain.of_size(m))
    weights = sorted(draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=m, max_size=m)), reverse=True)
    rule = ScoringRule(tuple(weights), draw(st.sampled_from(orders)))
    profile = Profile(tuple(draw(st.lists(st.sampled_from(orders), min_size=1, max_size=12))))
    type_order = draw(st.sampled_from(profile.types_present()))
    return rule, profile, type_order, draw(st.sampled_from([L for L in orders if L != type_order]))


class TestScoringSizeMemo:
    """`ScoringRule.switches` scores each coalition size once per strategic
    order and still checks every coalition it is given."""

    @given(setup=scoring_switch_setups(), rng=st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_every_subset_in_any_order_matches_the_object_path(self, setup, rng):
        rule, profile, type_order, target = setup
        members = sorted(voters_of_type(profile, type_order))
        walk = [frozenset(c) for k in range(len(members) + 1) for c in itertools.combinations(members, k)]
        rng.shuffle(walk)
        kernel = rule.switches(profile, type_order, target)
        oracle = ObjectPath(rule).switches(profile, type_order, target)
        for coalition in walk:
            assert kernel(coalition) == oracle(coalition)
        # Every size is known now; a coalition of a known size that reaches
        # outside the type (or past the last voter) is still refused.
        outsider = next((v for v in range(profile.n) if v not in members), profile.n)
        with pytest.raises(EditError):
            kernel(frozenset(members[1:]) | {outsider})


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

    @pytest.mark.parametrize(
        "n, m, seeds",
        [(1, 2, 60), (1, 3, 60), (1, 4, 30), (1, 5, 10), (1, 6, 5), (1, 7, 3), (1, 8, 1), (1, 9, 1)]
        + [(2, 3, 30), (3, 3, 10), (2, 4, 5), (3, 4, 1)],
    )
    def test_bulk_draw_matches_randrange(self, n, m, seeds):
        # The bulk draw reads `getrandbits` words in bulk, first word least
        # significant; the oracle reads them one `randrange` at a time.
        redrawn = 0
        for seed in range(seeds):
            oracle, attempts = randrange_table_rule(n, m, seed)
            assert random_table_rule(n, m, seed).winners == oracle.winners, seed
            redrawn += attempts > 1
        if (n, m) in ((1, 2), (1, 3)):
            # Some rules reject a table first, so entries left over from it
            # begin the next one.
            assert redrawn, (n, m)

    def test_no_alternatives_rejected(self):
        with pytest.raises(ValueError, match="m >= 1"):
            random_table_rule(1, 0, 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_voters_rejected(self, n):
        # No table is drawn: a profile needs at least one voter.
        with pytest.raises(ValueError, match=f"a profile needs at least one voter, got n={n}"):
            enumerable_size(3, n)
        with pytest.raises(ValueError, match="at least one voter"):
            random_table_rule(n, 3, 1)


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

    @pytest.mark.parametrize("entries", ["0: A\n+1: B\n2: C\n", "0: A\n0_1: B\n2: C\n", "0: A\n\u0661: B\n2: C\n"])
    def test_index_must_be_ascii_digits(self, tmp_path, entries):
        # As profile counts: `int` alone also reads signs, underscores and other scripts' digits.
        (tmp_path / "winners.txt").write_text(entries, encoding="utf-8")
        with pytest.raises(ParseError, match="bad index") as exc:
            parse_rule("rule: table\nn: 1\nm: 3\nentries: winners.txt\n", base_dir=str(tmp_path))
        assert exc.value.line == 2

    def test_duplicate_index_rejected(self, tmp_path):
        (tmp_path / "winners.txt").write_text("0: A\n0: B\n")
        with pytest.raises(ParseError):
            parse_rule("rule: table\nn: 1\nm: 3\nentries: winners.txt\n", base_dir=str(tmp_path))
