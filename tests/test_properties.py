"""Property-based tests for the library's structural invariants."""

import contextlib
import io
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import ObjectPath, SubsetWalk, perturbed_dictatorship
from safevote import cli, strategy
from safevote.core import (
    MAX_VOTERS,
    Domain,
    DomainMismatchError,
    EditError,
    LinearOrder,
    ParseError,
    Profile,
    _is_integer,
    all_orders,
    all_profiles,
    format_profile,
    parse_profile,
    switch_votes,
    voters_of_type,
)
from safevote.rules import (
    Rule,
    ScoringRule,
    borda,
    decode_profile,
    k_approval,
    parse_rule,
    plurality,
    random_table_rule,
)
from safevote.strategy import (
    Certificate,
    SafetyStatus,
    UnsafeKind,
    analyze,
    classify_safety,
    construct_safe_from_inferior,
    find_escapes,
    find_L_inferior,
    has_incentive,
    incentives,
    lift_safe_pivotal,
    safety_verdicts,
    verify_certificate,
    verify_gs,
    verify_safe_pivotal,
    verify_safely_manipulable,
)

D3 = Domain.from_labels("ABC")
D4 = Domain.from_labels("ABCD")
ORDERS_3 = all_orders(D3)


def orders_for(domain: Domain):
    return st.sampled_from(all_orders(domain))


def profiles_for(domain: Domain, max_n: int = 6):
    return st.lists(orders_for(domain), min_size=1, max_size=max_n).map(
        lambda orders: Profile(tuple(orders))
    )


@st.composite
def domains(draw):
    return draw(st.sampled_from((D3, D4)))


@given(domain=domains(), data=st.data())
def test_prefers_trichotomy(domain, data):
    order = data.draw(orders_for(domain))
    x = data.draw(st.sampled_from(domain.alternatives))
    y = data.draw(st.sampled_from(domain.alternatives))
    forward = order.prefers(x, y)
    backward = order.prefers(y, x)
    if x == y:
        assert not forward and not backward
    else:
        assert forward != backward


@given(domain=domains(), data=st.data())
def test_switch_is_ceteris_paribus(domain, data):
    profile = data.draw(profiles_for(domain))
    type_order = data.draw(st.sampled_from(profile.types_present()))
    members = sorted(voters_of_type(profile, type_order))
    coalition = frozenset(data.draw(st.sets(st.sampled_from(members), min_size=1)))
    target = data.draw(orders_for(domain).filter(lambda L: L != type_order))
    switched = switch_votes(profile, coalition, target)
    for v in range(profile.n):
        if v in coalition:
            assert switched.orders[v] == target
        else:
            assert switched.orders[v] == profile.orders[v]


@given(domain=domains(), data=st.data())
def test_grouped_view_partitions_voters(domain, data):
    profile = data.draw(profiles_for(domain))
    view = profile.grouped_view
    seen = set()
    for order, voters in view.items():
        assert all(profile.orders[v] == order for v in voters)
        assert not (seen & voters)
        seen |= voters
    assert seen == set(range(profile.n))


@given(
    lines=st.lists(st.tuples(st.sampled_from(ORDERS_3), st.integers(0, 4), st.booleans()), min_size=1, max_size=8),
    reads=st.permutations(["index", "counts", "grouped_view", "tally"]),
)
def test_counts_and_voter_sets_match_the_per_voter_count(lines, reads):
    # Count lines may repeat a type or count zero, and some carry an equal
    # order built apart from the shared one.
    counts = [(LinearOrder(order.ranking) if apart else order, count) for order, count, apart in lines]
    ballots = tuple(order for order, count in counts for _ in range(count))
    assume(ballots)
    # The oracle: `Counter` over the ballots, and one set per type built
    # voter by voter; each keeps a type's first ballot as its key.
    oracle_counts = dict(Counter(ballots))
    oracle_groups: dict = {}
    for voter, order in enumerate(ballots):
        oracle_groups.setdefault(order, set()).add(voter)
    # The index oracle: the ballots' order ids in mixed radix m!.
    ids = D3._order_ids
    oracle_index = sum(ids[order] * len(ids) ** (len(ballots) - 1 - v) for v, order in enumerate(ballots))
    points = (5, 2, 0)
    oracle_tally = tuple(sum(points[order.rank(a)] for order in ballots) for a in D3)
    for profile in (Profile(ballots), Profile.from_counts(counts)):
        # Each lazy value is filled on its first read, whichever comes first.
        for name in reads:
            if name == "tally":
                assert profile.tally(points) == oracle_tally
            else:
                getattr(profile, name)
        assert profile.index == oracle_index
        assert decode_profile(profile.index, profile.n, ORDERS_3) == profile
        assert profile.orders == ballots
        assert list(map(id, profile.counts)) == list(map(id, oracle_counts))
        assert list(profile.counts.values()) == list(oracle_counts.values())
        assert list(map(id, profile.grouped_view)) == list(map(id, oracle_groups))
        assert list(profile.grouped_view.values()) == list(map(frozenset, oracle_groups.values()))


@given(data=st.data())
def test_scoring_rules_are_anonymous(data):
    profile = data.draw(profiles_for(D3))
    rule = borda(data.draw(orders_for(D3)))
    perm = data.draw(st.permutations(range(profile.n)))
    shuffled = Profile(tuple(profile.orders[i] for i in perm))
    assert rule.evaluate(shuffled) == rule.evaluate(profile)


@given(data=st.data())
def test_tiebreak_irrelevant_under_strict_max(data):
    profile = data.draw(profiles_for(D3))
    weights = tuple(
        sorted(data.draw(st.tuples(*[st.integers(0, 5)] * 3)), reverse=True)
    )
    rules = [ScoringRule(tuple(Fraction(w) for w in weights), tb) for tb in ORDERS_3]
    totals = rules[0].scores(profile)
    ranked = sorted(totals.values(), reverse=True)
    if ranked[0] > ranked[1]:
        assert len({rule.evaluate(profile) for rule in rules}) == 1


def reference_scores(rule: ScoringRule, profile: Profile) -> dict:
    """Per-voter `Fraction` sums: the scorer the integer kernel replaced."""
    totals = {alt: Fraction(0) for alt in rule.domain}
    for order in profile.orders:
        for pos, alt in enumerate(order.ranking):
            totals[alt] += rule.weights[pos]
    return totals


def reference_winner(rule: ScoringRule, profile: Profile):
    totals = reference_scores(rule, profile)
    best = max(totals.values())
    return min((a for a, s in totals.items() if s == best), key=rule.tiebreak.rank)


@st.composite
def fractional_scoring_rules(draw):
    """Non-increasing weights with denominators up to 7, negatives and runs
    of equal weights, over 2 to 5 alternatives, with any tie-break."""
    m = draw(st.integers(2, 5))
    domain = Domain.of_size(m)
    weights = sorted(
        draw(st.lists(st.fractions(-3, 3, max_denominator=7), min_size=m, max_size=m)),
        reverse=True,
    )
    for i, repeat in enumerate(draw(st.lists(st.booleans(), min_size=m - 1, max_size=m - 1)), start=1):
        if repeat:
            weights[i] = weights[i - 1]
    tiebreak = LinearOrder(tuple(draw(st.permutations(domain.alternatives))))
    return ScoringRule(tuple(weights), tiebreak)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_integer_scores_match_fraction_reference(data):
    rule = data.draw(fractional_scoring_rules())
    domain = rule.domain
    # Interned orders and freshly built equal ones, mixed in one profile.
    ballots = st.one_of(
        orders_for(domain),
        st.permutations(domain.alternatives).map(lambda perm: LinearOrder(tuple(perm))),
    )
    profile = Profile(tuple(data.draw(st.lists(ballots, min_size=1, max_size=40))))
    type_order = data.draw(st.sampled_from(profile.types_present()))
    members = sorted(voters_of_type(profile, type_order))
    coalition = frozenset(data.draw(st.sets(st.sampled_from(members), min_size=1)))
    target = data.draw(st.sampled_from([L for L in all_orders(domain) if L != type_order]))
    for p in (profile, switch_votes(profile, coalition, target)):
        assert list(rule.scores(p).items()) == list(reference_scores(rule, p).items())
        assert rule.evaluate(p) == reference_winner(rule, p)


def assert_kernel_matches_oracle(rule, profile, type_order, target, coalitions):
    """The switch kernel's winner is the object path's on every coalition."""
    winner = rule.switches(profile, type_order, target)
    for coalition in coalitions:
        assert winner(coalition) == rule.evaluate(switch_votes(profile, coalition, target))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_scoring_kernel_matches_object_path(data):
    rule = data.draw(fractional_scoring_rules())
    orders = all_orders(rule.domain)
    profile = Profile(tuple(data.draw(st.lists(st.sampled_from(orders), min_size=1, max_size=30))))
    # The type may be absent, leaving only the empty coalition.
    type_order = data.draw(st.sampled_from(profile.types_present() + orders))
    target = data.draw(st.sampled_from([L for L in orders if L != type_order]))
    # One coalition of every size: the prefixes of a random member order.
    members = data.draw(st.permutations(sorted(voters_of_type(profile, type_order))))
    prefixes = [frozenset(members[:k]) for k in range(len(members) + 1)]
    assert_kernel_matches_oracle(rule, profile, type_order, target, prefixes)


def every_subset(members):
    members = sorted(members)
    return [frozenset(c) for k in range(len(members) + 1) for c in itertools.combinations(members, k)]


@given(n=st.sampled_from((2, 3)), seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=100, deadline=None)
def test_table_kernel_matches_object_path(n, seed, data):
    rule = random_table_rule(n, 3, seed)
    profile = decode_profile(data.draw(st.integers(0, 6**n - 1)), n, ORDERS_3)
    type_order = data.draw(st.sampled_from(profile.types_present()))
    target = data.draw(st.sampled_from([L for L in ORDERS_3 if L != type_order]))
    members = voters_of_type(profile, type_order)
    assert_kernel_matches_oracle(rule, profile, type_order, target, every_subset(members))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_default_kernel_matches_object_path(data):
    # The object path has no kernel of its own and takes the replaying default.
    rule = ObjectPath(data.draw(st.sampled_from([borda, plurality]))(data.draw(orders_for(D3))))
    profile = data.draw(profiles_for(rule.domain, max_n=5))
    type_order = data.draw(st.sampled_from(profile.types_present()))
    target = data.draw(orders_for(rule.domain).filter(lambda L: L != type_order))
    members = voters_of_type(profile, type_order)
    assert_kernel_matches_oracle(rule, profile, type_order, target, every_subset(members))


@st.composite
def scoring_switches(draw):
    """(rule, profile, type, target) with fractional weights (negatives,
    equal runs and so zero steps), m from 2 to 5, and 0 to 60 voters of the
    type among up to 20 others."""
    rule = draw(fractional_scoring_rules())
    orders = all_orders(rule.domain)
    type_order = draw(st.sampled_from(orders))
    target = draw(st.sampled_from([L for L in orders if L != type_order]))
    count = draw(st.integers(0, 60))
    other_orders = st.sampled_from([L for L in orders if L != type_order])
    others = draw(st.lists(other_orders, min_size=int(count == 0), max_size=20))
    ballots = draw(st.permutations([type_order] * count + others))
    return rule, Profile(tuple(ballots)), type_order, target


@st.composite
def tied_crossings(draw):
    """(rule, profile, type, target) where two alternatives' score lines
    tie exactly at an integer switch count k0.

    With a = w_T(x) - w_T(y) and b = w_L(x) - w_L(y) of opposite signs,
    u = t|b|/g type voters and v = t|a|/g target voters at k0 give
    u*a + v*b = 0: the profile holds k0 + u voters of type T and v - k0 of
    L, and any other ballot comes with its x-y swap, so adds no gap.
    """
    m = draw(st.integers(2, 5))
    domain = Domain.of_size(m)
    weights = sorted(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)), reverse=True)
    rule = ScoringRule(tuple(weights), LinearOrder(tuple(draw(st.permutations(domain.alternatives)))))
    orders = all_orders(domain)
    type_order = draw(st.sampled_from(orders))
    target = draw(st.sampled_from([L for L in orders if L != type_order]))
    x, y = draw(st.permutations(domain.alternatives))[:2]
    a = int(rule.weights[type_order.rank(x)] - rule.weights[type_order.rank(y)])
    b = int(rule.weights[target.rank(x)] - rule.weights[target.rank(y)])
    assume(a * b < 0)
    g, t = math.gcd(a, b), draw(st.integers(1, 3))
    u, v = t * abs(b) // g, t * abs(a) // g
    k0 = draw(st.integers(0, v))

    def swap(order):
        return LinearOrder(tuple({x: y, y: x}.get(alt, alt) for alt in order.ranking))

    rest = [r for r in draw(st.lists(st.sampled_from(orders), max_size=3)) if type_order not in (r, swap(r))]
    ballots = [type_order] * (k0 + u) + [target] * (v - k0) + rest + [swap(r) for r in rest]
    return rule, Profile(tuple(ballots)), type_order, target


@given(case=st.one_of(scoring_switches(), tied_crossings()))
@settings(max_examples=400, deadline=None)
def test_scoring_runs_match_the_prefix_walk(case):
    # The crossing-point runs against the default kernel's walk over every
    # switch count through `switches`.
    rule, profile, type_order, target = case
    assert list(rule.size_runs(profile, type_order, target)) == list(Rule.size_runs(rule, profile, type_order, target))


@st.composite
def rules_over_one_domain(draw):
    """Two or three scoring rules over one domain, drawn from one or two
    points vectors and one or two tie-breaks, so that rules often share
    points under another tie-break or another weight scale (points / s,
    with s coprime to the points' gcd so that the points stay equal), or
    share a tie-break but not their points."""
    m = draw(st.integers(2, 4))
    domain = Domain.of_size(m)
    vector = st.lists(st.integers(-4, 4), min_size=m, max_size=m).map(lambda v: sorted(v, reverse=True))
    vectors = draw(st.lists(vector, min_size=1, max_size=2))
    tiebreaks = draw(st.lists(st.permutations(domain.alternatives), min_size=1, max_size=2))
    rules = []
    for _ in range(draw(st.integers(2, 3))):
        points = draw(st.sampled_from(vectors))
        scale = draw(st.integers(1, 6).filter(lambda s: math.gcd(s, *points) == 1))
        tiebreak = LinearOrder(tuple(draw(st.sampled_from(tiebreaks))))
        rules.append(ScoringRule(tuple(Fraction(p, scale) for p in points), tiebreak))
    return rules


@given(rules=rules_over_one_domain(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_shared_tally_answers_as_a_fresh_profile(rules, data):
    # One profile object answers interleaved questions under several score
    # vectors; each answer must be the one a fresh equal profile gives.
    orders = all_orders(rules[0].domain)
    ballots = tuple(data.draw(st.lists(st.sampled_from(orders), min_size=1, max_size=30)))
    shared = Profile(ballots)
    for _ in range(data.draw(st.integers(2, 10))):
        rule = data.draw(st.sampled_from(rules))
        question = data.draw(st.sampled_from(["evaluate", "scores", "size_runs", "switches"]))
        type_order = data.draw(st.sampled_from(shared.types_present()))
        target = data.draw(st.sampled_from([L for L in orders if L != type_order]))
        members = sorted(voters_of_type(shared, type_order))

        def ask(profile):
            if question in ("evaluate", "scores"):
                return getattr(rule, question)(profile)
            if question == "size_runs":
                return list(rule.size_runs(profile, type_order, target))
            winner = rule.switches(profile, type_order, target)
            return [winner(frozenset(members[:k])) for k in range(len(members) + 1)]

        assert ask(shared) == ask(Profile(ballots)), (question, rule)


KERNEL_RULES = {
    "scoring": borda(ORDERS_3[0]),
    "table": random_table_rule(3, 3, 0),
    "default": ObjectPath(borda(ORDERS_3[0])),
}


@pytest.mark.parametrize("kind", KERNEL_RULES)
def test_kernel_errors_match_switch_votes(kind):
    rule = KERNEL_RULES[kind]
    abc, acb, bac = ORDERS_3[0], ORDERS_3[1], ORDERS_3[2]
    profile = Profile((abc, abc, bac))

    def both_raise(error, type_order, coalition, target):
        with pytest.raises(error) as raised:
            switch_votes(profile, coalition, target)
        with pytest.raises(error):
            rule.switches(profile, type_order, target)(coalition)
        return f"^{re.escape(str(raised.value))}$"

    both_raise(EditError, abc, frozenset({0, 3}), acb)  # out-of-range voter
    both_raise(EditError, abc, frozenset({0, 2}), acb)  # mixed-type coalition
    own = both_raise(EditError, abc, frozenset({0}), abc)  # L == T
    foreign = LinearOrder.from_labels("XYZ", Domain.from_labels("XYZ"))
    alien = both_raise(DomainMismatchError, abc, frozenset({0}), foreign)
    # Both L == T and a foreign order fail at set-up, before any coalition
    # is asked, with `switch_votes`' own message, and so do the runs kernel
    # and, on its first read, the pivot kernel.
    for order, error, message in ((abc, EditError, own), (foreign, DomainMismatchError, alien)):
        with pytest.raises(error, match=message):
            rule.switches(profile, abc, order)
        with pytest.raises(error, match=message):
            rule.size_runs(profile, abc, order)
    with pytest.raises(DomainMismatchError, match=alien):
        next(rule.solo_switches(profile, [foreign]))
    # The pivot kernel switches no voter to their own order, so it has no
    # L == T case: it skips the ABC voters and asks only voter 3.
    assert [(voter, order) for voter, order, _ in rule.solo_switches(profile, [abc])] == [(2, abc)]


@pytest.mark.parametrize("kind", KERNEL_RULES)
def test_kernels_take_a_coalition_as_a_voter_tuple_or_a_frozenset(kind):
    # The subset walk passes voter tuples; every other caller a frozenset.
    rule = KERNEL_RULES[kind]
    abc, acb, bac = ORDERS_3[0], ORDERS_3[1], ORDERS_3[2]
    profile = Profile((abc, bac, abc))
    winner = rule.switches(profile, abc, acb)
    for voters in ((), (0,), (2,), (0, 2), (2, 0)):  # empty, solo and the whole type
        expected = rule.evaluate(switch_votes(profile, frozenset(voters), acb))
        assert winner(voters) == winner(frozenset(voters)) == expected
    for voters in ((0, 1), (2, 3), (-1, 0)):  # another type's voter, and two strays
        messages = []
        for coalition in (voters, frozenset(voters)):
            with pytest.raises(EditError) as raised:
                winner(coalition)
            messages.append(str(raised.value))
        assert messages == [f"coalition {sorted(voters)} is not within the ABC voters"] * 2
    # A tuple that repeats a voter is outside the kernel contract, so no
    # subset walk may pass one.
    for voter, own in enumerate(profile.orders):
        walk = strategy._walk(rule, profile, voter, force_subsets=True)
        for order in ORDERS_3:
            if order != own:
                _, moves, _, _ = walk(order)
                keys = [key for key, _ in moves]
                assert keys and all(len(set(key)) == len(key) for key in keys)


@given(st.integers(0, 6**3 - 1))
def test_profile_encoding_round_trips(index):
    profile = decode_profile(index, 3, ORDERS_3)
    assert profile.index == index
    assert decode_profile(profile.index, 3, ORDERS_3) == profile


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_incentive_witness_replays(data):
    profile = data.draw(profiles_for(D3))
    rule = borda(data.draw(orders_for(D3)))
    voter = data.draw(st.integers(0, profile.n - 1))
    strategic = data.draw(orders_for(D3).filter(lambda L: L != profile.orders[voter]))
    witness = has_incentive(rule, profile, voter, strategic)
    if witness is None:
        return
    type_order = profile.orders[voter]
    assert voter in witness.coalition
    assert witness.coalition <= voters_of_type(profile, type_order)
    outcome = rule.evaluate(switch_votes(profile, witness.coalition, strategic))
    assert outcome == witness.outcome_after
    assert rule.evaluate(profile) == witness.outcome_before
    assert type_order.prefers(outcome, witness.outcome_before)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_unsafe_kinds_replay_their_inequalities(data):
    profile = data.draw(profiles_for(D3, max_n=6))
    rule = borda(data.draw(orders_for(D3)))
    voter = data.draw(st.integers(0, profile.n - 1))
    type_order = profile.orders[voter]
    strategic = data.draw(orders_for(D3).filter(lambda L: L != type_order))
    if has_incentive(rule, profile, voter, strategic) is None:
        return
    verdict = classify_safety(rule, profile, voter, strategic)
    sincere = rule.evaluate(profile)
    if verdict.status == SafetyStatus.SAFE:
        assert verdict.witness_bad is None
        return
    # The unsafe witness strictly worsens the outcome for the type.
    bad_out = rule.evaluate(switch_votes(profile, verdict.witness_bad, strategic))
    assert voter in verdict.witness_bad
    assert type_order.prefers(sincere, bad_out)
    if verdict.kind in (UnsafeKind.OVERSHOOT, UnsafeKind.UNDERSHOOT):
        good, bad = verdict.good, verdict.bad
        assert voter in good and voter in bad
        if verdict.kind == UnsafeKind.OVERSHOOT:
            assert good < bad
        else:
            assert bad < good
        good_out = rule.evaluate(switch_votes(profile, good, strategic))
        worse_out = rule.evaluate(switch_votes(profile, bad, strategic))
        assert type_order.prefers(good_out, sincere)
        assert type_order.prefers(sincere, worse_out)


@given(st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_sampled_rule_searches_agree_across_paths(seed):
    # For anonymous rules represented as tables, the general subset path
    # must reproduce the scoring rule's own verdicts.
    rng = random.Random(seed)
    rule = borda(rng.choice(ORDERS_3))
    profile = decode_profile(rng.randrange(6**4), 4, ORDERS_3)
    for type_order in profile.types_present():
        voter = min(voters_of_type(profile, type_order))
        for strategic in ORDERS_3:
            if strategic == type_order:
                continue
            fast = has_incentive(rule, profile, voter, strategic)
            slow = has_incentive(rule, profile, voter, strategic, force_subsets=True)
            assert fast == slow
            if fast is None:
                continue
            v_fast = classify_safety(rule, profile, voter, strategic)
            v_slow = classify_safety(rule, profile, voter, strategic, force_subsets=True)
            assert v_fast.incentive == fast and v_slow.incentive == slow
            assert v_fast == v_slow


@st.composite
def forced_walk_cases(draw):
    """(rule, profile): a (2..3, 3) table at one of its profiles, or Borda,
    plurality or 2-approval at m = 3 with 1 to 6 voters, one type held by
    1 to 4 of them, so that some votes are unsafe."""
    if draw(st.booleans()):
        n = draw(st.sampled_from((2, 3)))
        rule = random_table_rule(n, 3, draw(st.integers(0, 10_000)))
        return rule, decode_profile(draw(st.integers(0, 6**n - 1)), n, ORDERS_3)
    make = draw(st.sampled_from((borda, plurality, partial(k_approval, 2))))
    k = draw(st.integers(1, 4))
    ballots = [draw(orders_for(D3))] * k + draw(st.lists(orders_for(D3), max_size=6 - k))
    return make(draw(orders_for(D3))), Profile(tuple(draw(st.permutations(ballots))))


@given(case=forced_walk_cases())
@settings(max_examples=60, deadline=None)
def test_forced_subset_walks_return_frozensets(case):
    # The walk's keys are voter tuples; every voter set a search returns
    # is a frozenset, and on a scoring rule it is the size path's.
    rule, profile = case
    returned = []
    for voter, type_order in enumerate(profile.orders):
        for strategic in ORDERS_3:
            if strategic == type_order:
                continue
            inferior = find_L_inferior(SubsetWalk(rule), profile, type_order, strategic)
            witness = has_incentive(rule, profile, voter, strategic, force_subsets=True)
            verdict = witness and classify_safety(rule, profile, voter, strategic, force_subsets=True)
            returned += inferior
            if rule.anonymous:
                # Under anonymity the size path keeps the first subset of each inferior size.
                assert [next(group) for _, group in itertools.groupby(inferior, len)] == find_L_inferior(
                    rule, profile, type_order, strategic
                )
                assert witness == has_incentive(rule, profile, voter, strategic)
                assert verdict == (witness and classify_safety(rule, profile, voter, strategic))
            if verdict is None:
                continue
            returned += [witness.coalition, verdict.incentive.coalition, verdict.witness_bad, verdict.good, verdict.bad]
            if verdict.status == SafetyStatus.SAFE:
                safe = strategy._certify(rule, "SafelyManipulable", profile, verdict.incentive)
                returned += safe.sets.values()
                returned += lift_safe_pivotal(rule, safe).sets.values()
            shifted = construct_safe_from_inferior(rule, profile, type_order, strategic)
            returned += shifted.sets.values() if shifted else ()
    assert all(type(voters) is frozenset for voters in returned if voters is not None)


def separate_walks(rule: Rule, profile: Profile):
    """`analyze`'s winner, summary and escapes from the subset path, asked
    about every member's vote: a type's incentives are the orders some
    member can improve with, and a type that ranks the winner last escapes
    through the first incentive of its first voter (of each member in turn,
    under a table rule)."""
    winner = rule.evaluate(profile)
    orders = all_orders(profile.domain)
    summary, escapes = [], []
    for type_order in profile.types_present():
        members = sorted(voters_of_type(profile, type_order))
        strategic = [L for L in orders if L != type_order]
        found = [L for L in strategic if any(has_incentive(rule, profile, v, L, force_subsets=True) for v in members)]
        summary.append((type_order, len(members), found))
        if type_order.bottom != winner:
            continue
        voters = members[:1] if rule.anonymous else members
        moves = (has_incentive(rule, profile, v, L, force_subsets=True) for v in voters for L in strategic)
        move = next((w for w in moves if w is not None), None)
        if move is not None:
            sets = {"coalition": move.coalition}
            outcomes = {"before": move.outcome_before, "after": move.outcome_after}
            escapes.append(
                Certificate("Escape", profile, move.voter, move.strategic_order, sets, outcomes, True, rule.fingerprint())
            )
    return winner, summary, [c.to_json_dict() for c in escapes]


def assert_one_walk(rule: Rule, profile: Profile) -> None:
    with mock.patch.object(strategy, "_incentive", wraps=strategy._incentive) as counted:
        analysis = analyze(rule, profile)
    winner, summary, escapes = separate_walks(rule, profile)
    assert analysis.winner == winner
    assert [(t.type_order, t.count, list(t.strategic_orders)) for t in analysis.types] == summary
    assert [c.to_json_dict() for c in analysis.escapes] == escapes
    assert [c.to_json_dict() for c in find_escapes(rule, profile)] == escapes
    # One incentive search per vote class of each voter searched, for each
    # type whose favourite is not the winner: per type under an anonymous
    # rule, per member under a table rule.  A scoring rule's orders share a
    # class when they give every alternative the same points; a table
    # rule's orders are each their own.
    def classes(type_order: LinearOrder) -> int:
        strategic = [o for o in all_orders(profile.domain) if o != type_order]
        if isinstance(rule, ScoringRule):
            return len({tuple(rule.scores(Profile((o,))).values()) for o in strategic})
        return len(strategic)

    searched = (t for t in analysis.types if t.type_order.top != winner)
    votes = sum((1 if rule.anonymous else t.count) * classes(t.type_order) for t in searched)
    assert counted.call_count == votes


@st.composite
def count_elections(draw):
    domain = draw(domains())
    tiebreak = draw(orders_for(domain))
    rule = draw(st.sampled_from((borda(tiebreak), plurality(tiebreak), k_approval(2, tiebreak))))
    # A count for every order, as in a count file: crowded enough that
    # about two draws in five have an escape.
    orders = all_orders(domain)
    counts = draw(st.lists(st.integers(0, 3), min_size=len(orders), max_size=len(orders)).filter(any))
    return rule, Profile.from_counts(list(zip(orders, counts)))


@given(count_elections())
@settings(max_examples=60, deadline=None)
def test_analyze_walks_each_vote_once_on_count_profiles(election):
    assert_one_walk(*election)


@given(st.integers(0, 10**6), st.data())
@settings(max_examples=30, deadline=None)
def test_analyze_walks_each_vote_once_on_table_rules(seed, data):
    rule = random_table_rule(2, 3, seed)
    orders = all_orders(rule.domain)
    assert_one_walk(rule, Profile((data.draw(st.sampled_from(orders)), data.draw(st.sampled_from(orders)))))


#: Score vectors whose orders fall into few vote classes: tied and negative weights.
TIED_VECTORS = ((1, 1, 0, 0), (2, 1, 1, 0), (3, 1, 1, 0), (1, 0, 0, -1))


@st.composite
def tied_elections(draw):
    """A scoring rule over 3 to 5 alternatives with ties or a negative
    weight, and a count profile of up to five types."""
    m = draw(st.integers(3, 5))
    domain = Domain.of_size(m)
    if m == 4 and draw(st.booleans()):
        weights = draw(st.sampled_from(TIED_VECTORS))
    else:
        weights = sorted(draw(st.lists(st.integers(-1, 2), min_size=m, max_size=m)), reverse=True)
    rule = ScoringRule.from_ints(weights, draw(orders_for(domain)))
    types = draw(st.lists(orders_for(domain), min_size=1, max_size=5, unique=True))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(types), max_size=len(types)))
    return rule, Profile.from_counts(list(zip(types, counts)))


def per_order_walk(search, rule: Rule, profile: Profile, type_order: LinearOrder) -> list:
    """What `search` finds on each strategic vote of the type, order by
    order, each vote with a walk of its own: the first voter under an
    anonymous rule, else each member in turn; no vote class, and no type
    skipped."""
    members = sorted(voters_of_type(profile, type_order))
    votes = itertools.product(members[:1] if rule.anonymous else members, all_orders(profile.domain))
    found = (search(rule, profile, voter, order) for voter, order in votes if order != type_order)
    return [x for x in found if x is not None]


@given(tied_elections())
@settings(max_examples=40, deadline=None)
def test_vote_classes_match_the_per_order_walk(election):
    # One walk per class, relabelled to each of its orders, against the
    # per-order walk that replays every switch through `switch_votes`.
    rule, profile = election
    oracle = ObjectPath(rule)
    orders = all_orders(profile.domain)
    for t in profile.types_present():
        assert list(incentives(rule, profile, t, orders)) == per_order_walk(has_incentive, oracle, profile, t)
        assert list(safety_verdicts(rule, profile, t, orders)) == per_order_walk(strategy._verdict, oracle, profile, t)


TABLE_WALK_RULES = {
    f"{kind}-{n}x3-{seed}": build(n, 3, seed)
    for kind, build in (("uniform", random_table_rule), ("perturbed", perturbed_dictatorship))
    for n in (2, 3)
    for seed in (0, 1)
}


@pytest.mark.parametrize("name", TABLE_WALK_RULES)
def test_table_walk_matches_the_per_order_walk(name):
    # The per-voter walk over `TableRule.switches`, and over the default
    # kernel, against the per-vote walk over the default kernel, at every
    # profile of the table.
    rule = TABLE_WALK_RULES[name]
    oracle = ObjectPath(rule)
    orders = all_orders(rule.domain)
    for profile in all_profiles(rule.domain, rule.n):
        for t in profile.types_present():
            witnesses = per_order_walk(has_incentive, oracle, profile, t)
            assert list(incentives(rule, profile, t, orders)) == witnesses
            assert list(incentives(oracle, profile, t, orders)) == witnesses
            verdicts = per_order_walk(strategy._verdict, oracle, profile, t)
            assert list(safety_verdicts(rule, profile, t, orders)) == verdicts
            assert list(safety_verdicts(oracle, profile, t, orders)) == verdicts


class ObjectPathWithFingerprint(ObjectPath):
    """The object path under the rule's fingerprint, so that its
    certificates compare with the rule's byte for byte."""

    def config_text(self):
        return self.rule.config_text()


@pytest.mark.parametrize("name", TABLE_WALK_RULES)
def test_table_certificates_match_the_object_path(name):
    rule = TABLE_WALK_RULES[name]
    oracle = ObjectPathWithFingerprint(rule)
    for search in (verify_gs, verify_safely_manipulable, verify_safe_pivotal):
        cert = search(rule)
        assert cert.to_json() == search(oracle).to_json()
        assert verify_certificate(rule, cert)


@given(st.lists(st.frozensets(st.integers(0, 4)), max_size=16))
def test_the_key_minimum_is_pairwise_maximal(family):
    # `construct_safe_from_inferior` takes the largest inferior set, first in
    # sorted order, from all of them, not from the maximal ones: the lemma is
    # that both give the same set.  The pairwise filter is the oracle.
    pairwise = [s for s in family if not any(s < t for t in family)]
    key = lambda s: (-len(s), sorted(s))  # noqa: E731
    assert min(family, key=key, default=None) == min(pairwise, key=key, default=None)


# ---------------------------------------------------------------------------
# Parser fuzzing: texts drawn from the file grammars, with malformed parts
# mixed in.  Every text gives a valid object or a ParseError, never any
# other exception.
# ---------------------------------------------------------------------------

LABEL_SOUP = st.lists(st.sampled_from(["A", "B", "C", "D", "a", "b", "Z", "AB", "1", "é", "ß", ">", ""]), max_size=5)
LABEL_SETS = st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True)
SEPARATORS = st.sampled_from([" > ", ">", "", " "])
HUGE_NUMBERS = [MAX_VOTERS // 2 + 1, MAX_VOTERS + 1, 10**9, 99999999999999999, -(10**17)]
COUNTS = st.one_of(st.integers(-2, 4), st.integers(1, 9), st.sampled_from(HUGE_NUMBERS))
BAD_HEADS = st.sampled_from(["voter 0", "voter -1", "voter 1", "voter", "voterx", "voter 1 2", "x", "1.5", ""])
BAD_LINES = st.sampled_from(["", "# comment", "A > B > C", "alternatives: A B"])
ONE_IN = {k: st.integers(1, k) for k in (3, 6, 10)}


def order_text(draw, labels) -> str:
    """Mostly an order over `labels`, in one of the accepted spellings;
    otherwise label soup."""
    if draw(ONE_IN[10]) > 1:
        tokens = [label for label in draw(st.permutations("ABCD")) if label in labels]
    else:
        tokens = draw(LABEL_SOUP)
    return draw(SEPARATORS).join(tokens)


@st.composite
def profile_texts(draw):
    labels = draw(LABEL_SETS)
    header = "alternatives: " + " ".join(labels if draw(ONE_IN[6]) > 1 else draw(LABEL_SOUP))
    if draw(st.booleans()):
        body = [f"{draw(COUNTS)}: {order_text(draw, labels)}" for _ in range(draw(st.integers(0, 5)))]
    else:
        body = [f"voter {i}: {order_text(draw, labels)}" for i in range(1, draw(st.integers(0, 5)) + 1)]
    if draw(ONE_IN[3]) == 1:
        # One malformed or out-of-style line.
        bad = draw(BAD_LINES) if draw(st.booleans()) else f"{draw(st.one_of(BAD_HEADS, COUNTS))}: {order_text(draw, labels)}"
        body.insert(draw(st.integers(0, len(body))), bad)
    return "\n".join([header, *body]) + "\n"


WEIGHTS = st.sampled_from(
    [
        "2", "1", "0", "-1", "1/2", "3/4", "1/0", "x", "2.5", "1e3", "nan", "inf",
        "1e2", "2.5E-3", "1e4299", "1e4300", "1e-5000", "1e1000000", "-3e+12901", "0e99999", "1e", "1e_5",
    ]
)
BAD_RULE_LINES = st.one_of(
    st.lists(WEIGHTS, max_size=5).map(lambda ws: "scores: " + " ".join(ws)),
    st.sampled_from(["tiebreak:", "scores:", "rule: scoring", "rule: borda", "tiebreak A B", ""]),
)


@st.composite
def scoring_rule_lines(draw):
    labels = draw(LABEL_SETS)
    weights = [str(w) for w in sorted((draw(st.integers(-2, 3)) for _ in labels), reverse=True)]
    if draw(ONE_IN[3]) == 1:
        # Exponent spellings, from plain to past the digit limit, at the
        # ends where they keep the vector non-increasing.
        weights[0] = draw(st.sampled_from(["1e2", "1E4299", "1e4300", "1e12901", "1e1000000"]))
        weights[-1] = draw(st.sampled_from([weights[-1], "-1e-4299", "-1e-5000", "-1e3000000", "-0e99999"]))
    lines = ["rule: scoring", "scores: " + " ".join(weights), "tiebreak: " + order_text(draw, labels)]
    if draw(ONE_IN[3]) == 1:
        lines[draw(st.integers(0, 2))] = draw(BAD_RULE_LINES)
    return lines


TABLE_RULE_LINES = st.builds(
    lambda n, m, extra: ["rule: table", f"n: {n}", f"m: {m}", "entries: w.txt", *extra],
    st.one_of(st.integers(1, 3), st.sampled_from([-1, 0, 21, 6000, 10**7, 10**30, "x", "2.5"])),
    st.one_of(st.integers(1, 3), st.sampled_from([-1, 0, 24, 26, 27, 6000, "x"])),
    st.lists(st.sampled_from(["m: 3", "# note", "bogus", "rule: scoring"]), max_size=1),
)
RULE_LINES = st.one_of(TABLE_RULE_LINES, scoring_rule_lines()).flatmap(st.permutations)
ENTRY_LINES = st.one_of(
    st.builds("{}: {}".format, st.one_of(st.integers(-1, 40), st.sampled_from(HUGE_NUMBERS)), st.sampled_from("ABCDa1")),
    st.sampled_from(["", "# c", "0 A", "x: A", "0:"]),
)


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError:
        return None


@given(profile_texts())
@settings(max_examples=300, deadline=None)
def test_parse_profile_gives_a_profile_or_a_parse_error(text):
    profile = _parsed(parse_profile, text)
    if profile is not None:
        assert isinstance(profile, Profile)
        assert 1 <= profile.n <= MAX_VOTERS


@given(domain=domains(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_profile_text_keeps_every_voter(domain, data):
    # Ballots from a pool of up to three types, so that types repeat and,
    # in per-voter profiles, interleave.
    pool = data.draw(st.lists(orders_for(domain), min_size=1, max_size=3, unique=True))
    per_voter = Profile(tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))))
    counts = data.draw(st.lists(st.integers(1, 4), min_size=len(pool), max_size=len(pool)))
    by_count = Profile.from_counts(list(zip(pool, counts)))
    for profile in (per_voter, by_count):
        assert parse_profile(format_profile(profile)).orders == profile.orders
    # A count profile whose types repeat keeps the count style.
    assert ("voter" in format_profile(by_count)) == (by_count.n == len(pool))


@given(lines=RULE_LINES, entries=st.lists(ENTRY_LINES, max_size=8), full_table=st.booleans())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parse_rule_gives_a_rule_or_a_parse_error(tmp_path, lines, entries, full_table):
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    n, m = fields.get("n"), fields.get("m")
    if full_table and n in ("1", "2", "3") and m in ("1", "2", "3"):
        # A complete table, so that valid table rules come up too.
        entries = [f"{i}: {'ABC'[i % int(m)]}" for i in range(math.factorial(int(m)) ** int(n))]
    (tmp_path / "w.txt").write_text("\n".join(entries))
    rule = _parsed(lambda text: parse_rule(text, base_dir=str(tmp_path)), "\n".join(lines) + "\n")
    if rule is not None:
        assert isinstance(rule, Rule)
        assert len(rule.domain) >= 1
        rule.fingerprint()
        # A scoring rule's canonical text is a rule file that reads back to it.
        if isinstance(rule, ScoringRule):
            assert parse_rule(rule.config_text()).fingerprint() == rule.fingerprint()


NUMBER_TOKENS = st.one_of(COUNTS.map(str), BAD_HEADS, st.sampled_from(["+7", "1_0", "\u0663", "\uff13"]))


@given(token=NUMBER_TOKENS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_numbers_read_as_file_numbers(tmp_path, token):
    # Flags and KMAX take the integers a file does: `_is_integer`'s.
    (tmp_path / "p.txt").write_text("alternatives: A B C\n3: A > B > C\n2: C > B > A\n")
    (tmp_path / "r.txt").write_text("rule: scoring\nscores: 2 1 0\ntiebreak: A > B > C\n")
    files = ["--profile", str(tmp_path / "p.txt"), "--rule", str(tmp_path / "r.txt")]
    runs = {
        "--seed": ["verify", "--samples", "0", "--seed", token],
        "--trajectory KMAX": ["figure", *files, "--trajectory", f"ABC:ACB:{token}"],
    }
    for flag, argv in runs.items():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        rejected = f"error: {flag} must be an integer, got {token!r}\n"
        if not _is_integer(token):
            assert (code, err.getvalue()) == (cli.EXIT_PARSE, rejected)
        elif flag == "--seed" or 0 <= int(token) <= 3:
            assert code == cli.EXIT_OK
        else:  # KMAX outside 0..3, the ABC voters
            assert code == cli.EXIT_PARSE and "is outside 0..3" in err.getvalue()
