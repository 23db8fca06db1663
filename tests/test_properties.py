"""Property-based tests for the library's structural invariants."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from safevote.core import (
    MAX_VOTERS,
    Domain,
    DomainMismatchError,
    EditError,
    LinearOrder,
    ParseError,
    Preference,
    Profile,
    all_orders,
    group_prefers,
    parse_profile,
    switch_votes,
    voters_of_type,
)
from safevote.rules import (
    Rule,
    ScoringRule,
    TableRule,
    borda,
    check_predicates,
    decode_profile,
    encode_profile,
    parse_rule,
    plurality,
    random_table_rule,
    subrule_minus,
)
from safevote.strategy import (
    SafetyStatus,
    UnsafeKind,
    classify_safety,
    has_incentive,
)

D3 = Domain.from_labels("ABC")
D4 = Domain.from_labels("ABCD")
ORDERS_3 = all_orders(D3)
ORDERS_4 = all_orders(D4)


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
def test_group_prefers_trichotomy(domain, data):
    order = data.draw(orders_for(domain))
    x = data.draw(st.sampled_from(domain.alternatives))
    y = data.draw(st.sampled_from(domain.alternatives))
    forward = group_prefers(order, x, y)
    backward = group_prefers(order, y, x)
    if x == y:
        assert forward == backward == Preference.WEAK
    else:
        assert {forward, backward} == {Preference.STRICT, Preference.NO}


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
    winner = rule.switched(profile, type_order, target)
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
    # A subrule has no kernel of its own and takes the replaying default.
    parent = data.draw(st.sampled_from([borda, plurality]))(data.draw(orders_for(D4)))
    rule = subrule_minus(parent, D4.by_label("D"))
    profile = data.draw(profiles_for(rule.domain, max_n=5))
    type_order = data.draw(st.sampled_from(profile.types_present()))
    target = data.draw(orders_for(rule.domain).filter(lambda L: L != type_order))
    members = voters_of_type(profile, type_order)
    assert_kernel_matches_oracle(rule, profile, type_order, target, every_subset(members))


KERNEL_RULES = {
    "scoring": borda(ORDERS_3[0]),
    "table": random_table_rule(3, 3, 0),
    "default": subrule_minus(borda(ORDERS_4[0]), D4.by_label("D")),
}


@pytest.mark.parametrize("kind", KERNEL_RULES)
def test_kernel_errors_match_switch_votes(kind):
    rule = KERNEL_RULES[kind]
    abc, acb, bac = ORDERS_3[0], ORDERS_3[1], ORDERS_3[2]
    profile = Profile((abc, abc, bac))

    def both_raise(error, type_order, coalition, target):
        with pytest.raises(error):
            switch_votes(profile, coalition, target)
        with pytest.raises(error):
            rule.switched(profile, type_order, target)(coalition)

    both_raise(EditError, abc, frozenset({0, 3}), acb)  # out-of-range voter
    both_raise(EditError, abc, frozenset({0, 2}), acb)  # mixed-type coalition
    both_raise(EditError, abc, frozenset({0}), abc)  # L == T
    foreign = LinearOrder.from_labels("XYZ", Domain.from_labels("XYZ"))
    both_raise(DomainMismatchError, abc, frozenset({0}), foreign)
    # Both L == T and a foreign order fail at set-up, before any coalition.
    with pytest.raises(EditError):
        rule.switched(profile, abc, abc)
    with pytest.raises(DomainMismatchError):
        rule.switched(profile, abc, foreign)


@given(st.integers(0, 6**3 - 1))
def test_profile_encoding_round_trips(index):
    order_index = {x: i for i, x in enumerate(ORDERS_3)}
    profile = decode_profile(index, 3, ORDERS_3)
    assert encode_profile(profile, order_index) == index


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_weak_unanimity_implies_onto(seed):
    # A uniform table, as `random_table_rule` draws it before its checks.
    rng = random.Random(seed)
    rule = TableRule(D3, 2, tuple(D3.alternatives[rng.randrange(3)] for _ in range(36)))
    report = check_predicates(rule)
    if report.weakly_unanimous:
        assert report.onto
    # The completely agreed image is always inside the full image.
    assert report.agreed_image <= set(rule.domain) if report.onto else True


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


WEIGHTS = st.sampled_from(["2", "1", "0", "-1", "1/2", "3/4", "1/0", "x", "2.5", "1e3", "nan", "inf"])
BAD_RULE_LINES = st.one_of(
    st.lists(WEIGHTS, max_size=5).map(lambda ws: "scores: " + " ".join(ws)),
    st.sampled_from(["tiebreak:", "scores:", "rule: scoring", "rule: borda", "tiebreak A B", ""]),
)


@st.composite
def scoring_rule_lines(draw):
    labels = draw(LABEL_SETS)
    weights = sorted((draw(st.integers(-2, 3)) for _ in labels), reverse=True)
    lines = ["rule: scoring", "scores: " + " ".join(map(str, weights)), "tiebreak: " + order_text(draw, labels)]
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
