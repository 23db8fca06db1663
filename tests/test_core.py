"""Unit tests for the ballot-domain vocabulary."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from safevote.core import (
    MAX_VOTERS,
    Alternative,
    Domain,
    DomainMismatchError,
    EditError,
    LinearOrder,
    ParseError,
    Profile,
    all_orders,
    all_profiles,
    decode_profile,
    format_json,
    format_profile,
    parse_profile,
    switch_votes,
    voters_of_type,
)
from safevote.rules import parse_rule, random_table_rule

D3 = Domain.from_labels("ABC")
D5 = Domain.from_labels("ABCDE")


def o(labels: str, domain: Domain = D3) -> LinearOrder:
    return LinearOrder.from_labels(labels, domain)


# Four voters, one per type column: ABC, BAC, CAB, CBA.
PROFILE_1 = Profile((o("ABC"), o("BAC"), o("CAB"), o("CBA")))
# Four voters, two of them like-minded.
PROFILE_2 = Profile((o("ABC"), o("ABC"), o("BCA"), o("CBA")))


class TestDomain:
    def test_of_size(self):
        d = Domain.of_size(4)
        assert d.labels == "ABCD"
        assert len(d) == 4
        assert Domain.of_size(4) is d
        assert Domain.from_labels("ABC") is Domain.of_size(3) is D3

    @pytest.mark.parametrize("m", [0, -1, 27])
    def test_of_size_outside_1_to_26_rejected(self, m):
        with pytest.raises(ValueError, match=f"a domain has 1..26 alternatives, got {m}"):
            Domain.of_size(m)
        assert Domain.of_size(26).labels == "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

    def test_order_id_tables(self):
        orders = all_orders(D3)
        assert D3._order_ids == {order: i for i, order in enumerate(orders)}

    def test_by_label_case_insensitive(self):
        assert D3.by_label("b") == Alternative(1, "B")

    def test_by_label_unknown(self):
        with pytest.raises(DomainMismatchError):
            D3.by_label("Z")

    @pytest.mark.parametrize("label", ["\u017f", "\u0131", "\u212a"])
    def test_by_label_takes_ascii_letters_only(self, label):
        # "ſ", "ı" and the Kelvin sign upper- or lower-case to S, I and k.
        domain = Domain.from_labels("IKS")
        with pytest.raises(DomainMismatchError, match="no alternative labelled"):
            domain.by_label(label)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Domain((Alternative(0, "A"), Alternative(1, "A")))
        # A label tuple that fails validation is not kept: asking again fails again.
        for _ in range(2):
            with pytest.raises(ValueError):
                Domain.from_labels("ABA")
        with pytest.raises(ValueError, match="index 2, expected 1"):
            Domain((Alternative(0, "W"), Alternative(2, "V")))
        assert [a.index for a in Domain.from_labels("WV")] == [0, 1]

    def test_constructor_yields_the_shared_domain(self):
        # A domain built by its constructor is the shared one when none
        # exists yet, so a rule over it takes profiles of its orders.
        code = (
            "from safevote.core import Alternative, Domain, Profile, all_orders\n"
            "from safevote.rules import TableRule\n"
            "d = Domain((Alternative(0, 'A'), Alternative(1, 'B'), Alternative(2, 'C')))\n"
            "assert Domain.from_labels('ABC') is Domain.of_size(3) is d\n"
            "rule = TableRule(d, 1, tuple(order.top for order in all_orders(d)))\n"
            "print(rule.evaluate(Profile((all_orders(d)[0],))))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "A\n"
        # Once the label set has its domain, a second one is refused.
        with pytest.raises(ValueError, match="Domain.from_labels"):
            Domain((Alternative(0, "A"), Alternative(1, "B"), Alternative(2, "C")))
        assert Domain.from_labels("ABC") is D3

    @pytest.mark.parametrize("labels", ["abc", "aBC"])
    def test_labels_are_capital_letters(self, labels):
        # `by_label` reads a capital label in either case, so a lowercase
        # one could be read as its capital; the parsers upper-case first.
        with pytest.raises(ValueError):
            Domain.from_labels(labels)

    def test_contains(self):
        assert Alternative(0, "A") in D3
        assert Alternative(3, "D") not in D3
        assert "A" not in D3

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_interned_orders_share_their_domain(self, m):
        domain = Domain.of_size(m)
        assert all(order.domain is domain for order in domain._orders)

    def test_interned_orders_of_a_labelled_domain_share_it(self):
        domain = Domain.from_labels("QZX")
        assert all(order.domain is domain for order in all_orders(domain))
        profile = Profile(tuple(all_orders(domain)))
        assert profile.domain is domain
        assert switch_votes(profile, frozenset({0}), all_orders(domain)[1]).domain is domain


#: Letters that `str.upper` turns into ASCII capitals.
LOOK_ALIKES = {"I": "\u0131", "S": "\u017f"}


@st.composite
def spellings(draw) -> tuple[Domain, str]:
    """A domain over B, I, S (and A) and a spelling of one of its orders:
    each letter in either case or as its look-alike, spaces and arrows
    between them, at times a letter dropped, repeated or foreign; or any
    short text over those characters."""
    domain = Domain.from_labels(draw(st.sampled_from(["BIS", "ABIS"])))
    if draw(st.booleans()):
        return domain, draw(st.text(alphabet="ABISabis >\u017f\u0131Z", max_size=9))
    letters = [draw(st.sampled_from([c, c.lower(), LOOK_ALIKES.get(c, c)])) for c in draw(st.permutations(domain.labels))]
    edit = draw(st.sampled_from(["none", "none", "drop", "repeat", "foreign"]))
    if edit == "drop":
        letters.pop()
    elif edit == "repeat":
        letters[-1] = letters[0]
    elif edit == "foreign":
        letters.append("Z")
    separators = [draw(st.sampled_from(["", " ", " > ", ">"])) for _ in letters]
    return domain, "".join(sep + c for sep, c in zip(separators, letters))


def oracle_order(labels: str, domain: Domain) -> LinearOrder:
    """`LinearOrder.from_labels` without its table: a new order from
    `by_label`, which must cover the domain."""
    ranking = tuple(domain.by_label(c) for c in labels)
    if len(ranking) != len(domain):
        raise DomainMismatchError(f"order {labels!r} does not cover domain {domain.labels}")
    return LinearOrder(ranking)


class TestOrderTable:
    """`LinearOrder.from_labels` returns one shared order per (domain,
    ranking), the same one `all_orders` lists."""

    def test_two_parses_share_their_orders(self):
        text = "alternatives: A B C D\n3: D > A > C > B\n2: b > a > d > c\n1: C D A B\n"
        first, second = parse_profile(text), parse_profile(text)
        assert all(x is y for x, y in zip(first.orders, second.orders))
        orders = first.domain._orders
        assert all(orders[first.domain._order_ids[order]] is order for order in first.types_present())

    def test_tiebreak_and_profile_line_are_one_order(self):
        profile = parse_profile("alternatives: A B C\n2: B > A > C\n1: C > B > A\n")
        rule = parse_rule("rule: scoring\nscores: 2 1 0\ntiebreak: b > a > c\n")
        assert rule.tiebreak is profile.orders[0] is o("BAC")

    def test_spellings_share_one_order(self):
        spellings = (
            LinearOrder.from_string("a > c > b", D3),
            LinearOrder.from_labels("ACB", D3),
            LinearOrder.from_string("A C B", D3),
            LinearOrder.from_labels("aCb", D3),
        )
        assert all(order is D3._orders[1] for order in spellings)
        assert all(LinearOrder.from_labels(order.compact, D3) is order for order in all_orders(D3))

    @pytest.mark.parametrize("labels, error", [("AAB", ValueError), ("AB", DomainMismatchError), ("\u0131AB", DomainMismatchError)])
    def test_rejected_spelling_is_not_kept(self, labels, error):
        before = dict(D3._interned)
        for _ in range(2):
            with pytest.raises(error):
                LinearOrder.from_labels(labels, D3)
        assert D3._interned == before
        assert all(key.isascii() and key.isupper() and len(key) == 3 for key in D3._interned)

    def test_table_and_orders_agree_whichever_is_filled_first(self):
        # Each label set gets a cold domain in a fresh interpreter: ABC is
        # parsed before its orders are listed, ABCD listed before it is parsed.
        code = (
            "from safevote.core import Domain, LinearOrder, all_orders, parse_profile\n"
            "from safevote.rules import parse_rule\n"
            "p = parse_profile('alternatives: A B C\\n2: C > A > B\\n1: b a c\\n')\n"
            "r = parse_rule('rule: scoring\\nscores: 2 1 0\\ntiebreak: A > C > B\\n')\n"
            "d = p.domain\n"
            "assert '_orders' not in vars(d) and len(d._interned) == 3\n"
            "orders = all_orders(d)\n"
            "assert orders[4] is p.orders[0] and orders[2] is p.orders[2] and orders[1] is r.tiebreak\n"
            "assert all(LinearOrder.from_labels(x.compact, d) is x for x in orders)\n"
            "d4 = Domain.of_size(4)\n"
            "orders = all_orders(d4)\n"
            "p = parse_profile('alternatives: D C B A\\n1: D > B > C > A\\n1: a b c d\\n')\n"
            "assert p.orders[0] is orders[21] and p.orders[1] is orders[0] and len(d4._interned) == 24\n"
            "assert all(LinearOrder.from_labels(x.compact, d4) is x for x in orders)\n"
            "print(len(d._interned), len(d4._interned))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "6 24\n"

    def test_a_parse_after_listing_builds_no_order(self, monkeypatch):
        # The label set is this test's own, so no earlier parse has read it.
        listed = all_orders(Domain.from_labels("PQR"))
        built = []
        post_init = LinearOrder.__post_init__
        monkeypatch.setattr(LinearOrder, "__post_init__", lambda order: built.append(order) or post_init(order))
        profile = parse_profile("alternatives: r q p\n2: R > P > Q\n1: q p r\n3: pRq\n")
        assert built == []
        assert [listed.index(order) for order in profile.types_present()] == [4, 2, 1]
        assert all(order is listed[listed.index(order)] for order in profile.orders)

    @given(spelling=spellings())
    @settings(max_examples=300, deadline=None)
    def test_from_string_matches_the_oracle(self, spelling):
        domain, text = spelling
        labels = "".join(text.replace(">", " ").split())
        try:
            expected = oracle_order(labels, domain)
        except (DomainMismatchError, ValueError) as exc:
            before = dict(domain._interned)
            with pytest.raises(type(exc)):
                LinearOrder.from_string(text, domain)
            assert domain._interned == before
            return
        order = LinearOrder.from_string(text, domain)
        assert order == expected and hash(order) == hash(expected)
        assert order is LinearOrder.from_labels(labels, domain) is domain._orders[domain._order_ids[expected]]


class TestAlternative:
    def test_equal_alternatives_hash_equal(self):
        a, b = Alternative(2, "C"), Alternative(2, "C")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b, D3.by_label("C"), Domain.of_size(3).alternatives[2]}) == 1

    def test_same_index_different_label_unequal(self):
        assert Alternative(1, "B") != Alternative(1, "X")
        assert Alternative(1, "B") not in {Alternative(1, "X")}
        assert Alternative(1, "B") != (1, "B")

    def test_order_by_index_then_label(self):
        alts = [Alternative(2, "A"), Alternative(0, "C"), Alternative(2, "B")]
        assert sorted(alts) == [Alternative(0, "C"), Alternative(2, "A"), Alternative(2, "B")]


class TestLinearOrder:
    def test_from_string_arrow_and_compact(self):
        assert LinearOrder.from_string("A > C > B", D3) == o("ACB")
        assert LinearOrder.from_string("acb", D3) == o("ACB")

    def test_rank_top_bottom(self):
        order = o("BCA")
        assert order.top.label == "B"
        assert order.bottom.label == "A"
        assert [order.rank(a) for a in D3] == [2, 0, 1]

    def test_prefers(self):
        order = o("BCA")
        assert order.prefers(D3.by_label("B"), D3.by_label("A"))
        assert not order.prefers(D3.by_label("A"), D3.by_label("C"))

    def test_rank_and_prefers_reject_foreign_alternatives(self):
        # D shares C's index; F's index is past the domain's end.
        order, a = o("BCA"), D3.by_label("A")
        for foreign in (Alternative(2, "D"), Alternative(5, "F")):
            message = f"{foreign} not in order B > C > A"
            with pytest.raises(DomainMismatchError, match=message):
                order.rank(foreign)
            with pytest.raises(DomainMismatchError, match=message):
                order.prefers(foreign, a)
            with pytest.raises(DomainMismatchError, match=message):
                order.prefers(a, foreign)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_ranks_agree_with_rank(self, m):
        domain = Domain.of_size(m)
        for order in all_orders(domain):
            assert order.ranks == tuple(order.rank(a) for a in domain)

    def test_incomplete_order_rejected(self):
        with pytest.raises(DomainMismatchError):
            LinearOrder.from_labels("AB", D3)

    def test_parsed_orders_carry_their_domain(self):
        # One domain object per label set, however the orders were built or
        # read, so domain checks between them are identity tests.
        profile = parse_profile("alternatives: A B C\n2: A > B > C\n1: C > B > A\n")
        assert all(order.domain is profile.domain is D3 for order in profile.orders)
        assert o("CAB").domain is D3
        plain = LinearOrder(tuple(Alternative(a.index, a.label) for a in o("CBA").ranking))
        assert plain.domain is D3
        assert voters_of_type(profile, plain) == frozenset({2})
        # A profile and a rule read from separate texts share one domain.
        profile = parse_profile("alternatives: Z Q X\n2: Z > Q > X\n1: X > Q > Z\n")
        rule = parse_rule("rule: scoring\nscores: 2 1 0\ntiebreak: X > Z > Q\n")
        assert profile.domain is rule.domain is Domain.from_labels("QXZ")
        assert rule.evaluate(profile).label == "Z"

    def test_duplicate_entry_rejected(self):
        a = D3.by_label("A")
        with pytest.raises(ValueError):
            LinearOrder((a, a, D3.by_label("B")))

    def test_str_round_trip(self):
        order = o("CAB")
        assert str(order) == "C > A > B"
        assert order.compact == "CAB"
        assert LinearOrder.from_string(str(order), D3) == order

    def test_all_orders_lexicographic(self):
        assert [x.compact for x in all_orders(D3)] == [
            "ABC", "ACB", "BAC", "BCA", "CAB", "CBA",
        ]

    def test_all_orders_returns_a_new_list_each_call(self):
        first = all_orders(D3)
        first.reverse()
        first.pop()
        assert [x.compact for x in all_orders(D3)] == [
            "ABC", "ACB", "BAC", "BCA", "CAB", "CBA",
        ]

    def test_equal_orders_built_apart_hash_equal(self):
        # An order built directly is a new instance, and the domain does not
        # keep it; one read from labels is the domain's shared one.
        for x in all_orders(D3):
            y = LinearOrder(x.ranking)
            assert x is not y and LinearOrder.from_labels(x.compact, D3) is x
            assert all(kept is not y for kept in D3._interned.values())
            assert x == y
            assert hash(x) == hash(y)
        assert len({o("CAB"), LinearOrder(o("CAB").ranking), LinearOrder.from_string("C > A > B", D3)}) == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_eq_and_hash_agree_over_every_order(self, m):
        # Interned orders against equal ones built apart from fresh
        # alternatives, and against orders over other labels with the
        # same indices, whose hashes match but which are not equal.
        interned = all_orders(Domain.of_size(m))
        apart = [LinearOrder(tuple(Alternative(a.index, a.label) for a in x.ranking)) for x in interned]
        foreign = all_orders(Domain.from_labels("VWXYZ"[:m]))
        for i, x in enumerate(interned):
            assert x == x and not x != x
            assert x is not apart[i] and x == apart[i] == x and hash(x) == hash(apart[i])
            assert hash(foreign[i]) == hash(x) and x != foreign[i] and not foreign[i] == x
            for j, y in enumerate(apart):
                assert (x == y) is (y == x) is (i == j)
                assert (x != y) is (i != j)
            assert x.__eq__(x.compact) is NotImplemented and x.__eq__(x.ranking) is NotImplemented
            assert x != x.compact and x != x.ranking and x != None  # noqa: E711

    def test_hash_is_the_same_in_every_process(self):
        code = (
            "from safevote.core import Alternative, Domain, LinearOrder;"
            "print(hash(LinearOrder.from_labels('CAEBD', Domain.of_size(5))), hash(Alternative(3, 'D')))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        hashes = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert hashes == {f"{hash(o('CAEBD', D5))} {hash(Alternative(3, 'D'))}\n"}


class TestProfile:
    def test_voters_of_type_singleton(self):
        assert voters_of_type(PROFILE_1, o("ABC")) == {0}

    def test_voters_of_type_pair(self):
        assert voters_of_type(PROFILE_2, o("ABC")) == {0, 1}

    def test_voters_of_type_empty(self):
        assert voters_of_type(PROFILE_1, o("ACB")) == frozenset()

    def test_voters_of_type_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            voters_of_type(PROFILE_1, o("ABCDE", D5))

    def test_from_counts(self):
        p = Profile.from_counts([(o("ABC"), 2), (o("CBA"), 1)])
        assert p.n == 3
        assert p.counts[o("ABC")] == 2

    def test_from_counts_negative(self):
        with pytest.raises(ValueError):
            Profile.from_counts([(o("ABC"), -1)])

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            Profile(())

    def test_mixed_domain_rejected(self):
        with pytest.raises(DomainMismatchError):
            Profile((o("ABC"), o("ABCDE", D5)))

    def test_mixed_domain_in_third_ballot_rejected(self):
        with pytest.raises(DomainMismatchError):
            Profile((o("ABC"), o("CBA"), o("ABCDE", D5)))
        with pytest.raises(DomainMismatchError):
            # Same indices, so the same hash, but labels from another domain.
            Profile((o("ABC"), o("ABC"), o("ABD", Domain.from_labels("ABD"))))

    def test_counts_merge_equal_orders_in_first_appearance_order(self):
        p = Profile((o("BCA"), o("ABC"), o("BCA", Domain.from_labels("ABC")), o("ABC")))
        assert list(p.counts.items()) == [(o("BCA"), 2), (o("ABC"), 2)]

    def test_grouped_view_partitions(self):
        view = PROFILE_2.grouped_view
        union = frozenset().union(*view.values())
        assert union == frozenset(range(PROFILE_2.n))
        assert sum(len(v) for v in view.values()) == PROFILE_2.n

    def test_types_present_first_appearance_order(self):
        assert [t.compact for t in PROFILE_2.types_present()] == ["ABC", "BCA", "CBA"]


class TestSwitchVotes:
    def test_single_switch(self):
        switched = switch_votes(PROFILE_2, frozenset({0}), o("ACB"))
        assert switched.orders[0] == o("ACB")
        assert switched.orders[1:] == PROFILE_2.orders[1:]

    def test_empty_set_is_identity(self):
        assert switch_votes(PROFILE_2, frozenset(), o("ACB")) is PROFILE_2

    def test_pure_and_repeatable(self):
        first = switch_votes(PROFILE_2, frozenset({0, 1}), o("ACB"))
        second = switch_votes(PROFILE_2, frozenset({0, 1}), o("ACB"))
        assert first == second
        assert PROFILE_2.orders[0] == o("ABC")

    def test_ceteris_paribus(self):
        switched = switch_votes(PROFILE_2, frozenset({0, 1}), o("CAB"))
        for v in range(PROFILE_2.n):
            if v in {0, 1}:
                assert switched.orders[v] == o("CAB")
            else:
                assert switched.orders[v] == PROFILE_2.orders[v]

    def test_grouped_view_consistent_after_edit(self):
        switched = switch_votes(PROFILE_2, frozenset({1}), o("BCA"))
        regenerated = {}
        for i, order in enumerate(switched.orders):
            regenerated.setdefault(order, set()).add(i)
        assert {k: frozenset(v) for k, v in regenerated.items()} == dict(switched.grouped_view)

    def test_mixed_type_coalition_rejected(self):
        with pytest.raises(EditError):
            switch_votes(PROFILE_1, frozenset({0, 1}), o("CAB"))

    def test_no_op_switch_rejected(self):
        with pytest.raises(EditError):
            switch_votes(PROFILE_2, frozenset({0, 1}), o("ABC"))

    def test_out_of_range_voter_rejected(self):
        with pytest.raises(EditError):
            switch_votes(PROFILE_2, frozenset({9}), o("ACB"))

    def test_domain_mismatch_rejected(self):
        with pytest.raises(DomainMismatchError):
            switch_votes(PROFILE_2, frozenset({0}), o("ABCDE", D5))


class TestTableIndex:
    """A profile's index, which a table rule reads, is the table encoding."""

    @staticmethod
    def assert_kept_index_is_the_encoding(rule, profile):
        # Every profile computes its index from its ballots on first read,
        # and the rule's lookup reads and keeps it: a walked or decoded
        # profile's index is that of the same ballots built afresh.
        fresh = Profile(profile.orders)
        assert "index" not in vars(fresh)
        winner = rule.evaluate(profile)
        index = vars(profile)["index"]
        assert index == fresh.index
        assert winner == rule.winners[index]
        assert profile.index == index
        assert decode_profile(index, profile.n, all_orders(D3)) == profile

    def test_every_two_voter_profile(self):
        rule = random_table_rule(2, 3, 5)
        for profile in all_profiles(Domain.of_size(3), 2):
            self.assert_kept_index_is_the_encoding(rule, profile)
        for index in range(36):
            self.assert_kept_index_is_the_encoding(rule, decode_profile(index, 2, all_orders(D3)))

    def test_decode_rejects_an_index_outside_the_space(self):
        orders = all_orders(D3)
        for index in (0, 35):
            assert decode_profile(index, 2, orders).index == index
        for index in (-1, 36):
            with pytest.raises(ValueError, match=r"outside 0\.\.35"):
                decode_profile(index, 2, orders)

    def test_orders_built_directly(self):
        # Orders built from their rankings, not taken from the domain's
        # table, still derive the rule's domain and encode by its ids.
        rule = random_table_rule(2, 3, 5)
        for first, second in itertools.product(all_orders(D3), repeat=2):
            profile = Profile((LinearOrder(first.ranking), LinearOrder(second.ranking)))
            assert profile.domain is rule.domain
            self.assert_kept_index_is_the_encoding(rule, profile)

    def test_switched_profiles(self):
        rule = random_table_rule(2, 3, 5)
        orders = Domain.of_size(3)._orders
        for profile in all_profiles(Domain.of_size(3), 2):
            rule.evaluate(profile)
            for order, voters in profile.grouped_view.items():
                for target in orders:
                    if target != order:
                        for coalition in (voters, frozenset({min(voters)})):
                            self.assert_kept_index_is_the_encoding(rule, switch_votes(profile, coalition, target))


class TestSharedFirstLine:
    """`all_profiles` yields the domain's shared profiles for the first m!
    of each voter count, built as walks reach them, and new ones after."""

    @pytest.mark.parametrize("m, n", [(3, 1), (3, 2), (3, 3), (4, 2)])
    def test_walk_is_the_digit_tuples(self, monkeypatch, m, n):
        domain = Domain.of_size(m)
        monkeypatch.setitem(domain.__dict__, "_first_lines", {})
        expected = list(map(Profile, itertools.product(domain._orders, repeat=n)))
        for _ in ("cold", "warm"):
            walked = list(all_profiles(domain, n))
            assert walked == expected
            assert [p.index for p in walked] == list(range(len(expected)))

    def test_walks_share_the_first_m_factorial_profiles(self):
        first, second = list(all_profiles(D3, 2)), list(all_profiles(D3, 2))
        assert all(a is b for a, b in zip(first[:6], second[:6]))
        assert first[6] == second[6] and first[6] is not second[6]
        assert len(D3._first_lines[2]) == 6

    def test_a_walk_keeps_only_what_it_reached(self, monkeypatch):
        monkeypatch.setitem(D3.__dict__, "_first_lines", {})
        reached = list(itertools.islice(all_profiles(D3, 3), 3))
        assert len(D3._first_lines[3]) <= 3
        # Interleaved walks read and grow one line.
        walks = zip(all_profiles(D3, 3), all_profiles(D3, 3))
        pairs = list(itertools.islice(walks, 7))
        assert all(a is b for a, b in pairs[:6]) and pairs[6][0] is not pairs[6][1]
        assert all(a is kept for (a, _), kept in zip(pairs, reached))
        assert len(D3._first_lines[3]) == 6

    def test_a_one_voter_walk_keeps_no_line(self, monkeypatch):
        # One voter's first line is the whole profile space.
        monkeypatch.setitem(D3.__dict__, "_first_lines", {})
        first, second = list(all_profiles(D3, 1)), list(all_profiles(D3, 1))
        assert first == second and first[0] is not second[0]
        assert 1 not in D3._first_lines
        assert len(list(all_profiles(D3, 2))) == 36
        assert list(D3._first_lines) == [2] and len(D3._first_lines[2]) == 6


class TestProfileText:
    COUNTS_TEXT = "alternatives: A B C\n17: A > B > C\n15: A > C > B\n"
    VOTER_TEXT = "alternatives: A B C\nvoter 1: A > B > C\nvoter 2: C > A > B\n"

    def test_parse_counts_style(self):
        p = parse_profile(self.COUNTS_TEXT)
        assert p.n == 32
        assert p.counts[LinearOrder.from_labels("ABC", p.domain)] == 17

    def test_parse_counts_up_to_the_voter_limit(self):
        p = parse_profile(f"alternatives: A B\n{MAX_VOTERS - 1}: A > B\n1: B > A\n")
        assert p.n == MAX_VOTERS

    def test_parse_voter_style(self):
        p = parse_profile(self.VOTER_TEXT)
        assert [x.compact for x in p.orders] == ["ABC", "CAB"]

    def test_round_trip_counts(self):
        p = parse_profile(self.COUNTS_TEXT)
        assert parse_profile(format_profile(p)) == p

    def test_round_trip_voters(self):
        p = parse_profile(self.VOTER_TEXT)
        assert parse_profile(format_profile(p)) == p
        assert "voter 1:" in format_profile(p)

    def test_whitespace_and_comments(self):
        text = "# leading comment\nalternatives:  A  B  C\n 3 :  A>B > C \n"
        p = parse_profile(text)
        assert p.n == 3

    def test_mixing_styles_rejected(self):
        with pytest.raises(ParseError):
            parse_profile("alternatives: A B C\n2: A > B > C\nvoter 1: C > A > B\n")

    def test_duplicate_type_line_rejected(self):
        with pytest.raises(ParseError):
            parse_profile("alternatives: A B C\n2: A > B > C\n3: A > B > C\n")

    def test_duplicate_voter_line_rejected(self):
        with pytest.raises(ParseError):
            parse_profile("alternatives: A B C\nvoter 1: A > B > C\nvoter 1: C > A > B\n")

    def test_non_contiguous_voters_rejected(self):
        with pytest.raises(ParseError):
            parse_profile("alternatives: A B C\nvoter 2: A > B > C\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_profile("2: A > B > C\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("alternatives: \u0131 a b\n1: a > b > i\n", 1),
            ("alternatives: A B S\n1: A > B > \u017f\n", 2),
            ("alternatives: A B I\n# I, not \u0131\nvoter 1: \u0131 > A > B\n", 3),
        ],
    )
    def test_non_ascii_label_reports_line(self, text, line):
        # `str.upper` reads "ı" as I and "ſ" as S; only ASCII letters are labels.
        with pytest.raises(ParseError) as exc:
            parse_profile(text)
        assert exc.value.line == line

    def test_bad_order_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_profile("alternatives: A B C\n2: A > B\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "line",
        [
            "voterx 1: A > B > C",
            "voter 2 junk: B > A > C",
            "voter 1 2: A > B > C",
            "voter: A > B > C",
            "voter 1_0: A > B > C",
            "voter \u0661: A > B > C",
            "1_0: A > B > C",
            "+3: A > B > C",
            "\uff13: A > B > C",
            "3 3: A > B > C",
        ],
    )
    def test_malformed_head_reports_line(self, line):
        with pytest.raises(ParseError) as exc:
            parse_profile(f"alternatives: A B C\n# a comment\n{line}\n")
        assert exc.value.line == 3

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            parse_profile("\n# only comments\n")


# Strings with what JSON escapes: quotes, backslashes, control characters,
# non-ASCII letters, a lone surrogate and a character outside the BMP.
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé\u2028\ud800😀'), st.characters()), max_size=6)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(10**80), 10**80), JSON_TEXT)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=40,
)


class TestFormatJson:
    @given(JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, value):
        assert format_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [{}, [], "", 0, -0, True, False, None, [[]], {"": {}}, [{}, [], [{"a": []}]]])
    def test_empty_containers_and_scalars(self, value):
        assert format_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, Fraction(1, 2), (1,), {1: "a"}, {True: 1}, {"a": 1, 2: "b"}, {None: 1}, {"a": [1, 2.0]}, [{"b": Fraction(1)}]],
        ids=["float", "fraction", "tuple", "int-key", "bool-key", "mixed-keys", "none-key", "nested-float", "nested-fraction"],
    )
    def test_other_types_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            format_json(value)
