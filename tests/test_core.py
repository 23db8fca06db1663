"""Unit tests for the ballot-domain vocabulary."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from safevote.core import (
    MAX_VOTERS,
    Alternative,
    Domain,
    DomainMismatchError,
    EditError,
    LinearOrder,
    ParseError,
    Preference,
    Profile,
    all_orders,
    completely_agreed,
    format_profile,
    group_prefers,
    parse_profile,
    switch_votes,
    voters_of_type,
)

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

    def test_by_label_case_insensitive(self):
        assert D3.by_label("b") == Alternative(1, "B")

    def test_by_label_unknown(self):
        with pytest.raises(DomainMismatchError):
            D3.by_label("Z")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Domain((Alternative(0, "A"), Alternative(1, "A")))

    def test_contains(self):
        assert Alternative(0, "A") in D3
        assert Alternative(3, "D") not in D3
        assert "A" not in D3


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

    def test_incomplete_order_rejected(self):
        with pytest.raises(DomainMismatchError):
            LinearOrder.from_labels("AB", D3)

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

    def test_equal_orders_from_separate_domains_hash_equal(self):
        other = Domain.from_labels("ABC")
        assert other is not D3
        for x, y in zip(all_orders(D3), all_orders(other)):
            assert x is not y
            assert x == y
            assert hash(x) == hash(y)
        assert len({o("CAB"), o("CAB", other), LinearOrder.from_string("C > A > B", other)}) == 1

    def test_hash_is_the_same_in_every_process(self):
        code = (
            "from safevote.core import Domain, LinearOrder;"
            "print(hash(LinearOrder.from_labels('CAEBD', Domain.of_size(5))))"
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
        assert hashes == {f"{hash(o('CAEBD', D5))}\n"}


class TestGroupPrefers:
    def test_top_beats_bottom(self):
        assert group_prefers(o("ABC"), D3.by_label("A"), D3.by_label("C")) == Preference.STRICT

    def test_reflexive_is_weak(self):
        b = D3.by_label("B")
        assert group_prefers(o("ABC"), b, b) == Preference.WEAK

    def test_five_alternative_comparison(self):
        order = o("ABCDE", D5)
        assert group_prefers(order, D5.by_label("B"), D5.by_label("E")) == Preference.STRICT

    def test_reverse_is_no(self):
        assert group_prefers(o("ABC"), D3.by_label("C"), D3.by_label("A")) == Preference.NO


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

    def test_completely_agreed(self):
        p = completely_agreed(o("BCA"), 5)
        assert p.n == 5
        assert p.counts == {o("BCA"): 5}


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

    def test_bad_order_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_profile("alternatives: A B C\n2: A > B\n")
        assert exc.value.line == 2

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            parse_profile("\n# only comments\n")
