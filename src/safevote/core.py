"""Ballot-domain vocabulary: alternatives, linear orders, profiles, edits.

Voter indices are 0-based everywhere inside the library and converted to
1-based only at I/O boundaries (profile text files, certificate JSON,
CLI reports).
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

MAX_ALTERNATIVES = 26
#: Most voters a profile file may list; count lines are checked against it
#: before any ballot is expanded.
MAX_VOTERS = 1_000_000

_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class SafevoteError(Exception):
    """Base class for all library errors."""


class DomainMismatchError(SafevoteError):
    """An order, profile, or alternative belongs to a different domain."""


class ParseError(SafevoteError):
    """A profile or rule file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EditError(SafevoteError):
    """An invalid profile edit (mixed-type coalition, no-op switch)."""


@dataclass(frozen=True, order=True)
class Alternative:
    """One candidate outcome: a 0-based index plus a display letter."""

    index: int
    label: str

    def __post_init__(self) -> None:
        if not (0 <= self.index < MAX_ALTERNATIVES):
            raise ValueError(f"alternative index {self.index} out of range")
        if len(self.label) != 1 or self.label not in _LABELS + _LABELS.lower():
            raise ValueError(f"alternative label {self.label!r} must be a single letter")

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Domain:
    """The ordered set of alternatives an election chooses from."""

    alternatives: tuple[Alternative, ...]

    def __post_init__(self) -> None:
        labels = [a.label for a in self.alternatives]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in domain: {labels}")
        for i, alt in enumerate(self.alternatives):
            if alt.index != i:
                raise ValueError(f"alternative {alt.label} has index {alt.index}, expected {i}")

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Domain":
        return cls(tuple(Alternative(i, lab) for i, lab in enumerate(labels)))

    @classmethod
    def of_size(cls, m: int) -> "Domain":
        """The standard domain A, B, C, ... of m alternatives."""
        return cls.from_labels(_LABELS[:m])

    def __len__(self) -> int:
        return len(self.alternatives)

    def __iter__(self) -> Iterator[Alternative]:
        return iter(self.alternatives)

    def __contains__(self, alt: object) -> bool:
        if not isinstance(alt, Alternative):
            return False
        return alt.index < len(self.alternatives) and self.alternatives[alt.index] == alt

    @cached_property
    def _orders(self) -> tuple[LinearOrder, ...]:
        """The m! orders over the domain, built once, lexicographic by labels."""
        return tuple(LinearOrder(perm) for perm in itertools.permutations(self.alternatives))

    @cached_property
    def _by_label(self) -> Mapping[str, Alternative]:
        return {a.label: a for a in self.alternatives}

    def by_label(self, label: str) -> Alternative:
        try:
            return self._by_label[label.upper()]
        except KeyError:
            raise DomainMismatchError(f"no alternative labelled {label!r} in domain {self.labels}") from None

    @property
    def labels(self) -> str:
        return "".join(a.label for a in self.alternatives)


@dataclass(frozen=True)
class LinearOrder:
    """A strict total ranking of every alternative, best first.

    A voter's sincere order is their "type"; like-minded voters share one
    LinearOrder instance-wise or value-wise (orders compare by value).
    """

    ranking: tuple[Alternative, ...]

    def __post_init__(self) -> None:
        indices = tuple(a.index for a in self.ranking)
        if sorted(indices) != list(range(len(indices))):
            raise ValueError(f"ranking {self.ranking} is not a permutation of a full domain")
        # Integer indices only, so the hash is the same in every process;
        # equal orders have equal indices, so it agrees with equality.
        object.__setattr__(self, "_hash", hash(indices))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_labels(cls, labels: str, domain: Domain) -> "LinearOrder":
        """Build an order from a compact label string like "ACB"."""
        ranking = tuple(domain.by_label(lab) for lab in labels)
        if len(ranking) != len(domain):
            raise DomainMismatchError(f"order {labels!r} does not cover domain {domain.labels}")
        return cls(ranking)

    @classmethod
    def from_string(cls, text: str, domain: Domain) -> "LinearOrder":
        """Parse "A > C > B" or the compact "ACB"."""
        labels = "".join(text.replace(">", " ").split())
        return cls.from_labels(labels, domain)

    @cached_property
    def domain(self) -> Domain:
        return Domain(tuple(sorted(self.ranking, key=lambda a: a.index)))

    @cached_property
    def _ranks(self) -> Mapping[Alternative, int]:
        return {a: i for i, a in enumerate(self.ranking)}

    def rank(self, alt: Alternative) -> int:
        """0 for the best-ranked alternative, m-1 for the worst."""
        try:
            return self._ranks[alt]
        except KeyError:
            raise DomainMismatchError(f"{alt} not in order {self}") from None

    @property
    def top(self) -> Alternative:
        return self.ranking[0]

    @property
    def bottom(self) -> Alternative:
        return self.ranking[-1]

    def prefers(self, x: Alternative, y: Alternative) -> bool:
        """True iff x is ranked strictly above y."""
        return self.rank(x) < self.rank(y)

    @property
    def compact(self) -> str:
        return "".join(a.label for a in self.ranking)

    def __str__(self) -> str:
        return " > ".join(a.label for a in self.ranking)


class Preference(enum.Enum):
    """Outcome of a group comparison under one shared order."""

    STRICT = "strict"
    WEAK = "weak"
    NO = "no"


def group_prefers(type_order: LinearOrder, x: Alternative, y: Alternative) -> Preference:
    """How a uniform-type group ranks x against y.

    STRICT: everyone ranks x above y.  WEAK: no lower (only the x == y
    case, since orders are strict).  NO: y is ranked above x.
    """
    rx, ry = type_order.rank(x), type_order.rank(y)
    if rx < ry:
        return Preference.STRICT
    if rx == ry:
        return Preference.WEAK
    return Preference.NO


# Voter coalitions are plain frozensets of 0-based indices.
VoterSet = frozenset


@dataclass(frozen=True)
class Profile:
    """A sequence of ballots, one strict linear order per voter."""

    orders: tuple[LinearOrder, ...]

    #: Ballot count per type, in first-appearance order.
    counts: Mapping[LinearOrder, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.orders:
            raise ValueError("a profile needs at least one voter")
        counts = dict(Counter(self.orders))
        d = self.orders[0].domain
        for o in counts:
            if o.domain != d:
                raise DomainMismatchError("all ballots in a profile must share one domain")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, counts: Sequence[tuple[LinearOrder, int]]) -> "Profile":
        """Expand an anonymous (type, count) multiset into per-voter ballots."""
        orders: list[LinearOrder] = []
        for order, count in counts:
            if count < 0:
                raise ValueError(f"negative count {count} for {order.compact}")
            orders.extend([order] * count)
        return cls(tuple(orders))

    @property
    def n(self) -> int:
        return len(self.orders)

    @property
    def domain(self) -> Domain:
        return self.orders[0].domain

    @cached_property
    def grouped_view(self) -> Mapping[LinearOrder, VoterSet]:
        """Partition of voters by type; authoritative for anonymous analysis."""
        groups: dict[LinearOrder, set[int]] = {}
        for i, order in enumerate(self.orders):
            groups.setdefault(order, set()).add(i)
        return {order: frozenset(members) for order, members in groups.items()}

    def types_present(self) -> list[LinearOrder]:
        """Distinct types in first-appearance order (deterministic)."""
        return list(self.counts)

    def __str__(self) -> str:
        return format_profile(self)


def voters_of_type(profile: Profile, order: LinearOrder) -> VoterSet:
    """All voters whose ballot equals the given order (possibly empty)."""
    if order.domain != profile.domain:
        raise DomainMismatchError(f"order {order.compact} is not over domain {profile.domain.labels}")
    return profile.grouped_view.get(order, frozenset())


def switch_votes(profile: Profile, voters: VoterSet, order: LinearOrder) -> Profile:
    """The profile with every listed voter's ballot replaced by `order`.

    The coalition must be of one type, and that type must differ from the
    strategic order; everyone outside the coalition is untouched.
    """
    if order.domain != profile.domain:
        raise DomainMismatchError(f"order {order.compact} is not over domain {profile.domain.labels}")
    if not voters:
        return profile
    if not all(0 <= v < profile.n for v in voters):
        raise EditError(f"coalition {sorted(voters)} contains out-of-range voters")
    types = {profile.orders[v] for v in voters}
    if len(types) > 1:
        raise EditError(f"coalition {sorted(voters)} mixes types {[t.compact for t in types]}")
    if types == {order}:
        raise EditError(f"coalition already votes {order.compact}")
    new_orders = list(profile.orders)
    for v in voters:
        new_orders[v] = order
    return Profile(tuple(new_orders))


def all_orders(domain: Domain) -> list[LinearOrder]:
    """Every strict linear order over the domain, lexicographic by labels.

    The orders are the domain's interned instances; the list is new on
    every call, so callers may mutate it.
    """
    return list(domain._orders)


def completely_agreed(order: LinearOrder, n: int) -> Profile:
    """The n-voter profile on which everyone reports `order`."""
    return Profile((order,) * n)


# ---------------------------------------------------------------------------
# Profile text format
#
#   alternatives: A B C
#   17: A > B > C          (anonymous count lines)
# or
#   voter 3: C > A > B     (explicit per-voter lines; 1-based indices)
#
# Mixing the two styles, or repeating a type/voter line, is an error.
# ---------------------------------------------------------------------------


def parse_profile(text: str) -> Profile:
    lines = [(no, line.strip()) for no, line in enumerate(text.splitlines(), start=1)]
    lines = [(no, line) for no, line in lines if line and not line.startswith("#")]
    if not lines:
        raise ParseError("empty profile file")

    no, header = lines[0]
    if not header.lower().startswith("alternatives"):
        raise ParseError("expected 'alternatives:' header", no)
    _, _, labels_part = header.partition(":")
    # Labels are case-insensitive; `Domain.by_label` upper-cases too.
    labels = labels_part.upper().split()
    if not labels:
        raise ParseError("no alternative labels listed", no)
    try:
        domain = Domain.from_labels(sorted(labels))
    except ValueError as exc:
        raise ParseError(str(exc), no) from exc

    count_entries: list[tuple[LinearOrder, int]] = []
    voter_entries: dict[int, LinearOrder] = {}
    seen_types: set[LinearOrder] = set()
    total = 0
    for no, line in lines[1:]:
        head, sep, order_part = line.partition(":")
        if not sep:
            raise ParseError("expected '<count>:' or 'voter <i>:' line", no)
        try:
            order = LinearOrder.from_string(order_part, domain)
        except (DomainMismatchError, ValueError) as exc:
            raise ParseError(str(exc), no) from exc
        head = head.strip()
        if head.lower().startswith("voter"):
            if count_entries:
                raise ParseError("cannot mix count lines and voter lines", no)
            try:
                idx = int(head.split()[1])
            except (IndexError, ValueError):
                raise ParseError(f"bad voter index in {head!r}", no) from None
            if idx < 1:
                raise ParseError(f"voter indices are 1-based, got {idx}", no)
            if idx in voter_entries:
                raise ParseError(f"duplicate line for voter {idx}", no)
            voter_entries[idx] = order
        else:
            if voter_entries:
                raise ParseError("cannot mix count lines and voter lines", no)
            try:
                count = int(head)
            except ValueError:
                raise ParseError(f"bad count {head!r}", no) from None
            if count < 0:
                raise ParseError(f"negative count {count}", no)
            total += count
            if total > MAX_VOTERS:
                raise ParseError(f"profile lists more than {MAX_VOTERS} voters", no)
            if order in seen_types:
                raise ParseError(f"duplicate type line for {order.compact}", no)
            seen_types.add(order)
            count_entries.append((order, count))

    if voter_entries:
        expected = set(range(1, len(voter_entries) + 1))
        if set(voter_entries) != expected:
            raise ParseError(f"voter indices must be contiguous 1..{len(voter_entries)}")
        return Profile(tuple(voter_entries[i] for i in sorted(voter_entries)))
    if not count_entries:
        raise ParseError("profile lists no ballots")
    if not total:
        raise ParseError("count lines total zero voters")
    return Profile.from_counts(count_entries)


def format_profile(profile: Profile) -> str:
    """Render a profile in the text format: the anonymous count style
    whenever some type repeats, and the per-voter style otherwise."""
    lines = ["alternatives: " + " ".join(a.label for a in profile.domain)]
    if any(c > 1 for c in profile.counts.values()):
        for order in profile.types_present():
            lines.append(f"{profile.counts[order]}: {order}")
    else:
        for i, order in enumerate(profile.orders, start=1):
            lines.append(f"voter {i}: {order}")
    return "\n".join(lines) + "\n"
