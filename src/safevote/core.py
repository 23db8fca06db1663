"""Ballot-domain vocabulary: alternatives, linear orders, profiles, edits.

Voter indices are 0-based everywhere inside the library and converted to
1-based only at I/O boundaries (profile text files, certificate JSON,
CLI reports).

Domains and orders are shared: one `Domain` per label set, and one
`LinearOrder` per (domain, ranking), kept in the domain's one registry,
`Domain._interned`, whether a parse or `all_orders` built it first.  Both
are kept for the life of the process, so a repeated parse builds nothing
new.  So are the first m! profiles that `all_profiles` walks for each
voter count.  An order's id, its position in `all_orders`, is its hash,
computed from its ranking: no table maps orders to ids.  Labels are ASCII
letters in either case.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_string
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
    """A profile, rule or table file is malformed, or a number on the command line."""

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
        # Capitals only: `Domain.by_label` reads each label in either case.
        if len(self.label) != 1 or self.label not in _LABELS:
            raise ValueError(f"alternative label {self.label!r} must be a single letter A-Z")

    def __hash__(self) -> int:
        # The same in every process, and equal alternatives share it.
        return self.index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index == other.index and self.label == other.label

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Domain:
    """The ordered set of alternatives an election chooses from.

    It keeps the one registry of its orders, `_interned`: the shared
    `LinearOrder` of each ranking that a parse or `all_orders` has asked
    for, under its compact labels.
    """

    alternatives: tuple[Alternative, ...]

    def __post_init__(self) -> None:
        labels = tuple(a.label for a in self.alternatives)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in domain: {list(labels)}")
        for i, alt in enumerate(self.alternatives):
            if alt.index != i:
                raise ValueError(f"alternative {alt.label} has index {alt.index}, expected {i}")
        # The order registry: all m! orders once `_orders` has listed them.
        object.__setattr__(self, "_interned", {})
        # The shared first line of `all_profiles`, per voter count.
        object.__setattr__(self, "_first_lines", {})
        # A valid domain becomes the shared one for its labels; a second
        # domain over them would fail every identity check.
        if _DOMAINS.setdefault(labels, self) is not self:
            raise ValueError(f"a domain over {''.join(labels)} exists; use Domain.from_labels")

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Domain":
        """The one shared domain over these labels, in this order, so every
        domain check is an identity test; invalid labels are not kept."""
        key = tuple(labels)
        domain = _DOMAINS.get(key)
        if domain is None:
            domain = cls(tuple(Alternative(i, lab) for i, lab in enumerate(key)))
        return domain

    @classmethod
    def of_size(cls, m: int) -> "Domain":
        """The domain A, B, C, ... of m alternatives, 1 <= m <= 26."""
        if not 1 <= m <= MAX_ALTERNATIVES:
            raise ValueError(f"a domain has 1..{MAX_ALTERNATIVES} alternatives, got {m}")
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
        """The m! orders over the domain, listed once, lexicographic by
        labels: each the registry's order for its ranking, so one parsed
        before keeps its identity."""
        orders = map(LinearOrder, itertools.permutations(self.alternatives))
        return tuple(self._interned.setdefault(order.compact, order) for order in orders)

    @cached_property
    def _by_label(self) -> Mapping[str, Alternative]:
        """Each alternative under its label in either case: `str.upper`
        would also read letters such as "ſ" and "ı" as ASCII capitals."""
        return {label: a for a in self.alternatives for label in (a.label, a.label.lower())}

    def by_label(self, label: str) -> Alternative:
        try:
            return self._by_label[label]
        except KeyError:
            raise DomainMismatchError(f"no alternative labelled {label!r} in domain {self.labels}") from None

    @property
    def labels(self) -> str:
        return "".join(a.label for a in self.alternatives)


_DOMAINS: dict[tuple[str, ...], Domain] = {}


@dataclass(frozen=True)
class LinearOrder:
    """A strict total ranking of every alternative, best first.

    A voter's sincere order is their "type".  Orders compare by value and
    hash as their `id`, which two domains of one size share.  Those read
    from labels, and the domain's `all_orders`, are one shared instance
    per (domain, ranking): `from_labels(o.compact, d) is o` for every `o`
    in `all_orders(d)`.  An order built directly from a ranking is a new
    instance, equal to the shared one.
    """

    ranking: tuple[Alternative, ...]

    #: The order's position in `itertools.permutations` of its domain's
    #: alternatives and so in `all_orders`: its digit in `Profile.index`.
    id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Factorial base: each alternative's place among those not yet ranked.
        rest, code = list(range(len(self.ranking))), 0
        for alt in self.ranking:
            try:
                place = rest.index(alt.index)
            except ValueError:
                raise ValueError(f"ranking {self.ranking} is not a permutation of a full domain") from None
            code = code * len(rest) + place
            del rest[place]
        object.__setattr__(self, "id", code)

    def __hash__(self) -> int:
        return self.id

    def __eq__(self, other: object) -> bool:
        # Orders are mostly the domain's interned instances, and two
        # different ones of one domain differ in id, so the rankings are
        # compared only on an id match.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.id == other.id and self.ranking == other.ranking

    @classmethod
    def from_labels(cls, labels: str, domain: Domain) -> "LinearOrder":
        """The domain's shared order for a compact label string like "ACB",
        in either case.  A spelling is checked the first time its ranking
        is read; one that fails is not kept.  The registry keeps each order
        for the life of the process, at most m! per label set: once
        `all_orders` has listed them all, a parse builds none.
        """
        # ASCII only: `str.upper` of other letters can spell a kept key.
        order = domain._interned.get(labels.upper()) if labels.isascii() else None
        if order is None:
            ranking = tuple(domain.by_label(lab) for lab in labels)
            if len(ranking) != len(domain):
                raise DomainMismatchError(f"order {labels!r} does not cover domain {domain.labels}")
            order = cls(ranking)
            domain._interned[order.compact] = order
        return order

    @classmethod
    def from_string(cls, text: str, domain: Domain) -> "LinearOrder":
        """Parse "A > C > B" or the compact "ACB"."""
        return cls.from_labels(_order_labels(text), domain)

    @cached_property
    def domain(self) -> Domain:
        """The shared domain over the ranking's labels, in index order."""
        return Domain.from_labels(a.label for a in sorted(self.ranking, key=lambda a: a.index))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Each alternative's `rank`, indexed by alternative index: a walk
        whose outcomes are over the order's domain reads
        `ranks[outcome.index]`, with no call per outcome."""
        ranks = [0] * len(self.ranking)
        for i, a in enumerate(self.ranking):
            ranks[a.index] = i
        return tuple(ranks)

    def rank(self, alt: Alternative) -> int:
        """0 for the best-ranked alternative, m-1 for the worst."""
        ranks = self.ranks
        # The index alone would take another domain's alternative.
        if alt.index < len(ranks) and self.ranking[ranks[alt.index]] == alt:
            return ranks[alt.index]
        raise DomainMismatchError(f"{alt} not in order {self}")

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


# Voter coalitions are plain frozensets of 0-based indices.
VoterSet = frozenset

#: An order's domain, read in C: after its first read it is a plain
#: attribute of the order.
_domain_of = operator.attrgetter("domain")


@dataclass(frozen=True)
class Profile:
    """A sequence of ballots, one strict linear order per voter.

    `n` and `domain` are plain attributes, set when the profile is built.
    Every derived value, `index`, `counts` and `grouped_view` (built
    together) and the tally memo, is computed by `__getattr__` the first
    time it is read and kept as a plain attribute: a `cached_property`
    takes a lock on its first read on Python 3.11.  The counts and voter
    sets have one path, whichever way the profile was built: the runs of
    equal ballots are found in C, one Python step per run, not per voter.
    """

    orders: tuple[LinearOrder, ...]

    #: The voter count.
    n: int = field(init=False, repr=False, compare=False)

    #: The domain every ballot is over.
    domain: Domain = field(init=False, repr=False, compare=False)

    #: The profile's position in `all_profiles` order: its ballots' `id`s
    #: in radix m!, voter 1 the most significant digit, with no order listed.
    #: It indexes a table rule's winners, so it is part of the table file
    #: format, and it is computed here alone.
    index: int = field(init=False, repr=False, compare=False)

    #: Ballot count per type, in first-appearance order.
    counts: Mapping[LinearOrder, int] = field(init=False, repr=False, compare=False)

    #: Partition of voters by type, in `counts` order; authoritative for
    #: anonymous analysis.
    grouped_view: Mapping[LinearOrder, VoterSet] = field(init=False, repr=False, compare=False)

    #: `tally` per points vector.  Profiles are immutable, so an entry
    #: never goes stale.
    _tallies: dict[tuple[int, ...], tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        orders = self.orders
        if not orders:
            raise ValueError("a profile needs at least one voter")
        domain = orders[0].domain
        if not all(map(operator.is_, map(_domain_of, orders), itertools.repeat(domain))):
            raise DomainMismatchError("all ballots in a profile must share one domain")
        object.__setattr__(self, "n", len(orders))
        object.__setattr__(self, "domain", domain)

    def __getattr__(self, name: str) -> object:
        # Reached only while the named value is unset.
        if name == "index":
            radix = math.factorial(len(self.domain))
            value = 0
            for order in self.orders:
                value = value * radix + order.id
        elif name == "_tallies":
            value = {}
        elif name in ("counts", "grouped_view"):
            orders = self.orders
            # Parsed and listed orders are the domain's shared instances, so
            # a run of one type is compared by identity in C; equal orders
            # built apart are compared by value, once per run boundary.  A
            # run is kept as its range: no voter gets a list entry.
            bounds = [next(run) for _, run in itertools.groupby(range(self.n), orders.__getitem__)]
            bounds.append(self.n)
            spans: dict[LinearOrder, list[range]] = {}
            for start, end in itertools.pairwise(bounds):
                spans.setdefault(orders[start], []).append(range(start, end))
            view = {order: frozenset(itertools.chain.from_iterable(runs)) for order, runs in spans.items()}
            object.__setattr__(self, "counts", dict(zip(view, map(len, view.values()))))
            object.__setattr__(self, "grouped_view", view)
            return self.__dict__[name]
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @classmethod
    def from_counts(cls, counts: Iterable[tuple[LinearOrder, int]]) -> "Profile":
        """Expand an anonymous (type, count) multiset into per-voter ballots,
        each count line's voters one block, in line order.  `counts` is read
        once, so an iterator of pairs will do; the counts and voter sets are
        found from the ballots, as for any profile."""
        orders: list[LinearOrder] = []
        for order, count in counts:
            if count < 0:
                raise ValueError(f"negative count {count} for {order.compact}")
            orders.extend(itertools.repeat(order, count))
        return cls(tuple(orders))

    def tally(self, points: tuple[int, ...]) -> tuple[int, ...]:
        """Each alternative's total when position k on a ballot earns
        `points[k]`, indexed by alternative index.  The ballots are scanned
        once per points vector, so rules with equal points share it."""
        totals = self._tallies.get(points)
        if totals is None:
            sums = [0] * len(points)
            for order, count in self.counts.items():
                for alt, earned in zip(order.ranking, points):
                    sums[alt.index] += count * earned
            totals = self._tallies[points] = tuple(sums)
        return totals

    def types_present(self) -> list[LinearOrder]:
        """Distinct types in first-appearance order (deterministic)."""
        return list(self.counts)

    def __str__(self) -> str:
        return format_profile(self)


def profile_space_size(m: int, n: int) -> int:
    return math.factorial(m) ** n


def decode_profile(index: int, n: int, orders: Sequence[LinearOrder]) -> Profile:
    """The profile whose `Profile.index` over `orders` is `index`, or
    ValueError when `index` is outside 0..radix^n - 1."""
    radix = len(orders)
    if not 0 <= index < radix**n:
        raise ValueError(f"profile index {index} is outside 0..{radix**n - 1}")
    digits = []
    rest = index
    for _ in range(n):
        rest, digit = divmod(rest, radix)
        digits.append(digit)
    return Profile(tuple(orders[d] for d in reversed(digits)))


def all_profiles(domain: Domain, n: int) -> Iterator[Profile]:
    """All (m!)^n profiles in `Profile.index` order: the digit tuples,
    voter 1 most significant.

    The first m! profiles, the first line of the space along the last
    voter's axis, are the domain's shared objects for n voters, built the
    first time any walk reaches them: a later scan that settles within
    them, as most scans of a table rule do, builds no profile and reads
    each one's index, counts and tallies as first computed.  The domain
    keeps at most m! of them per voter count for as long as it keeps its m!
    orders, which is the life of the process.  Every later profile is new.
    One voter's first line is the whole space, so no line is kept for n = 1.
    """
    tuples = itertools.product(domain._orders, repeat=n)
    if n > 1:
        line = domain._first_lines.setdefault(n, [])
        for i, orders in enumerate(itertools.islice(tuples, len(domain._orders))):
            # Walks only add at the end of the line, so it holds profile i or
            # ends just before it.
            if i == len(line):
                line.append(Profile(orders))
            yield line[i]
    yield from map(Profile, tuples)


def _foreign(order: LinearOrder, domain: Domain) -> DomainMismatchError:
    """The error of an order asked about a domain it is not over."""
    return DomainMismatchError(f"order {order.compact} is not over domain {domain.labels}")


def voters_of_type(profile: Profile, order: LinearOrder) -> VoterSet:
    """All voters whose ballot equals the given order (possibly empty)."""
    if order.domain is not profile.domain:
        raise _foreign(order, profile.domain)
    return profile.grouped_view.get(order, frozenset())


def voters_of_present_type(profile: Profile, order: LinearOrder) -> VoterSet:
    """`voters_of_type`, raising SafevoteError when the type is not present."""
    members = voters_of_type(profile, order)
    if not members:
        raise SafevoteError(f"type {order.compact} not present in the profile")
    return members


def switch_votes(profile: Profile, voters: VoterSet, order: LinearOrder) -> Profile:
    """The profile with every listed voter's ballot replaced by `order`.

    The coalition must be of one type, and that type must differ from the
    strategic order; everyone outside the coalition is untouched.  The
    checks run in C, by identity first.
    """
    orders = profile.orders
    if order.domain is not profile.domain:
        raise _foreign(order, profile.domain)
    if not voters:
        return profile
    n = len(orders)
    if min(voters) < 0 or max(voters) >= n:
        raise EditError(f"coalition {sorted(voters)} contains out-of-range voters")
    ballots = list(map(orders.__getitem__, voters))
    kind = ballots[0]
    if ballots.count(kind) != len(ballots):
        types = sorted(set(ballots), key=operator.attrgetter("id"))
        raise EditError(f"coalition {sorted(voters)} mixes types {[t.compact for t in types]}")
    if kind == order:
        raise EditError(f"coalition already votes {order.compact}")
    switched = list(orders)
    for v in voters:
        switched[v] = order
    return Profile(tuple(switched))


def _switch_check(profile: Profile, type_order: LinearOrder, order: LinearOrder) -> VoterSet:
    """Set-up checks of a switch kernel, which raise what `switch_votes`
    raises for the switch, and the type's voters."""
    if order.domain is not profile.domain:
        raise _foreign(order, profile.domain)
    if order == type_order:
        raise EditError(f"coalition already votes {order.compact}")
    return voters_of_type(profile, type_order)


def all_orders(domain: Domain) -> list[LinearOrder]:
    """Every strict linear order over the domain, lexicographic by labels.

    The orders are the domain's interned instances; the list is new on
    every call, so callers may mutate it.
    """
    return list(domain._orders)


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


def _is_integer(text: str) -> bool:
    """ASCII digits with an optional minus sign: `int` itself also reads
    underscores, a plus sign and other scripts' digits."""
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _integer(text: str, line: int | None, message: str) -> int:
    """`int` of text that `_is_integer` accepts: a field of a file's line,
    or a command-line argument (line None).  Otherwise a ParseError at the
    line, `message` with the text in place of its "{!r}"."""
    if not _is_integer(text):
        raise ParseError(message.format(text), line)
    return int(text)


def _capitals(labels: str) -> str:
    """Labels, read in either case, as the capitals a domain keeps; ValueError
    for non-ASCII text, which `str.upper` may turn into capitals ("ſ" into S)."""
    if not labels.isascii():
        raise ValueError(f"labels must be ASCII letters, got {labels!r}")
    return labels.upper()


def _order_labels(text: str) -> str:
    """The labels of an order written "A > C > B" or "ACB", run together."""
    return "".join(text.replace(">", " ").split())


def read_text(path: str) -> str:
    """A file's text; bytes that are not UTF-8 are a ParseError at their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines as `_records` counts them; the "x" stands for the bad byte.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{path} is not UTF-8: {exc.reason}", line) from None


def _records(text: str, expected: str) -> Iterator[tuple[int, str, str]]:
    """The one line reader of profile, rule and table files: (line number,
    head, value) for each line neither blank nor a `#` comment, split at its
    first ":" and stripped.  A line with no ":" is a ParseError."""
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            head, sep, value = line.partition(":")
            if not sep:
                raise ParseError(f"expected {expected}, got {line!r}", no)
            yield no, head.rstrip(), value.lstrip()


def _key(head: str) -> str | None:
    """A head read as a key, in lower case, or None unless it is ASCII:
    `str.lower` also folds the Kelvin sign into "k"."""
    return head.lower() if head.isascii() else None


def parse_profile(text: str) -> Profile:
    records = _records(text, "'alternatives:', '<count>:' or 'voter <i>:' line")
    no, key, labels = next(records, (0, "", ""))
    if not no:
        raise ParseError("empty profile file")
    if _key(key) != "alternatives":
        raise ParseError("expected 'alternatives:' header", no)
    labels = labels.split()
    if not labels:
        raise ParseError("no alternative labels listed", no)
    try:
        domain = Domain.from_labels(sorted(map(_capitals, labels)))
    except ValueError as exc:
        raise ParseError(str(exc), no) from exc

    count_entries: dict[LinearOrder, int] = {}
    voter_entries: dict[int, LinearOrder] = {}
    total = top = top_line = 0  # the largest voter index and its line
    for no, head, order_text in records:
        try:
            order = LinearOrder.from_string(order_text, domain)
        except (DomainMismatchError, ValueError) as exc:
            raise ParseError(str(exc), no) from exc
        words = head.split()
        if words and _key(words[0]) == "voter":
            idx = _integer(" ".join(words[1:]), no, "bad voter index {!r}; expected 'voter <i>'")
            if count_entries:
                raise ParseError("cannot mix count lines and voter lines", no)
            if idx < 1:
                raise ParseError(f"voter indices are 1-based, got {idx}", no)
            if idx in voter_entries:
                raise ParseError(f"duplicate line for voter {idx}", no)
            voter_entries[idx] = order
            if idx > top:
                top, top_line = idx, no
        else:
            count = _integer(head, no, "bad count {!r}")
            if voter_entries:
                raise ParseError("cannot mix count lines and voter lines", no)
            if count < 0:
                raise ParseError(f"negative count {count}", no)
            total += count
            if total > MAX_VOTERS:
                raise ParseError(f"profile lists more than {MAX_VOTERS} voters", no)
            if order in count_entries:
                raise ParseError(f"duplicate type line for {order.compact}", no)
            count_entries[order] = count

    if voter_entries:
        # Distinct indices from 1 up are contiguous when the largest is their count.
        if top != len(voter_entries):
            raise ParseError(f"voter indices must be contiguous 1..{len(voter_entries)}", top_line)
        return Profile(tuple(voter_entries[i] for i in sorted(voter_entries)))
    # `no` is the last record's line: the header when no line follows it,
    # else the last count line.
    if not count_entries:
        raise ParseError("profile lists no ballots", no)
    if not total:
        raise ParseError("count lines total zero voters", no)
    return Profile.from_counts(list(count_entries.items()))


def format_profile(profile: Profile) -> str:
    """Render a profile in the text format: count lines when some type
    repeats and each type's voters form one block, in first-appearance
    order, so that reading it back keeps every voter's number; per-voter
    lines otherwise."""
    lines = ["alternatives: " + " ".join(a.label for a in profile.domain)]
    blocks = sum(1 for _ in itertools.groupby(profile.orders))
    if blocks == len(profile.counts) < profile.n:
        for order in profile.types_present():
            lines.append(f"{profile.counts[order]}: {order}")
    else:
        for i, order in enumerate(profile.orders, start=1):
            lines.append(f"voter {i}: {order}")
    return "\n".join(lines) + "\n"


def format_json(value: object) -> str:
    """The text of `json.dumps(value, sort_keys=True, indent=2)`, for a value
    built of dicts with str keys, lists, str, int, bool and None; TypeError
    for a key that is not a str and for a value of any other type, a
    subclass of one of these included.

    `json.dumps` sends an indented value through its pure-Python encoder,
    one generator step per token.  Here each container's members are
    joined by one `str.join` over `map`, and strings are escaped by the
    encoder's own function, so the bytes are the same.
    """
    return _json(value, "\n")


def _json(value: object, newline: str) -> str:
    """`format_json` of a value nested at the indent that `newline` (a line
    break and the indent) starts."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(map(_json, value, itertools.repeat(inner))) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        keys = sorted(value)
        inner = newline + "  "
        # `_json_string` raises TypeError for a key that is not a str.
        members = zip(map(_json_string, keys), map(_json, map(value.__getitem__, keys), itertools.repeat(inner)))
        return "{" + inner + ("," + inner).join(map(": ".join, members)) + newline + "}"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"format_json writes dicts, lists, str, int, bool and None, not {kind.__name__}")
