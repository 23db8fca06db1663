"""Social choice rules: scoring rules and explicit tables.

Winner determination is exact. A scoring rule scales its `Fraction`
weights once to integers over their least common denominator, then scores
a profile in `int`s: the count of each ballot type times the scaled weight
of each position. `ScoringRule.scores` divides back, so it reports the same
`Fraction`s. Ties are broken by a fixed linear order per rule instance
(argmax, then first in the tie-break order).

A profile is scored once per score vector: `Profile.tally` keeps the
totals per integer points vector, and every later question on that
profile (`evaluate`, `scores`, and the switch and runs kernels below) reads
them, so rules with equal points share them whatever their tie-break or
weight scale.

Every kernel is asked about one switch, a type T, a strategic order L and
the profile, and takes `(profile, T, L)`.  `Rule.switches` is the switch
kernel the subset searches evaluate through: the winner as a function of
which T-voters vote L, found as a delta from the sincere profile with no
`Profile` built.  A scoring rule reads its integer lines
(`ScoringRule.lines`): the sincere totals plus k times the per-alternative
points change, and scores each coalition size once: later coalitions of a
size it has met cost their membership check and one lookup.  A table rule
adds each switcher's place value times the digit change to the profile's
table index.  The default kernel replays each switch through
`switch_votes` and `evaluate`: the oracle, which tests reach through a view
of `evaluate` alone.  `Rule.solo_switches` is the pivot kernel beside it:
every single voter's switch to every other order, asked once per profile.

`Rule.size_runs` is the runs kernel of anonymous rules, whose winner
depends only on how many voters of the type switch: the switch counts k at
which the winner changes, with the winner from there on.  The default walks
the canonical prefixes through `switches`, lazily, and is the oracle.  A
scoring rule's winner after k switchers is the first maximum of the lines
`base + k * step`, which can change only where two lines cross, so it
scores at most m(m-1)+1 switch counts, whatever the type's count.

`Rule.vote_class` keys the strategic orders that every switch treats
alike, so the strategy searches walk one order per key.  A scoring rule's
key is the points an order gives each alternative: plurality has m keys,
k-approval C(m, k) and Borda m!.  The default key, the order itself, walks
every order and is the oracle.

Table rules work on order ids, `LinearOrder.id`: an order's position in
`all_orders`, computed when the order is built.  There is one `Domain` per
label set, so every order and profile over the rule's alternatives shares
it and domain checks are identity tests.  A table rule reads a profile's
winner at `Profile.index`, and the pivot kernel reads
`winners[base + (id - digit) * R^(n-1-v)]`, the place values R^(n-1-v)
computed when the rule is built (`TableRule._places`).

`check_predicates` reports only what the paper's theorems assume of a
rule: that it is onto and not dictatorial.  It walks digit tuples beside
the winner ids and stops once no voter is left to be a dictator.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from safevote.core import (
    MAX_ALTERNATIVES,
    Alternative,
    Domain,
    DomainMismatchError,
    EditError,
    LinearOrder,
    ParseError,
    Profile,
    SafevoteError,
    VoterSet,
    _capitals,
    _foreign,
    _integer,
    _is_integer,
    _key,
    _order_labels,
    _records,
    _switch_check,
    all_profiles,
    decode_profile,  # noqa: F401 - bench/tracing.py traces rules.decode_profile
    profile_space_size,
    read_text,
    switch_votes,
    voters_of_type,
)

#: The one profile-space limit: the largest `(m!)^n` that rule sampling,
#: exhaustive predicate checks and table rule files may walk.
#: `enumerable_size` reads it at call time.
DEFAULT_ENUMERATION_BOUND = 2_000_000

#: Most digits a score weight's numerator or denominator may have: the
#: default int-to-str limit, so `config_text` can always print the weight.
MAX_WEIGHT_DIGITS = 4300
_WEIGHT_BOUND = 10**MAX_WEIGHT_DIGITS
_EXPONENT = re.compile(r"e([-+]?\d+)$", re.IGNORECASE)

#: Tables `random_table_rule` draws before it gives up.
_SAMPLING_ATTEMPTS = 1000

#: `bytes.translate` tables by shift s: a byte's top 8 - s bits.
_TOP_BITS = tuple(bytes(b >> shift for b in range(256)) for shift in range(8))


class BudgetExceededError(SafevoteError):
    """An exhaustive scan would exceed the configured enumeration bound."""


class SamplingError(SafevoteError):
    """Rejection sampling ran out of attempts."""


class Rule:
    """Common surface of every social choice rule.

    Concrete rules expose `domain`, `anonymous` (True only when anonymity
    is structural, as for scoring rules; table rules use the general
    subset-based strategy searches even if their entries happen to be
    symmetric) and `n` (fixed voter count, or None when any n works).
    """

    domain: Domain
    anonymous: bool
    n: int | None

    def evaluate(self, profile: Profile) -> Alternative:
        raise NotImplementedError

    def switches(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Callable[[VoterSet], Alternative]:
        """The switch kernel: the winner once a coalition of `type_order`
        voters all vote `order`, as a function of the coalition.

        The kernel contract, which every rule's kernel keeps: set-up raises
        what `switch_votes` raises for the switch (`_switch_check`), before
        any coalition is asked.  The function takes any collection of
        distinct voters of the type, a voter tuple or a frozenset (the empty
        one gives the sincere winner), tests it with `members.issuperset`,
        and raises EditError for any other voter.  A tuple that repeats a
        voter is outside the contract: no kernel checks for one, since the
        subset walk would pay for the check on every coalition, and the
        kernels disagree on it.  This default replays every coalition
        through `switch_votes` and `evaluate`; rules with a delta kernel
        override it.
        """
        members = _switch_check(profile, type_order, order)

        def winner(coalition: VoterSet) -> Alternative:
            if not members.issuperset(coalition):
                raise _stray(coalition, type_order)
            return self.evaluate(switch_votes(profile, coalition, order))

        return winner

    def size_runs(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Iterator[tuple[int, Alternative]]:
        """(k, winner) at k = 0 and at each switch count k up to the type's
        count where the winner changes, k ascending: the winner once any k
        `type_order` voters vote `order`, for an anonymous rule.

        Set-up raises what `switches` raises.  This default asks the switch
        kernel about each canonical prefix in turn, lazily, so a caller that
        stops at the first run it wants scores no further.
        """
        winner = self.switches(profile, type_order, order)
        members = sorted(voters_of_type(profile, type_order))
        return _changes((k, winner(frozenset(members[:k]))) for k in range(len(members) + 1))

    def vote_class(self, order: LinearOrder) -> Hashable:
        """A key shared only by strategic orders that give every coalition
        of a type the same winner, so the strategy searches find the same
        moves for them.  This default is the order itself."""
        return order

    def solo_switches(
        self, profile: Profile, orders: Sequence[LinearOrder]
    ) -> Iterator[tuple[int, LinearOrder, Alternative]]:
        """(voter, order, winner) for each single voter switching alone to
        each of `orders` other than their own, voter first, then `orders`.

        The pivot kernel: one call per profile.  This default asks
        `switches` once per (voter, order); rules with an id kernel
        override it.
        """
        for voter, voter_order in enumerate(profile.orders):
            solo = frozenset({voter})
            for order in orders:
                if order != voter_order:
                    yield voter, order, self.switches(profile, voter_order, order)(solo)

    def config_text(self) -> str:
        """Canonical description, which `fingerprint` hashes.  A scoring rule's
        is a rule file that `parse_rule` reads back to the same fingerprint; a
        table rule's lists its winners inline, where a rule file names `entries`."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        # Rules are immutable, so the text is rendered and hashed once, and
        # kept as a plain attribute: a `cached_property` takes a lock on its
        # first read on Python 3.11.
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            fingerprint = hashlib.sha256(self.config_text().encode()).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    def check_profile(self, profile: Profile) -> None:
        """DomainMismatchError unless the profile is over the rule's domain
        and, for a rule with a fixed voter count, has that many voters."""
        if profile.domain is not self.domain:
            raise DomainMismatchError(
                f"profile over {profile.domain.labels} does not match rule over {self.domain.labels}"
            )
        if self.n is not None and profile.n != self.n:
            raise DomainMismatchError(f"rule expects {self.n} voters, profile has {profile.n}")


def _stray(coalition: VoterSet, type_order: LinearOrder) -> EditError:
    """The error of a kernel asked about a coalition outside the type's voters."""
    return EditError(f"coalition {sorted(coalition)} is not within the {type_order.compact} voters")


def _changes(winners: Iterable[tuple[int, Alternative]]) -> Iterator[tuple[int, Alternative]]:
    """The first (k, winner) pair and each later one whose winner differs
    from the one before."""
    last = None
    for k, winner in winners:
        if winner != last:
            yield k, winner
            last = winner


def resolve_n(rule: Rule, n: int | None) -> int:
    """The voter count to search: `n` if given, else the rule's fixed one."""
    n = rule.n if n is None else n
    if n is None:
        raise ValueError("pass n explicitly for rules without a fixed voter count")
    return n


@dataclass(frozen=True)
class ScoringRule(Rule):
    """A positional scoring rule with a fixed tie-break order.

    Position k on a ballot earns `weights[k]` points; the winner is the
    tie-break-first alternative among those with maximal total score.
    """

    weights: tuple[Fraction, ...]
    tiebreak: LinearOrder

    anonymous = True
    n = None

    def __post_init__(self) -> None:
        # Kept exact whatever the caller passed, so geometry stays rational.
        weights = tuple(map(Fraction, self.weights))
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(self.tiebreak.ranking):
            raise ValueError("score vector length must equal the number of alternatives")
        # The integer points over the weights' least common denominator, in
        # int arithmetic: they are ordered as the weights are.
        scale = math.lcm(*(w.denominator for w in weights))
        points = tuple(w.numerator * (scale // w.denominator) for w in weights)
        if any(map(int.__lt__, points, points[1:])):
            raise ValueError(f"score vector {' '.join(map(str, weights))} must be non-increasing")
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_points", points)

    @classmethod
    def from_ints(cls, weights: Sequence[int], tiebreak: LinearOrder) -> "ScoringRule":
        return cls(tuple(weights), tiebreak)

    @property
    def domain(self) -> Domain:  # type: ignore[override]
        return self.tiebreak.domain

    @property
    def is_constant_vector(self) -> bool:
        """All weights equal: the rule is constant up to tie-break."""
        return len(set(self._points)) == 1

    def _totals(self, profile: Profile) -> tuple[int, ...]:
        """Every alternative's score times `_scale`, indexed by alternative
        index: the profile's tally for these points."""
        self.check_profile(profile)
        return profile.tally(self._points)

    def scores(self, profile: Profile) -> dict[Alternative, Fraction]:
        totals = self._totals(profile)
        return {alt: Fraction(totals[alt.index], self._scale) for alt in self.domain}

    def evaluate(self, profile: Profile) -> Alternative:
        totals = self._totals(profile)
        best = max(totals)
        return next(alt for alt in self.tiebreak.ranking if totals[alt.index] == best)

    def lines(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> tuple[tuple[int, ...], list[int]]:
        """The integer lines of a switch: every alternative's sincere total
        times `_scale` and its change per `type_order` voter who votes
        `order` instead, both indexed by alternative index.  After k
        switchers alternative i scores `base[i] + k * step[i]`.

        Set-up raises what `switch_votes` would for the switch.
        """
        _switch_check(profile, type_order, order)
        base = self._totals(profile)
        step = [0] * len(base)
        for points, new, old in zip(self._points, order.ranking, type_order.ranking):
            step[new.index] += points
            step[old.index] -= points
        return base, step

    def vote_class(self, order: LinearOrder) -> tuple[int, ...]:
        """The points the order gives each alternative, by alternative
        index: orders with equal points have equal `lines`."""
        return tuple(self._points[r] for r in order.ranks)

    def _winner_after(self, base: Sequence[int], step: Sequence[int]) -> Callable[[int], Alternative]:
        """The winner after k switchers: the first maximum, in tie-break
        order, of the lines `base + k * step`."""
        ranking = self.tiebreak.ranking
        pairs = [(base[alt.index], step[alt.index]) for alt in ranking]

        def winner(k: int) -> Alternative:
            scores = [b + k * d for b, d in pairs]
            return ranking[scores.index(max(scores))]

        return winner

    def switches(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Callable[[VoterSet], Alternative]:
        winner_after = self._winner_after(*self.lines(profile, type_order, order))
        members = voters_of_type(profile, type_order)
        # Coalition size to winner, filled as sizes come up: a subset walk
        # scores each size once, and a walk that asks few sizes scores few.
        by_size: dict[int, Alternative] = {}

        def winner(coalition: VoterSet) -> Alternative:
            if not members.issuperset(coalition):
                raise _stray(coalition, type_order)
            k = len(coalition)
            found = by_size.get(k)
            if found is None:
                found = by_size[k] = winner_after(k)
            return found

        return winner

    def size_runs(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Iterator[tuple[int, Alternative]]:
        base, step = self.lines(profile, type_order, order)
        count = profile.counts.get(type_order, 0)
        winner = self._winner_after(base, step)
        # Two lines keep their order between integer k except across their
        # crossing c: a run can start at ceil(c), or at c, where the
        # tie-break decides, and at c + 1 when c is an integer.
        starts = {0}
        for (b1, d1), (b2, d2) in itertools.combinations(zip(base, step), 2):
            if d1 != d2:
                c, rest = divmod(b2 - b1, d1 - d2)
                starts.update(k for k in ((c, c + 1) if rest == 0 else (c + 1,)) if 0 < k <= count)
        return _changes((k, winner(k)) for k in sorted(starts))

    def config_text(self) -> str:
        ws = " ".join(str(w) for w in self.weights)
        return f"rule: scoring\nscores: {ws}\ntiebreak: {self.tiebreak}\n"


def borda(domain_or_tiebreak: LinearOrder) -> ScoringRule:
    """Borda count (m-1, m-2, ..., 0) with the given tie-break order."""
    m = len(domain_or_tiebreak.ranking)
    return ScoringRule.from_ints(list(range(m - 1, -1, -1)), domain_or_tiebreak)


def plurality(tiebreak: LinearOrder) -> ScoringRule:
    m = len(tiebreak.ranking)
    return ScoringRule.from_ints([1] + [0] * (m - 1), tiebreak)


def k_approval(k: int, tiebreak: LinearOrder) -> ScoringRule:
    m = len(tiebreak.ranking)
    if not 1 <= k < m:
        raise ValueError(f"k-approval needs 1 <= k < m, got k={k}, m={m}")
    return ScoringRule.from_ints([1] * k + [0] * (m - k), tiebreak)


def enumerable_size(m: int, n: int) -> int:
    """`profile_space_size(m, n)`, or BudgetExceededError when it passes
    DEFAULT_ENUMERATION_BOUND, or ValueError when n < 1: no profile has
    zero voters.

    Every radix above 1 passes the bound within `bound.bit_length()`
    voters, so the power is never taken past that many.
    """
    if n < 1:
        raise ValueError(f"a profile needs at least one voter, got n={n}")
    bound = DEFAULT_ENUMERATION_BOUND
    size = profile_space_size(m, min(n, bound.bit_length()))
    if size > bound:
        raise BudgetExceededError(f"profile space ({m}!)^{n} exceeds the enumeration bound {bound}")
    return size


@dataclass(frozen=True)
class TableRule(Rule):
    """A social choice rule given as a total winner table over all profiles."""

    domain: Domain
    n: int  # type: ignore[assignment]
    winners: tuple[Alternative, ...]

    anonymous = False

    def __post_init__(self) -> None:
        alternatives = self.domain.alternatives
        radix = math.factorial(len(alternatives))
        expected = radix**self.n
        if len(self.winners) != expected:
            raise ValueError(f"table has {len(self.winners)} entries, expected {expected}")
        outside = set(self.winners).difference(alternatives)
        if outside:
            w = next(w for w in self.winners if w in outside)
            raise DomainMismatchError(f"table winner {w} outside domain {self.domain.labels}")
        # Each voter's place value in `Profile.index`: voter v is the digit of
        # place value radix^(n-1-v).
        object.__setattr__(self, "_places", tuple(map(pow, itertools.repeat(radix), range(self.n - 1, -1, -1))))

    def evaluate(self, profile: Profile) -> Alternative:
        # Inline, so a matching profile costs no call; `check_profile` raises.
        if profile.domain is not self.domain or profile.n != self.n:
            self.check_profile(profile)
        return self.winners[profile.index]

    def switches(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Callable[[VoterSet], Alternative]:
        members = _switch_check(profile, type_order, order)
        self.check_profile(profile)
        places, winners = self._places, self.winners
        base, step = profile.index, order.id - type_order.id

        def winner(coalition: VoterSet) -> Alternative:
            if not members.issuperset(coalition):
                raise _stray(coalition, type_order)
            return winners[base + step * sum(map(places.__getitem__, coalition))]

        return winner

    def solo_switches(
        self, profile: Profile, orders: Sequence[LinearOrder]
    ) -> Iterator[tuple[int, LinearOrder, Alternative]]:
        self.check_profile(profile)
        base = profile.index
        # Orders over another domain of this size share its ids.
        for order in orders:
            if order.domain is not self.domain:
                raise _foreign(order, self.domain)
        targets = [(order, order.id) for order in orders]
        winners = self.winners
        for voter, (voter_order, place) in enumerate(zip(profile.orders, self._places)):
            digit = voter_order.id
            for order, target in targets:
                if target != digit:
                    yield voter, order, winners[base + (target - digit) * place]

    def config_text(self) -> str:
        body = "".join(w.label for w in self.winners)
        return f"rule: table\nn: {self.n}\nm: {len(self.domain)}\nwinners: {body}\n"


@dataclass(frozen=True)
class RulePredicateReport:
    """Whether a rule meets the hypotheses of the paper's theorems: onto,
    and not dictatorial."""

    onto: bool
    #: The first voter whose favourite wins at every profile, if any.
    dictatorial: int | None
    #: True when both findings came from a full profile-space scan.
    exhaustive: bool = field(default=True, compare=False)


def check_predicates(rule: Rule, n: int | None = None) -> RulePredicateReport:
    """Onto and dictatorship report.

    Exhaustive whenever the profile space fits in DEFAULT_ENUMERATION_BOUND.
    Past it only a scoring rule has an answer: a non-constant score vector
    with n >= 2 is onto and not dictatorial.
    """
    n = resolve_n(rule, n)
    try:
        enumerable_size(len(rule.domain), n)
    except BudgetExceededError:
        if isinstance(rule, ScoringRule) and not rule.is_constant_vector and n >= 2:
            return RulePredicateReport(onto=True, dictatorial=None, exhaustive=False)
        raise
    return _check_predicates_exhaustive(rule, n)


def _check_predicates_exhaustive(rule: Rule, n: int) -> RulePredicateReport:
    """The report from every profile's winner id.

    A table rule's ids are its entries; any other rule evaluates every
    profile of `all_profiles`.  The dictator candidates are walked over the
    digit tuples beside the ids, in encoding order, until none is left.
    """
    domain = rule.domain
    if isinstance(rule, TableRule):
        winners = [w.index for w in rule.winners]
    else:
        # One byte per profile: alternative indices stay below MAX_ALTERNATIVES.
        winners = bytes(rule.evaluate(profile).index for profile in all_profiles(domain, n))
    # Order ids follow `itertools.permutations`, so each top leads a block
    # of (m-1)! ids, and no order is built to read it.
    block = math.factorial(len(domain) - 1)
    candidates = range(n)
    profiles = itertools.product(range(block * len(domain)), repeat=n)
    for digits, winner in zip(profiles, winners):
        candidates = [i for i in candidates if digits[i] // block == winner]
        if not candidates:
            break
    return RulePredicateReport(
        onto=set(winners) == set(range(len(domain))),
        dictatorial=candidates[0] if candidates else None,
    )


def random_table_rule(n: int, m: int, seed: int) -> TableRule:
    """A uniformly sampled onto, non-dictatorial table rule, by rejection.

    Deterministic given the seed; raises SamplingError with the attempt
    count when the rejection budget runs out.

    Stream contract: every table is the one `random.Random(seed)` draws with
    `randrange(m)` per entry, from the same `getrandbits` words.  On a
    `Random`, `randrange(m)` reads one 32-bit word per try, keeps its top
    k = m.bit_length() bits and tries again while they are m or more.  The
    words are read here in bulk: `getrandbits(32 * w)` holds w words, the
    first least significant.  Each word's top byte goes through
    `bytes.translate`, which drops the bytes whose top k bits are m or more
    and shifts the rest down to those bits.  Entries left over from a
    rejected table begin the next one, so no word is skipped.
    """
    if m < 1:
        raise ValueError(f"a table rule needs m >= 1, got {m}")
    total = enumerable_size(m, n)
    domain = Domain.of_size(m)
    alternatives = domain.alternatives
    shift = 8 - m.bit_length()
    top_bits = _TOP_BITS[shift]
    rejected = bytes(range(m << shift, 256))
    rng = random.Random(seed)
    drawn = b""
    for _ in range(_SAMPLING_ATTEMPTS):
        while len(drawn) < total:
            # A try keeps its word with chance m / 2^k >= 1/2, so twice as
            # many words as missing entries fill a table in about one read.
            words = 2 * (total - len(drawn))
            drawn += rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(top_bits, rejected)
        rule = TableRule(domain, n, tuple(map(alternatives.__getitem__, drawn[:total])))
        drawn = drawn[total:]
        report = _check_predicates_exhaustive(rule, n)
        if report.onto and report.dictatorial is None:
            return rule
    raise SamplingError(
        f"no table rule satisfying constraints after {_SAMPLING_ATTEMPTS} attempts (n={n}, m={m}, seed={seed})"
    )


# ---------------------------------------------------------------------------
# Rule config files
#
#   rule: scoring
#   scores: 2 1 0
#   tiebreak: B > A > C
#
#   rule: table
#   n: 2
#   m: 3
#   entries: winners.txt        (one line per encoded profile: "<index>: <label>")
# ---------------------------------------------------------------------------


#: The keys each rule kind reads; a rule file holding any other is rejected.
_RULE_KEYS = {"scoring": ("rule", "scores", "tiebreak"), "table": ("rule", "n", "m", "entries")}


def parse_rule(text: str, base_dir: str = ".") -> Rule:
    fields: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for no, head, value in _records(text, "'key: value'"):
        key = _key(head)
        if key is None:
            raise ParseError(f"key {head!r} is not ASCII", no)
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", no)
        fields[key] = value
        line_of[key] = no

    if "rule" not in fields:
        # At the first record's line; an empty file has none.
        raise ParseError("rule file has no 'rule:' line", next(iter(line_of.values()), None))
    kind = fields["rule"]
    keys = _RULE_KEYS.get(kind)
    if keys is None:
        raise ParseError(f"unknown rule kind {kind!r}", line_of["rule"])
    for key in fields:
        if key not in keys:
            raise ParseError(f"a {kind} rule reads no key {key!r}; its keys are {', '.join(keys)}", line_of[key])
    if kind == "scoring":
        if "scores" not in fields or "tiebreak" not in fields:
            raise ParseError("scoring rule needs 'scores' and 'tiebreak'", line_of["rule"])
        tb_labels = _order_labels(fields["tiebreak"])
        if not tb_labels:
            raise ParseError("tiebreak lists no alternatives", line_of["tiebreak"])
        try:
            tiebreak = LinearOrder.from_labels(tb_labels, Domain.from_labels(sorted(_capitals(tb_labels))))
        except (ValueError, DomainMismatchError) as exc:
            raise ParseError(f"bad tiebreak: {exc}", line_of["tiebreak"]) from exc
        try:
            weights = tuple(_weight(w) for w in fields["scores"].split())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad score vector {fields['scores']!r}: {exc}", line_of["scores"]) from exc
        try:
            return ScoringRule(weights, tiebreak)
        except ValueError as exc:
            raise ParseError(str(exc), line_of["scores"]) from exc
    for needed in ("n", "m", "entries"):
        if needed not in fields:
            raise ParseError(f"table rule needs {needed!r}", line_of["rule"])
    sizes = []
    for key in ("n", "m"):
        size = _integer(fields[key], line_of[key], key + " must be an integer, got {!r}")
        if size < 1:
            raise ParseError(f"{key} must be positive, got {size}", line_of[key])
        sizes.append(size)
    n, m = sizes
    if m > MAX_ALTERNATIVES:
        raise ParseError(f"m must be at most {MAX_ALTERNATIVES}, got {m}", line_of["m"])
    try:
        enumerable_size(m, n)
    except BudgetExceededError as exc:
        raise ParseError(str(exc), line_of["n"]) from None
    if not fields["entries"]:
        raise ParseError("entries names no file", line_of["entries"])
    return _parse_table_entries(read_text(os.path.join(base_dir, fields["entries"])), n, m)


def _weight(token: str) -> int | Fraction:
    """One score weight, or ValueError when it is not ASCII, holds an
    underscore, or has a numerator or denominator of more than
    MAX_WEIGHT_DIGITS digits.

    An integer token, in `_is_integer`'s grammar, is read by `int`, which
    `Fraction` would call on it too.  `Fraction` also reads other scripts'
    digits and, on some Pythons, underscores between digits, so those are
    rejected first.  An exponent past 3 * MAX_WEIGHT_DIGITS is rejected
    before `Fraction` expands it.  `Fraction` reads at most
    MAX_WEIGHT_DIGITS digits on each side of the point, so no nonzero
    weight with such an exponent fits; a zero mantissa is rejected with it.
    """
    if _is_integer(token):
        weight: int | Fraction = int(token)
    else:
        if not token.isascii() or "_" in token:
            raise ValueError(f"weight {token!r} must be ASCII with no '_'")
        exponent = _EXPONENT.search(token)
        if exponent and abs(int(exponent.group(1))) > 3 * MAX_WEIGHT_DIGITS:
            raise ValueError(f"exponent of {token!r} too large")
        weight = Fraction(token)
    if max(abs(weight.numerator), weight.denominator) >= _WEIGHT_BOUND:
        raise ValueError(f"{token!r} has more than {MAX_WEIGHT_DIGITS} digits")
    return weight


def _parse_table_entries(text: str, n: int, m: int) -> TableRule:
    domain = Domain.of_size(m)
    total = profile_space_size(m, n)
    winners: dict[int, Alternative] = {}
    no = None  # the last entry line; an empty file has none
    for no, head, label in _records(text, "'<index>: <label>'"):
        idx = _integer(head, no, "bad index {!r}")
        if not 0 <= idx < total:
            raise ParseError(f"index {idx} is outside 0..{total - 1}", no)
        if idx in winners:
            raise ParseError(f"duplicate index {idx}", no)
        try:
            winners[idx] = domain.by_label(label)
        except DomainMismatchError as exc:
            raise ParseError(str(exc), no) from exc
    # Every index is in range and none repeats, so a full count is all of them.
    if len(winners) != total:
        missing = next(i for i in range(total) if i not in winners)
        raise ParseError(f"no entry for index {missing}; table indices must be contiguous 0..{total - 1}", no)
    return TableRule(domain, n, tuple(winners[i] for i in range(total)))
