"""Social choice rules: scoring rules, explicit tables, and derived rules.

Winner determination is exact. A scoring rule scales its `Fraction`
weights once to integers over their least common denominator, then scores
a profile in `int`s: the count of each ballot type times the scaled weight
of each position. `scores()` divides back, so it reports the same
`Fraction`s. Ties are broken by a fixed linear order per rule instance
(argmax, then first in the tie-break order).

`Rule.switched` is the switch kernel the strategy searches evaluate
through: the winner once a coalition of one type votes another order,
found as a delta from the sincere profile with no `Profile` built.  A
scoring rule adds k times the per-alternative points change to the sincere
totals; a table rule adds each switcher's digit change to the sincere
profile's table index.  The default kernel replays the switch through
`switch_votes` and `evaluate`, which stay the object path and the oracle.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

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
    all_orders,
    completely_agreed,
    switch_votes,
    voters_of_type,
)

#: The one profile-space limit: the largest `(m!)^n` that table
#: constructions, rule sampling, exhaustive predicate checks and table rule
#: files may walk.  `_enumerable_size` reads it at call time.
DEFAULT_ENUMERATION_BOUND = 2_000_000

#: Tables `random_table_rule` draws before it gives up.
_SAMPLING_ATTEMPTS = 1000


class BudgetExceededError(SafevoteError):
    """An exhaustive scan would exceed the configured enumeration bound."""


class AntagonismError(SafevoteError):
    """A subrule evaluation returned the removed alternative."""


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

    def switched(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Callable[[VoterSet], Alternative]:
        """The winner once a coalition of `type_order` voters all vote `order`.

        Set-up raises what `switch_votes` would for the switch.  The returned
        function takes any subset of the type's voters (the empty one gives
        the sincere winner) and raises EditError for anything else.  This
        default replays every coalition through `switch_votes` and
        `evaluate`; rules with a delta kernel override it.
        """
        check = _switch_check(profile, type_order, order)

        def winner(coalition: VoterSet) -> Alternative:
            check(coalition)
            return self.evaluate(switch_votes(profile, coalition, order))

        return winner

    def config_text(self) -> str:
        """Canonical description used for fingerprints and rule files."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        return hashlib.sha256(self.config_text().encode()).hexdigest()[:16]

    def _check_profile(self, profile: Profile) -> None:
        if profile.domain != self.domain:
            raise DomainMismatchError(
                f"profile over {profile.domain.labels} fed to rule over {self.domain.labels}"
            )
        if self.n is not None and profile.n != self.n:
            raise DomainMismatchError(f"rule expects {self.n} voters, profile has {profile.n}")


def _switch_check(
    profile: Profile, type_order: LinearOrder, order: LinearOrder
) -> Callable[[VoterSet], None]:
    """Set-up checks of a switch kernel, and its per-coalition check: a
    subset of the type's voters, so in range and of one type."""
    if order.domain != profile.domain:
        raise DomainMismatchError(f"order {order.compact} is not over domain {profile.domain.labels}")
    if order == type_order:
        raise EditError(f"coalition already votes {order.compact}")
    members = voters_of_type(profile, type_order)

    def check(coalition: VoterSet) -> None:
        if not coalition <= members:
            raise EditError(f"coalition {sorted(coalition)} is not within the {type_order.compact} voters")

    return check


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
        if len(self.weights) != len(self.tiebreak.ranking):
            raise ValueError("score vector length must equal the number of alternatives")
        for a, b in zip(self.weights, self.weights[1:]):
            if a < b:
                raise ValueError(f"score vector {' '.join(map(str, self.weights))} must be non-increasing")
        scale = math.lcm(*(Fraction(w).denominator for w in self.weights))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_points", tuple(int(w * scale) for w in self.weights))

    @classmethod
    def from_ints(cls, weights: Sequence[int], tiebreak: LinearOrder) -> "ScoringRule":
        return cls(tuple(Fraction(w) for w in weights), tiebreak)

    @property
    def domain(self) -> Domain:  # type: ignore[override]
        return self.tiebreak.domain

    @property
    def is_constant_vector(self) -> bool:
        """All weights equal: the rule is constant up to tie-break."""
        return len(set(self.weights)) == 1

    def _totals(self, profile: Profile) -> list[int]:
        """Every alternative's score times `_scale`, indexed by alternative index."""
        self._check_profile(profile)
        totals = [0] * len(self._points)
        for order, count in profile.counts.items():
            for alt, points in zip(order.ranking, self._points):
                totals[alt.index] += count * points
        return totals

    def scores(self, profile: Profile) -> dict[Alternative, Fraction]:
        totals = self._totals(profile)
        return {alt: Fraction(totals[alt.index], self._scale) for alt in self.domain}

    def evaluate(self, profile: Profile) -> Alternative:
        totals = self._totals(profile)
        best = max(totals)
        return next(alt for alt in self.tiebreak.ranking if totals[alt.index] == best)

    def switched(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Callable[[VoterSet], Alternative]:
        check = _switch_check(profile, type_order, order)
        totals = self._totals(profile)
        change = [0] * len(totals)
        for points, new, old in zip(self._points, order.ranking, type_order.ranking):
            change[new.index] += points
            change[old.index] -= points
        # Both in tie-break order, so the first maximum is the winner.
        ranking = self.tiebreak.ranking
        base = [totals[alt.index] for alt in ranking]
        step = [change[alt.index] for alt in ranking]

        def winner(coalition: VoterSet) -> Alternative:
            check(coalition)
            k = len(coalition)
            scores = [b + k * d for b, d in zip(base, step)]
            return ranking[scores.index(max(scores))]

        return winner

    def config_text(self) -> str:
        ws = " ".join(str(w) for w in self.weights)
        return f"rule: scoring\nscores: {ws}\ntiebreak: {self.tiebreak}\n"


def scores(rule: ScoringRule, profile: Profile) -> dict[Alternative, Fraction]:
    """Total positional score of every alternative."""
    return rule.scores(profile)


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


# ---------------------------------------------------------------------------
# Profile encodings for table rules.
#
# Orders are enumerated lexicographically by label sequence; a profile is
# encoded in mixed radix m! with voter 1 the most significant digit.  The
# encoding is part of the table file format.
# ---------------------------------------------------------------------------


def profile_space_size(m: int, n: int) -> int:
    return math.factorial(m) ** n


def _enumerable_size(m: int, n: int) -> int:
    """`profile_space_size(m, n)`, or BudgetExceededError when it passes
    DEFAULT_ENUMERATION_BOUND.

    Every radix above 1 passes the bound within `bound.bit_length()`
    voters, so the power is never taken past that many.
    """
    bound = DEFAULT_ENUMERATION_BOUND
    size = profile_space_size(m, min(n, bound.bit_length()))
    if size > bound:
        raise BudgetExceededError(f"profile space ({m}!)^{n} exceeds the enumeration bound {bound}")
    return size


def encode_profile(profile: Profile, order_index: Mapping[LinearOrder, int]) -> int:
    idx = 0
    radix = len(order_index)
    for order in profile.orders:
        idx = idx * radix + order_index[order]
    return idx


def decode_profile(index: int, n: int, orders: Sequence[LinearOrder]) -> Profile:
    radix = len(orders)
    digits = []
    for _ in range(n):
        index, digit = divmod(index, radix)
        digits.append(digit)
    return Profile(tuple(orders[d] for d in reversed(digits)))


def all_profiles(domain: Domain, n: int) -> Iterator[Profile]:
    """All (m!)^n profiles in canonical (mixed-radix ascending) order."""
    orders = all_orders(domain)
    total = len(orders) ** n
    for idx in range(total):
        yield decode_profile(idx, n, orders)


@dataclass(frozen=True)
class TableRule(Rule):
    """A social choice rule given as a total winner table over all profiles."""

    domain: Domain
    n: int  # type: ignore[assignment]
    winners: tuple[Alternative, ...]

    anonymous = False

    def __post_init__(self) -> None:
        expected = profile_space_size(len(self.domain), self.n)
        if len(self.winners) != expected:
            raise ValueError(f"table has {len(self.winners)} entries, expected {expected}")
        for w in self.winners:
            if w not in self.domain:
                raise DomainMismatchError(f"table winner {w} outside domain {self.domain.labels}")

    @cached_property
    def _order_index(self) -> Mapping[LinearOrder, int]:
        return {o: i for i, o in enumerate(all_orders(self.domain))}

    def evaluate(self, profile: Profile) -> Alternative:
        self._check_profile(profile)
        return self.winners[encode_profile(profile, self._order_index)]

    def switched(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Callable[[VoterSet], Alternative]:
        check = _switch_check(profile, type_order, order)
        self._check_profile(profile)
        index = self._order_index
        base = encode_profile(profile, index)
        step = index[order] - index[type_order]
        radix, last = len(index), self.n - 1
        winners = self.winners

        def winner(coalition: VoterSet) -> Alternative:
            check(coalition)
            # Voter v is the digit of place value radix^(n-1-v).
            return winners[base + step * sum(radix ** (last - v) for v in coalition)]

        return winner

    def config_text(self) -> str:
        body = "".join(w.label for w in self.winners)
        return f"rule: table\nn: {self.n}\nm: {len(self.domain)}\nwinners: {body}\n"

    @classmethod
    def from_function(cls, domain: Domain, n: int, fn) -> "TableRule":
        """Tabulate `fn(profile) -> Alternative` over the whole profile space."""
        _enumerable_size(len(domain), n)
        return cls(domain, n, tuple(fn(p) for p in all_profiles(domain, n)))


@dataclass(frozen=True)
class SubRule(Rule):
    """The rule induced on a smaller domain by pinning one alternative last.

    Evaluating lifts each ballot to the parent domain by appending the
    removed alternative at the bottom.  If the parent ever elects the
    removed alternative the parent is antagonistic there and the subrule
    is undefined; that raises AntagonismError.
    """

    parent: Rule
    removed: Alternative
    domain: Domain  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.removed not in self.parent.domain:
            raise DomainMismatchError(f"{self.removed} not in parent domain")

    @property
    def anonymous(self) -> bool:  # type: ignore[override]
        return self.parent.anonymous

    @property
    def n(self) -> int | None:  # type: ignore[override]
        return self.parent.n

    def _lift_order(self, order: LinearOrder) -> LinearOrder:
        parent_domain = self.parent.domain
        lifted = tuple(parent_domain.by_label(a.label) for a in order.ranking)
        return LinearOrder(lifted + (self.removed,))

    def evaluate(self, profile: Profile) -> Alternative:
        self._check_profile(profile)
        lifted = Profile(tuple(self._lift_order(o) for o in profile.orders))
        winner = self.parent.evaluate(lifted)
        if winner == self.removed:
            raise AntagonismError(
                f"parent rule elected removed alternative {winner.label}; it is antagonistic"
            )
        return self.domain.by_label(winner.label)

    def config_text(self) -> str:
        return f"rule: subrule\nremoved: {self.removed.label}\nparent:\n{self.parent.config_text()}"


def subrule_minus(rule: Rule, x: Alternative) -> SubRule:
    """The rule on the domain without x, obtained by appending x last."""
    labels = [a.label for a in rule.domain if a.label != x.label]
    return SubRule(rule, x, Domain.from_labels(labels))


def two_voter_reduction(rule: Rule, part1: VoterSet, part2: VoterSet, n: int | None = None) -> TableRule:
    """Collapse a rule to two block voters along a partition of the voters.

    The reduced rule's value at (P, Q) is the parent's value when every
    voter in part1 reports P and every voter in part2 reports Q.
    """
    n = resolve_n(rule, n)
    if not part1 or not part2 or (part1 & part2) or (part1 | part2) != frozenset(range(n)):
        raise ValueError(f"{sorted(part1)} / {sorted(part2)} is not a partition of 0..{n - 1}")
    p1 = sorted(part1)

    def blow_up(pair: Profile) -> Profile:
        order1, order2 = pair.orders
        orders = [order2] * n
        for v in p1:
            orders[v] = order1
        return Profile(tuple(orders))

    return TableRule.from_function(rule.domain, 2, lambda p: rule.evaluate(blow_up(p)))


@dataclass(frozen=True)
class RulePredicateReport:
    """Structural facts about one rule, each exhaustive within its scope."""

    onto: bool
    dictatorial: int | None
    anonymous: bool
    weakly_unanimous: bool
    antagonistic: Profile | None
    agreed_image: frozenset[Alternative]
    #: True when every negative finding came from a full profile-space scan.
    exhaustive: bool = field(default=True, compare=False)


def _agreed_report(rule: Rule, n: int) -> tuple[frozenset[Alternative], bool]:
    image = set()
    weakly_unanimous = True
    for order in all_orders(rule.domain):
        winner = rule.evaluate(completely_agreed(order, n))
        image.add(winner)
        if winner != order.top:
            weakly_unanimous = False
    return frozenset(image), weakly_unanimous


def check_predicates(rule: Rule, n: int | None = None) -> RulePredicateReport:
    """Onto / dictatorship / anonymity / unanimity / antagonism report.

    Exhaustive whenever the profile space fits in DEFAULT_ENUMERATION_BOUND;
    otherwise falls back to analytic shortcuts, which exist only for
    scoring rules.
    """
    n = resolve_n(rule, n)
    try:
        _enumerable_size(len(rule.domain), n)
    except BudgetExceededError:
        if isinstance(rule, ScoringRule):
            return _check_predicates_scoring(rule, n)
        raise
    return _check_predicates_exhaustive(rule, n)


def _check_predicates_exhaustive(rule: Rule, n: int) -> RulePredicateReport:
    image: set[Alternative] = set()
    dictator_candidates = set(range(n))
    antagonistic_witness: Profile | None = None
    anonymous = True
    winners_by_multiset: dict[frozenset, Alternative] = {}
    for profile in all_profiles(rule.domain, n):
        winner = rule.evaluate(profile)
        image.add(winner)
        dictator_candidates = {i for i in dictator_candidates if profile.orders[i].top == winner}
        if antagonistic_witness is None and all(o.bottom == winner for o in profile.orders):
            antagonistic_witness = profile
        if anonymous:
            key = frozenset(profile.counts.items())
            prev = winners_by_multiset.setdefault(key, winner)
            if prev != winner:
                anonymous = False
    agreed_image, weakly_unanimous = _agreed_report(rule, n)
    return RulePredicateReport(
        onto=image == set(rule.domain),
        dictatorial=min(dictator_candidates) if dictator_candidates else None,
        anonymous=anonymous,
        weakly_unanimous=weakly_unanimous,
        antagonistic=antagonistic_witness,
        agreed_image=agreed_image,
    )


def _check_predicates_scoring(rule: ScoringRule, n: int) -> RulePredicateReport:
    # Non-constant score vectors with n >= 2 are onto and non-dictatorial;
    # they are never antagonistic because the everyone-ranks-X-last score
    # n*w_min is strictly below some other alternative's total.
    if rule.is_constant_vector or n < 2:
        raise BudgetExceededError(
            "analytic predicate shortcuts need a non-constant score vector and n >= 2"
        )
    agreed_image, weakly_unanimous = _agreed_report(rule, n)
    return RulePredicateReport(
        onto=True,
        dictatorial=None,
        anonymous=True,
        weakly_unanimous=weakly_unanimous,
        antagonistic=None,
        agreed_image=agreed_image,
        exhaustive=False,
    )


def random_table_rule(n: int, m: int, seed: int) -> TableRule:
    """A uniformly sampled onto, non-dictatorial table rule, by rejection.

    Deterministic given the seed; raises SamplingError with the attempt
    count when the rejection budget runs out.
    """
    total = _enumerable_size(m, n)
    domain = Domain.of_size(m)
    rng = random.Random(seed)
    for _ in range(_SAMPLING_ATTEMPTS):
        winners = tuple(domain.alternatives[rng.randrange(m)] for _ in range(total))
        rule = TableRule(domain, n, winners)
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


def parse_rule(text: str, base_dir: str = ".") -> Rule:
    fields: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {line!r}", no)
        key = key.strip().lower()
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", no)
        fields[key] = value.strip()
        line_of[key] = no

    kind = fields.get("rule")
    if kind == "scoring":
        if "scores" not in fields or "tiebreak" not in fields:
            raise ParseError("scoring rule needs 'scores' and 'tiebreak'")
        tb_labels = "".join(fields["tiebreak"].replace(">", " ").split()).upper()
        if not tb_labels:
            raise ParseError("tiebreak lists no alternatives", line_of["tiebreak"])
        try:
            tiebreak = LinearOrder.from_labels(tb_labels, Domain.from_labels(sorted(tb_labels)))
        except (ValueError, DomainMismatchError) as exc:
            raise ParseError(f"bad tiebreak: {exc}", line_of["tiebreak"]) from exc
        try:
            weights = tuple(Fraction(w) for w in fields["scores"].split())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad score vector {fields['scores']!r}", line_of["scores"]) from exc
        try:
            return ScoringRule(weights, tiebreak)
        except ValueError as exc:
            raise ParseError(str(exc), line_of["scores"]) from exc
    if kind == "table":
        for needed in ("n", "m", "entries"):
            if needed not in fields:
                raise ParseError(f"table rule needs {needed!r}")
        n, m = (_positive_int(fields, line_of, key) for key in ("n", "m"))
        if m > MAX_ALTERNATIVES:
            raise ParseError(f"m must be at most {MAX_ALTERNATIVES}, got {m}", line_of["m"])
        try:
            _enumerable_size(m, n)
        except BudgetExceededError as exc:
            raise ParseError(str(exc), line_of["n"]) from None
        path = os.path.join(base_dir, fields["entries"])
        with open(path, encoding="utf-8") as fh:
            entries_text = fh.read()
        return _parse_table_entries(entries_text, n, m)
    raise ParseError(f"unknown rule kind {kind!r}")


def _positive_int(fields: Mapping[str, str], line_of: Mapping[str, int], key: str) -> int:
    try:
        value = int(fields[key])
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {fields[key]!r}", line_of[key]) from None
    if value < 1:
        raise ParseError(f"{key} must be positive, got {value}", line_of[key])
    return value


def _parse_table_entries(text: str, n: int, m: int) -> TableRule:
    domain = Domain.of_size(m)
    total = profile_space_size(m, n)
    winners: dict[int, Alternative] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        idx_part, sep, label = line.partition(":")
        if not sep:
            raise ParseError(f"expected '<index>: <label>', got {line!r}", no)
        try:
            idx = int(idx_part)
        except ValueError:
            raise ParseError(f"bad index {idx_part!r}", no) from None
        if idx in winners:
            raise ParseError(f"duplicate index {idx}", no)
        try:
            winners[idx] = domain.by_label(label.strip())
        except DomainMismatchError as exc:
            raise ParseError(str(exc), no) from exc
    if len(winners) != total or sorted(winners) != list(range(total)):
        raise ParseError(f"table indices must be contiguous 0..{total - 1}")
    return TableRule(domain, n, tuple(winners[i] for i in range(total)))


def format_table_entries(rule: TableRule) -> str:
    return "".join(f"{i}: {w.label}\n" for i, w in enumerate(rule.winners))
