"""Strategic-voting machinery: incentives, safety, witnesses, certificates.

Every claim is about one move, recorded as an `IncentiveWitness`: a
coalition of one type, containing the voter, switches to a strategic
order, taking the outcome from before to after.  `incentives` enumerates a
type's improving moves, and `_certify` turns any move into the claim's
`Certificate`, so recorded sets and outcomes always replay the switch.
`analyze` walks `incentives` once per type present, and that one walk
gives the type's incentives and its escape.  Every search is
deterministic and its witnesses are minimal under its enumeration order.
`construct_safe_from_inferior` shifts the largest inferior subset, first in
sorted order: inside no other set, it is maximal, as the paper asks.

`incentives` and `safety_verdicts` read one vote enumerator, `_votes`.  It
skips a type whose favourite already wins, and it searches each voter's
votes once per vote class (`Rule.vote_class`), relabelling what it finds
for each order of the class.  A scoring rule's class is the points an
order gives each alternative, so plurality walks m orders per type, not
m! - 1.  Any other rule walks every order, which the tests use as the
oracle.

Each vote's searches (`has_incentive`, `classify_safety` and
`lift_safe_pivotal`) read one move walk, `_walk`, set up once per
(profile, voter) and asked once per strategic order.  Under an anonymous
rule it reads the runs kernel, `Rule.size_runs`: the switch counts at
which the winner changes, and a coalition is built only for a witness, as
the voter plus the first k-1 other members in sorted order.  Otherwise it
walks every coalition containing the voter, by size then lexicographically
(`has_incentive` and `classify_safety` take it on any rule with
`force_subsets=True`, the oracle of the tests and the benchmark).  A
single vote (`_moves`) builds its walk for that vote alone; `_votes` and
the safe-pivotal scan build one per voter for all of the voter's orders.
Where any members may form a coalition, the per-member clause of the
unsafe definition and of the lift is one check, `_incentivized`.  The
per-vote searches over a walk, `_incentive` and `_classify`, return None
for a vote without an incentive; only the public `classify_safety` raises
`NoIncentiveError`.  A `SafetyVerdict` carries its incentive witness, so
one pass settles both questions.  The three theorem verifiers share one
profile scan, `_scan`, which certifies the first move that a per-claim
generator yields.  It walks `all_profiles`, whose first m! profiles are
the domain's shared ones, so the three scans of every rule at one
(domain, n) read each of those profiles' index and type partition as
computed once.

Subset searches find each coalition's winner through the rule's switch
kernel, `Rule.switches(profile, type, order)`, which builds no `Profile`:
one per strategic order of a walk.  `_subsets` builds each coalition once
per walk, in C, as a plain voter tuple (the voter, then an
`itertools.combinations` tuple of the others) kept in one `itertools.tee`
buffer; each order pairs the tuples with their winners in C (`zip` and
`map`), and the searches compare outcomes by the type order's rank tuple,
`LinearOrder.ranks`, so the kernel's `winner` is the one Python call per
coalition.  A `frozenset` is built only for what a search returns (a
witness, a verdict's sets, an inferior subset, the lift's moving
coalition), so every `VoterSet` a caller sees is one.  The pivotal scan
reads every single-voter switch of a profile from one call to
`Rule.solo_switches`, and compares its outcomes by the same rank tuples.
`verify_certificate` is `safevote.check`'s: the claims' definitions over
coalitions, replayed through `evaluate` with no code of these searches.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterator, Mapping, TypeVar

from safevote.check import verify_certificate  # noqa: F401 - the checker, re-exported
from safevote.core import (
    Alternative,
    LinearOrder,
    Profile,
    SafevoteError,
    VoterSet,
    all_orders,
    all_profiles,
    format_json,
    format_profile,
    switch_votes,
    voters_of_present_type,
    voters_of_type,
)
from safevote.rules import DEFAULT_ENUMERATION_BOUND, Rule, resolve_n


class NoIncentiveError(SafevoteError):
    """Safety classification was asked about a vote with no incentive."""


class InconclusiveError(SafevoteError):
    """A scan hit its profile budget without settling the question."""

    def __init__(self, scanned: int):
        super().__init__(f"scan budget exhausted after {scanned} profiles; result inconclusive")
        self.scanned = scanned


@dataclass(frozen=True)
class IncentiveWitness:
    """One move: the coalition, of the voter's type and containing the voter,
    switches to the strategic order.  As an incentive (from `has_incentive`
    or a `SafetyVerdict`) the switch improves the type's shared ranking.
    """

    voter: int
    strategic_order: LinearOrder
    coalition: VoterSet
    outcome_before: Alternative
    outcome_after: Alternative


class SafetyStatus(enum.Enum):
    SAFE = "Safe"
    UNSAFE = "Unsafe"


class UnsafeKind(enum.Enum):
    OVERSHOOT = "Overshoot"
    UNDERSHOOT = "Undershoot"
    OTHER = "Other"


@dataclass(frozen=True)
class SafetyVerdict:
    """Safe, or Unsafe with a witness coalition and a mis-coordination kind.

    `incentive` is the vote's `has_incentive` witness.  For an Unsafe verdict
    `witness_bad` is a minimal coalition containing the voter whose members
    all individually have the incentive yet whose collective switch strictly
    worsens the outcome.  When a nested improving/worsening pair exists the
    kind is Overshoot (improving set strictly inside the worsening one: too
    many acted) or Undershoot (the reverse); Other covers unsafe votes with
    no nested pair, which only non-anonymous rules can produce.
    """

    status: SafetyStatus
    incentive: IncentiveWitness
    witness_bad: VoterSet | None = None
    kind: UnsafeKind | None = None
    good: VoterSet | None = None
    bad: VoterSet | None = None


CLAIMS = ("GS-manipulable", "SafelyManipulable", "SafePivotal", "Escape")


@dataclass(frozen=True, eq=False)
class Certificate:
    """A replayable record backing one manipulability claim.

    Re-checking a certificate means replaying its sets through rule
    evaluation and the type order's comparisons; `verify_certificate` does
    exactly that and nothing else.
    """

    claim: str
    profile: Profile
    voter: int
    strategic_order: LinearOrder
    sets: Mapping[str, VoterSet] = field(default_factory=dict)
    outcomes: Mapping[str, Alternative] = field(default_factory=dict)
    verified: bool = False
    rule_fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.claim not in CLAIMS:
            raise ValueError(f"unknown claim {self.claim!r}; expected one of {CLAIMS}")

    def to_json_dict(self) -> dict:
        """JSON payload with 1-based voter indices and stable key order."""
        return {
            "claim": self.claim,
            "profile": format_profile(self.profile),
            "voter": self.voter + 1,
            "strategic_order": str(self.strategic_order),
            "sets": {name: [v + 1 for v in sorted(members)] for name, members in sorted(self.sets.items())},
            "outcomes": {name: alt.label for name, alt in sorted(self.outcomes.items())},
            "verified": self.verified,
            "rule_fingerprint": self.rule_fingerprint,
        }

    def to_json(self) -> str:
        return format_json(self.to_json_dict())


# ---------------------------------------------------------------------------
# Coalition enumeration
# ---------------------------------------------------------------------------


def _subsets(base: tuple[int, ...], pool: list[int], sizes: range) -> Iterator[tuple[int, ...]]:
    """`base` followed by every subset of a sorted pool of the given sizes,
    size by size, then lexicographically, as plain voter tuples.  Each tuple
    is built in C, with no Python frame per tuple or per size."""
    combinations = map(itertools.combinations, itertools.repeat(pool), sizes)
    return map(base.__add__, itertools.chain.from_iterable(combinations))


def _spans(
    rule: Rule, profile: Profile, type_order: LinearOrder, order: LinearOrder
) -> list[tuple[range, Alternative]]:
    """Each run of `Rule.size_runs` as its switch counts, up to the type's
    count, and its winner."""
    count = len(voters_of_present_type(profile, type_order))
    runs = list(rule.size_runs(profile, type_order, order))
    ends = [k for k, _ in runs[1:]] + [count + 1]
    return [(range(k, end), winner) for (k, winner), end in zip(runs, ends)]


#: One strategic vote's moves, smallest coalition first: the sincere
#: winner, the (key, winner) pair of each move, the coalition of a key, and
#: whether the keys are switch counts rather than voter tuples.
_Moves = tuple[Alternative, Iterator[tuple], Callable[..., VoterSet], bool]


def _walk(rule: Rule, profile: Profile, voter: int, force_subsets: bool = False) -> Callable[[LinearOrder], _Moves]:
    """The moves of the voter's strategic votes from one set-up per
    (profile, voter): the returned function maps a strategic order other
    than the voter's own to its `_Moves`.

    Under an anonymous rule, unless `force_subsets`, a key is a switch count
    at which the winner changes (a run start of `Rule.size_runs`) and its
    coalition the voter and the first k-1 other members in sorted order,
    sorted only once a coalition is asked for; a smaller count's coalition
    lies inside a larger one's.  Otherwise a key is each coalition
    containing the voter, by size then lexicographically, as a voter tuple
    (the voter, then the others in sorted order) scored by the order's
    switch kernel, and its coalition is `frozenset(key)`.

    Either way each order sets up its own kernel, `Rule.size_runs` or
    `Rule.switches`.  The subset walk reads the sincere winner once, from
    `evaluate`, and builds each voter tuple once, when the first order
    reaches it, since `has_incentive` often stops early.  Each order pairs
    the tuples with their winners in C: the kernel's `winner` is the one
    Python call per coalition.
    """
    type_order = profile.orders[voter]
    members = voters_of_type(profile, type_order)
    if rule.anonymous and not force_subsets:
        others: list[int] = []

        def prefix(k: int) -> VoterSet:
            if not others:
                others.extend(sorted(members - {voter}))
            return frozenset((voter, *others[: k - 1]))

        def runs(order: LinearOrder) -> _Moves:
            changes = rule.size_runs(profile, type_order, order)
            _, sincere = next(changes)
            return sincere, changes, prefix, True

        return runs
    sincere = rule.evaluate(profile)
    # Only its copies advance, so the buffer keeps each coalition for every order.
    (coalitions,) = itertools.tee(_subsets((voter,), sorted(members - {voter}), range(len(members))), 1)

    def subsets(order: LinearOrder) -> _Moves:
        keys, walk = coalitions.__copy__(), coalitions.__copy__()
        return sincere, zip(keys, map(rule.switches(profile, type_order, order), walk)), frozenset, False

    return subsets


def _check_voter(profile: Profile, voter: int) -> None:
    """ValueError naming the voter unless it is one of the profile's 0..n-1."""
    if not 0 <= voter < profile.n:
        raise ValueError(f"voter {voter} is outside 0..{profile.n - 1}")


def _moves(
    rule: Rule, profile: Profile, voter: int, strategic_order: LinearOrder, force_subsets: bool = False
) -> _Moves:
    """The moves of one strategic vote, from a `_walk` set up for it alone."""
    _check_voter(profile, voter)
    if strategic_order == profile.orders[voter]:
        raise ValueError("strategic order must differ from the voter's sincere order")
    return _walk(rule, profile, voter, force_subsets)(strategic_order)


# ---------------------------------------------------------------------------
# Incentives (Definition: some same-type coalition containing the voter
# improves the outcome in the shared order when all of it votes L)
# ---------------------------------------------------------------------------


def has_incentive(
    rule: Rule,
    profile: Profile,
    voter: int,
    strategic_order: LinearOrder,
    force_subsets: bool = False,
) -> IncentiveWitness | None:
    """A minimal-coalition incentive witness, or None if there is none."""
    moves = _moves(rule, profile, voter, strategic_order, force_subsets)
    return _incentive(rule, profile, voter, strategic_order, moves)


def _incentive(
    rule: Rule, profile: Profile, voter: int, strategic_order: LinearOrder, moves: _Moves
) -> IncentiveWitness | None:
    """`has_incentive` over the vote's moves: the per-vote search of
    `incentives`."""
    ranks = profile.orders[voter].ranks
    sincere, walk, coalition, _ = moves
    sincere_rank = ranks[sincere.index]
    for key, outcome in walk:
        if ranks[outcome.index] < sincere_rank:
            return IncentiveWitness(voter, strategic_order, coalition(key), sincere, outcome)
    return None


#: What a per-vote search finds: a witness or a verdict.
_Found = TypeVar("_Found")


def _votes(
    rule: Rule,
    profile: Profile,
    type_order: LinearOrder,
    orders: list[LinearOrder],
    search: Callable[[Rule, Profile, int, LinearOrder, _Moves], _Found | None],
) -> Iterator[tuple[LinearOrder, _Found]]:
    """(order, found) for each of a type's strategic votes on which
    `search(rule, profile, voter, order, moves)` finds something, voter
    first, then order.

    For an anonymous rule the type's first voter stands for all of them,
    else each member in turn, and one `_walk` per voter serves all of
    the voter's orders.  The search runs once per (voter,
    `Rule.vote_class`), and each later order of a class gets what its first
    order found, for the caller to relabel.  A type whose favourite already
    wins cannot improve on it, so none of its votes is searched.
    """
    if type_order.top == rule.evaluate(profile):
        return
    members = sorted(voters_of_type(profile, type_order))
    strategic = [order for order in orders if order != type_order]
    for voter in members[:1] if rule.anonymous else members:
        walk = _walk(rule, profile, voter)
        found: dict[Hashable, _Found | None] = {}
        for order in strategic:
            key = rule.vote_class(order)
            if key in found:
                result = found[key]
            else:
                result = found[key] = search(rule, profile, voter, order, walk(order))
            if result is not None:
                yield order, result


def _relabel(witness: IncentiveWitness, strategic_order: LinearOrder) -> IncentiveWitness:
    """The witness of another order of the same vote class; the witness
    itself for the order it was found for."""
    if witness.strategic_order == strategic_order:
        return witness
    return replace(witness, strategic_order=strategic_order)


def incentives(
    rule: Rule, profile: Profile, type_order: LinearOrder, orders: list[LinearOrder]
) -> Iterator[IncentiveWitness]:
    """Every incentive witness of one type, in `_votes` order: one
    `has_incentive` search per vote class of each voter searched."""
    for strategic_order, witness in _votes(rule, profile, type_order, orders, _incentive):
        yield _relabel(witness, strategic_order)


# ---------------------------------------------------------------------------
# Safety classification
# ---------------------------------------------------------------------------


def classify_safety(
    rule: Rule,
    profile: Profile,
    voter: int,
    strategic_order: LinearOrder,
    force_subsets: bool = False,
) -> SafetyVerdict:
    """Classify a strategic vote the voter has an incentive to cast.

    Raises NoIncentiveError when the precondition (an incentive exists)
    fails: safety is only defined for actual strategic opportunities.  The
    moves below are `has_incentive`'s, so it finds the same witness too.
    """
    moves = _moves(rule, profile, voter, strategic_order, force_subsets)
    verdict = _classify(rule, profile, voter, strategic_order, moves)
    if verdict is None:
        raise NoIncentiveError(f"voter {voter + 1} has no incentive to vote {strategic_order.compact}")
    return verdict


def _classify(
    rule: Rule, profile: Profile, voter: int, strategic_order: LinearOrder, moves: _Moves
) -> SafetyVerdict | None:
    """`classify_safety` over the vote's moves, or None when the vote has
    no incentive: the per-vote search of `safety_verdicts`."""
    ranks = profile.orders[voter].ranks
    sincere, walk, coalition, by_size = moves
    sincere_rank = ranks[sincere.index]
    improving, worsening = [], []
    for key, outcome in walk:
        # Rank 0 is the type's favourite: a lower rank improves the outcome.
        rank = ranks[outcome.index]
        if rank < sincere_rank:
            if not improving:
                incentive = IncentiveWitness(voter, strategic_order, coalition(key), sincere, outcome)
            improving.append(key)
        elif rank > sincere_rank:
            worsening.append(key)
    if not improving:
        return None
    if worsening and not by_size:
        # The incentive clause of the unsafe definition is per member.  Every
        # member of an improving coalition has one already, so only the other
        # members of worsening coalitions are asked.  Under anonymity every
        # member shares the voter's incentive and nobody is asked.
        incentivized = frozenset().union(*improving)
        incentivized |= _incentivized(rule, profile, frozenset().union(*worsening) - incentivized, strategic_order)
        worsening = list(filter(incentivized.issuperset, worsening))
    if not worsening:
        return SafetyVerdict(SafetyStatus.SAFE, incentive)
    witness_bad = coalition(worsening[0])
    # Keys come smallest coalition first, so the improving coalitions smaller
    # than a bad one are a prefix of `improving` and the larger ones the rest.
    # A smaller count's coalition lies inside a larger one's; a voter tuple
    # is tested against one set per bad coalition.
    sizes = improving if by_size else list(map(len, improving))
    # Prefer Overshoot (good strictly inside bad) when both nested-pair kinds exist.
    for kind in (UnsafeKind.OVERSHOOT, UnsafeKind.UNDERSHOOT):
        overshoot = kind is UnsafeKind.OVERSHOOT
        for bad in worsening:
            size = bad if by_size else len(bad)
            if overshoot:
                goods = itertools.islice(improving, bisect.bisect_left(sizes, size))
            else:
                goods = itertools.islice(improving, bisect.bisect_right(sizes, size), None)
            if not by_size:
                bad_set = frozenset(bad)
                goods = filter(bad_set.issuperset if overshoot else bad_set.issubset, goods)
            good = next(goods, None)
            if good is not None:
                return SafetyVerdict(SafetyStatus.UNSAFE, incentive, witness_bad, kind, coalition(good), coalition(bad))
    return SafetyVerdict(SafetyStatus.UNSAFE, incentive, witness_bad, UnsafeKind.OTHER)


def _incentivized(rule: Rule, profile: Profile, voters: VoterSet, strategic_order: LinearOrder) -> VoterSet:
    """The voters with an incentive to vote the strategic order, each asked
    through the subset walk: the per-member check where any members may act."""
    return frozenset(
        v for v in voters if has_incentive(rule, profile, v, strategic_order, force_subsets=True) is not None
    )


def safety_verdicts(
    rule: Rule, profile: Profile, type_order: LinearOrder, orders: list[LinearOrder]
) -> Iterator[SafetyVerdict]:
    """The verdict of every incentivized vote of one type, in `incentives`
    order: one `classify_safety` search per vote class of each voter
    searched."""
    for strategic_order, verdict in _votes(rule, profile, type_order, orders, _classify):
        incentive = _relabel(verdict.incentive, strategic_order)
        yield verdict if incentive is verdict.incentive else replace(verdict, incentive=incentive)


def _verdict(rule: Rule, profile: Profile, voter: int, strategic_order: LinearOrder) -> SafetyVerdict | None:
    """The vote's verdict, or None when it has no incentive."""
    return _classify(rule, profile, voter, strategic_order, _moves(rule, profile, voter, strategic_order))


def _is_safe(rule: Rule, profile: Profile, voter: int, strategic_order: LinearOrder) -> bool:
    """Whether the vote is a safe manipulation: incentivized, and safe."""
    verdict = _verdict(rule, profile, voter, strategic_order)
    return verdict is not None and verdict.status == SafetyStatus.SAFE


def threshold_scan(
    rule: Rule,
    profile: Profile,
    type_order: LinearOrder,
    strategic_order: LinearOrder,
) -> dict[int, Alternative]:
    """Winner as a function of how many voters of one type switch.

    Only meaningful for anonymous rules, where the outcome depends on the
    number of switchers rather than their identities.
    """
    if not rule.anonymous:
        raise SafevoteError("threshold_scan requires an anonymous rule")
    spans = _spans(rule, profile, type_order, strategic_order)
    return {k: winner for sizes, winner in spans for k in sizes}


# ---------------------------------------------------------------------------
# Profile analysis: incentives and escapes per type; L-inferior subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeIncentives:
    """One type present at a profile: how many voters hold it, and the
    strategic orders some member has an incentive to cast, in `all_orders`
    order."""

    type_order: LinearOrder
    count: int
    strategic_orders: tuple[LinearOrder, ...]


@dataclass(frozen=True)
class Analysis:
    """A profile's winner, the incentives of every type present, in
    `types_present` order, and its Escape certificates."""

    winner: Alternative
    types: tuple[TypeIncentives, ...]
    escapes: tuple[Certificate, ...]


def analyze(rule: Rule, profile: Profile) -> Analysis:
    """One `incentives` walk per type present settles both its incentives
    and its escape: a type that ranks the winner last escapes through its
    first witness."""
    winner = rule.evaluate(profile)
    orders = all_orders(profile.domain)
    types: list[TypeIncentives] = []
    escapes: list[Certificate] = []
    for type_order in profile.types_present():
        witnesses = list(incentives(rule, profile, type_order, orders))
        found = {w.strategic_order for w in witnesses}
        count = len(voters_of_type(profile, type_order))
        types.append(TypeIncentives(type_order, count, tuple(o for o in orders if o in found)))
        if witnesses and type_order.bottom == winner:
            escapes.append(_certify(rule, "Escape", profile, witnesses[0]))
    return Analysis(winner, tuple(types), tuple(escapes))


def find_escapes(rule: Rule, profile: Profile) -> list[Certificate]:
    """Escape certificates: one per type that ranks the winner last and
    has a member with some strategic incentive."""
    return list(analyze(rule, profile).escapes)


def find_L_inferior(
    rule: Rule,
    profile: Profile,
    type_order: LinearOrder,
    strategic_order: LinearOrder,
) -> list[VoterSet]:
    """Proper subsets of the type class whose partial switch leaves the
    type strictly worse off than the full switch, smallest first.

    For anonymous rules one canonical subset per qualifying size, the
    first members in sorted order, is read from the rule's runs; the general
    path returns every qualifying subset, lexicographically within a size.
    """
    # A stable sort of the largest-first walk keeps each size's sets in order.
    return sorted(_inferior(rule, profile, type_order, strategic_order), key=len)


def _inferior(
    rule: Rule, profile: Profile, type_order: LinearOrder, strategic_order: LinearOrder
) -> Iterator[VoterSet]:
    """The subsets of `find_L_inferior`, largest size first and, within a
    size, lexicographically, each built only when the walk is asked for it."""
    if strategic_order == type_order:
        raise ValueError("strategic order must differ from the type order")
    if rule.anonymous:
        spans = _spans(rule, profile, type_order, strategic_order)
        full_outcome, ordered = spans[-1][1], sorted(voters_of_type(profile, type_order))
        for sizes, outcome in reversed(spans):
            if type_order.prefers(full_outcome, outcome):
                yield from (frozenset(ordered[:k]) for k in reversed(sizes))
        return
    members = voters_of_present_type(profile, type_order)
    winner = rule.switches(profile, type_order, strategic_order)
    ranks = type_order.ranks
    full_rank = ranks[winner(members).index]
    for subset in _subsets((), sorted(members), range(len(members) - 1, -1, -1)):
        if full_rank < ranks[winner(subset).index]:
            yield frozenset(subset)


def construct_safe_from_inferior(
    rule: Rule,
    profile: Profile,
    type_order: LinearOrder,
    strategic_order: LinearOrder,
) -> Certificate | None:
    """Safe-manipulation certificate built from the largest inferior subset,
    first in sorted order, which is inside no other and so is maximal.

    Shifting a maximal inferior subset onto the strategic order leaves the
    remaining type members with a safe incentive to follow; the emitted
    certificate lives at that shifted profile and is re-verified here.
    """
    chosen = next(_inferior(rule, profile, type_order, strategic_order), None)
    if chosen is None:
        return None
    shifted = switch_votes(profile, chosen, strategic_order)
    remaining = voters_of_type(profile, type_order) - chosen
    voter = min(remaining)
    verified = _is_safe(rule, shifted, voter, strategic_order)
    after = rule.evaluate(switch_votes(shifted, remaining, strategic_order))
    move = IncentiveWitness(voter, strategic_order, remaining, rule.evaluate(shifted), after)
    return _certify(rule, "SafelyManipulable", shifted, move, verified, inferior=chosen)


def construct_safe_from_endup(
    rule: Rule,
    profile: Profile,
    voter: int,
    strategic_order: LinearOrder,
) -> Certificate | None:
    """Safe-manipulation certificate when the full type switch does not hurt.

    Requires an incentive; returns None when the full switch strictly
    worsens the outcome (the construction does not apply).  Otherwise the
    certificate is at the profile itself when the vote is already safe,
    or at a shifted profile via `construct_safe_from_inferior`.
    """
    verdict = classify_safety(rule, profile, voter, strategic_order)
    type_order = profile.orders[voter]
    members = voters_of_type(profile, type_order)
    full_outcome = rule.switches(profile, type_order, strategic_order)(members)
    if type_order.prefers(verdict.incentive.outcome_before, full_outcome):
        return None
    if verdict.status == SafetyStatus.SAFE:
        return _certify(rule, "SafelyManipulable", profile, verdict.incentive)
    # The bad coalition strictly worsens the outcome, so it is inferior to
    # the full switch and the largest-inferior construction must succeed.
    certificate = construct_safe_from_inferior(rule, profile, type_order, strategic_order)
    assert certificate is not None
    return certificate


# ---------------------------------------------------------------------------
# Exhaustive theorem verifiers
# ---------------------------------------------------------------------------


def _certify(
    rule: Rule,
    claim: str,
    profile: Profile,
    move: IncentiveWitness,
    verified: bool = True,
    **extra_sets: VoterSet,
) -> Certificate:
    """The certificate recording one move at a profile."""
    return Certificate(
        claim=claim,
        profile=profile,
        voter=move.voter,
        strategic_order=move.strategic_order,
        sets={"coalition": move.coalition, **extra_sets},
        outcomes={"before": move.outcome_before, "after": move.outcome_after},
        verified=verified,
        rule_fingerprint=rule.fingerprint(),
    )


def _scan(
    rule: Rule,
    n: int | None,
    budget: int,
    claim: str,
    moves: Callable[[Rule, Profile, list[LinearOrder]], Iterator[IncentiveWitness]],
) -> Certificate | None:
    """Certificate for the first move at the first profile that has one.

    Raises InconclusiveError, before trying a profile's moves, once `budget`
    profiles have been scanned without one; a budget of zero or less stops
    at the first profile.
    """
    orders = all_orders(rule.domain)
    for scanned, profile in enumerate(all_profiles(rule.domain, resolve_n(rule, n))):
        if scanned >= budget:
            raise InconclusiveError(budget)
        move = next(moves(rule, profile, orders), None)
        if move is not None:
            return _certify(rule, claim, profile, move)
    return None


def _pivotal_moves(
    rule: Rule, profile: Profile, orders: list[LinearOrder]
) -> Iterator[IncentiveWitness]:
    """Single-voter switches that improve the outcome for that voter."""
    sincere = rule.evaluate(profile)
    for voter, strategic_order, outcome in rule.solo_switches(profile, orders):
        ranks = profile.orders[voter].ranks
        if ranks[outcome.index] < ranks[sincere.index]:
            yield IncentiveWitness(voter, strategic_order, frozenset({voter}), sincere, outcome)


def _safe_incentive_moves(
    rule: Rule, profile: Profile, orders: list[LinearOrder]
) -> Iterator[IncentiveWitness]:
    """Incentivized strategic votes that are safe, one type at a time."""
    for type_order in profile.types_present():
        for verdict in safety_verdicts(rule, profile, type_order, orders):
            if verdict.status == SafetyStatus.SAFE:
                yield verdict.incentive


def _safe_pivotal_moves(
    rule: Rule, profile: Profile, orders: list[LinearOrder]
) -> Iterator[IncentiveWitness]:
    """Pivotal moves whose vote is safe.  The moves come voter by voter, and
    one `_walk` per voter serves all of that voter's votes."""
    for voter, moves in itertools.groupby(_pivotal_moves(rule, profile, orders), operator.attrgetter("voter")):
        walk = _walk(rule, profile, voter)
        for move in moves:
            verdict = _classify(rule, profile, voter, move.strategic_order, walk(move.strategic_order))
            if verdict is not None and verdict.status == SafetyStatus.SAFE:
                yield move


def verify_gs(rule: Rule, n: int | None = None, budget: int = DEFAULT_ENUMERATION_BOUND) -> Certificate | None:
    """First single-voter (pivotal) manipulation in canonical scan order.

    None means the exhaustive scan found nothing, which for a total rule
    implies it is dictatorial or not onto.  A truncated scan raises
    InconclusiveError instead of silently returning None.
    """
    return _scan(rule, n, budget, "GS-manipulable", _pivotal_moves)


def verify_safely_manipulable(
    rule: Rule, n: int | None = None, budget: int = DEFAULT_ENUMERATION_BOUND
) -> Certificate | None:
    """First profile/voter/order whose strategic vote is incentivized and safe."""
    return _scan(rule, n, budget, "SafelyManipulable", _safe_incentive_moves)


def verify_safe_pivotal(
    rule: Rule, n: int | None = None, budget: int = DEFAULT_ENUMERATION_BOUND
) -> Certificate | None:
    """First voter who is singly pivotal via a strategic vote that is safe."""
    return _scan(rule, n, budget, "SafePivotal", _safe_pivotal_moves)


def lift_safe_pivotal(rule: Rule, safe_certificate: Certificate) -> Certificate:
    """Turn a safe-manipulation certificate into a safe-pivotal one.

    Construction: if the certified voter is already pivotal, done.
    Otherwise take an inclusion-minimal coalition of incentivized type
    members containing the voter whose switch moves the outcome; peeling
    one member off it yields a shifted profile at which that member is
    singly pivotal, and the vote stays safe there.  The result is
    re-verified by direct replay.

    The coalition is the first moving one among the vote's moves, read as
    `has_incentive` reads them.  Under an anonymous rule that is the first
    run start of `Rule.size_runs` whose winner differs from the sincere
    one, and every member shares the voter's incentive, so only the voter
    is asked and no subset is walked.  Otherwise the coalitions are walked
    and every member is asked.
    """
    if safe_certificate.claim != "SafelyManipulable":
        raise ValueError("expected a SafelyManipulable certificate")
    profile = safe_certificate.profile
    j = safe_certificate.voter
    _check_voter(profile, j)
    strategic_order = safe_certificate.strategic_order

    def pivotal_move(at_profile: Profile, voter: int) -> IncentiveWitness:
        solo = frozenset({voter})
        before = rule.evaluate(at_profile)
        after = rule.evaluate(switch_votes(at_profile, solo, strategic_order))
        return IncentiveWitness(voter, strategic_order, solo, before, after)

    move = pivotal_move(profile, j)
    sincere = move.outcome_before
    if not profile.orders[j].prefers(move.outcome_after, sincere):
        members = voters_of_type(profile, profile.orders[j])
        _, moves, coalition, by_size = _moves(rule, profile, j, strategic_order)
        moved = (key for key, outcome in moves if outcome != sincere)
        if by_size:
            incentivized = members if has_incentive(rule, profile, j, strategic_order) is not None else frozenset()
            moved = map(coalition, moved)
        else:
            incentivized = _incentivized(rule, profile, members, strategic_order)
        # Size-minimal moving coalition of j and incentivized voters; size
        # minimality implies inclusion minimality, so every proper subset
        # containing j leaves the outcome at the sincere winner.
        moving = next(filter((incentivized | {j}).issuperset, moved), None)
        if moving is None or len(moving) < 2:
            raise SafevoteError("certificate does not lift: no moving coalition found")
        moving = frozenset(moving)
        peeled = max(moving - {j})
        profile = switch_votes(profile, moving - {peeled}, strategic_order)
        move = pivotal_move(profile, peeled)
    voter = move.voter
    verified = profile.orders[voter].prefers(move.outcome_after, move.outcome_before) and _is_safe(
        rule, profile, voter, strategic_order
    )
    return _certify(rule, "SafePivotal", profile, move, verified)
