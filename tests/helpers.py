"""Test-only helpers shared by several test modules: the score-point
classifier that figure tests compare with `evaluate`, the writer of
table-rule entries files, three table builders (any function tabulated
over the profile space, the perturbed dictatorship, and the entry-by-entry
`randrange` draw that `random_table_rule` must match), the kernel oracle
`ObjectPath`, the subset-walk view `SubsetWalk`, and `object_path_replay`,
the certificate replay through the searches that `safevote.check`
replaced, kept as its oracle."""

import random
from typing import Callable

from safevote.core import (
    Alternative,
    Domain,
    LinearOrder,
    Profile,
    SafevoteError,
    VoterSet,
    all_profiles,
    profile_space_size,
    switch_votes,
    voters_of_type,
)
from safevote.geometry import BarycentricPoint
from safevote.rules import Rule, TableRule, _check_predicates_exhaustive, enumerable_size
from safevote.strategy import Certificate, _is_safe, has_incentive


def region_of(point: BarycentricPoint, tiebreak: LinearOrder) -> Alternative:
    """The winning alternative for a score point: largest coordinate,
    ties broken by the rule's tie-break order."""
    domain = tiebreak.domain
    assert len(domain) == 3, "region classification is defined for three alternatives"
    best = max(point.coords)
    tied = {domain.alternatives[i] for i, c in enumerate(point.coords) if c == best}
    return min(tied, key=tiebreak.rank)


def format_table_entries(rule: TableRule) -> str:
    """The rule's winners as an entries file, one `<index>: <label>` line each."""
    return "".join(f"{i}: {w.label}\n" for i, w in enumerate(rule.winners))


def table_from_function(domain: Domain, n: int, fn) -> TableRule:
    """Tabulate `fn(profile) -> Alternative` over the whole profile space,
    or BudgetExceededError when it passes the enumeration bound."""
    enumerable_size(len(domain), n)
    return TableRule(domain, n, tuple(fn(p) for p in all_profiles(domain, n)))


def perturbed_dictatorship(n: int, m: int, seed: int) -> TableRule:
    """Voter 1's favourite wins at every profile but one, drawn from the
    seed, where another alternative drawn from the seed wins.  For m >= 2
    the table is onto and not dictatorial, and its safe scans run deep:
    at (3, 4), seed 0, all three `verify_*` scans stop at profile 5,831."""
    domain = Domain.of_size(m)
    orders = domain._orders
    total = profile_space_size(m, n)
    # Voter 1 is the most significant digit of a profile's index.
    block = total // len(orders)
    winners = [orders[index // block].top for index in range(total)]
    rng = random.Random(seed)
    index = rng.randrange(total)
    winners[index] = rng.choice([a for a in domain.alternatives if a != winners[index]])
    return TableRule(domain, n, tuple(winners))


def randrange_table_rule(n: int, m: int, seed: int) -> tuple[TableRule, int]:
    """The oracle of `random_table_rule`'s draw: each table drawn one entry
    at a time with `randrange(m)`, rejected until one is onto and not
    dictatorial.  Returns the rule and the number of tables drawn."""
    total = enumerable_size(m, n)
    domain = Domain.of_size(m)
    rng = random.Random(seed)
    for attempt in range(1, 1001):
        rule = TableRule(domain, n, tuple(domain.alternatives[rng.randrange(m)] for _ in range(total)))
        report = _check_predicates_exhaustive(rule, n)
        if report.onto and report.dictatorial is None:
            return rule, attempt
    raise AssertionError(f"no table after 1000 attempts (n={n}, m={m}, seed={seed})")


class ObjectPath(Rule):
    """A rule seen only through its `evaluate`: the default `Rule.switches`
    replays every switch through `switch_votes`, never the rule's kernel."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.domain, self.anonymous, self.n = rule.domain, rule.anonymous, rule.n

    def evaluate(self, profile: Profile) -> Alternative:
        return self.rule.evaluate(profile)


class SubsetWalk(Rule):
    """A rule seen as not anonymous, so every search walks its subsets; its
    winners, switch kernel and fingerprint are the rule's."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.domain, self.anonymous, self.n = rule.domain, False, rule.n

    def evaluate(self, profile: Profile) -> Alternative:
        return self.rule.evaluate(profile)

    def switches(
        self, profile: Profile, type_order: LinearOrder, order: LinearOrder
    ) -> Callable[[VoterSet], Alternative]:
        return self.rule.switches(profile, type_order, order)

    def config_text(self) -> str:
        return self.rule.config_text()


def _replays_record(rule: Rule, certificate: Certificate, sincere: Alternative) -> bool:
    """What the certificate records replays: a rule fingerprint must be the
    rule's, and a recorded move must be a coalition of the voter's type,
    containing the voter, whose switch takes the outcome from `before` to
    `after`.  A bare certificate records neither."""
    if certificate.rule_fingerprint not in ("", rule.fingerprint()):
        return False
    coalition = certificate.sets.get("coalition")
    if coalition is None:
        return not certificate.outcomes
    profile, voter = certificate.profile, certificate.voter
    if voter not in coalition or not coalition <= voters_of_type(profile, profile.orders[voter]):
        return False
    after = rule.evaluate(switch_votes(profile, coalition, certificate.strategic_order))
    return certificate.outcomes == {"before": sincere, "after": after}


def object_path_replay(rule: Rule, certificate: Certificate) -> bool:
    """Independently replay a certificate: its record, then its claim's
    defining inequalities from the profile alone.  Every switch goes
    through `switch_votes` and `Rule.evaluate`, never a switch kernel."""
    profile = certificate.profile
    voter = certificate.voter
    strategic_order = certificate.strategic_order
    if not 0 <= voter < profile.n:
        return False
    type_order = profile.orders[voter]
    if strategic_order == type_order:
        return False
    oracle = ObjectPath(rule)
    try:
        sincere = rule.evaluate(profile)
        if not _replays_record(rule, certificate, sincere):
            return False
        if certificate.claim in ("GS-manipulable", "SafePivotal"):
            solo = frozenset({voter})
            # A recorded solo move was just replayed, and its outcome matched
            # the recorded `after`.
            if certificate.sets.get("coalition") == solo:
                outcome = certificate.outcomes["after"]
            else:
                outcome = rule.evaluate(switch_votes(profile, solo, strategic_order))
            if not type_order.prefers(outcome, sincere):
                return False
            return certificate.claim == "GS-manipulable" or _is_safe(oracle, profile, voter, strategic_order)
        if certificate.claim == "SafelyManipulable":
            return _is_safe(oracle, profile, voter, strategic_order)
        if certificate.claim == "Escape":
            if type_order.bottom != sincere:
                return False
            return has_incentive(oracle, profile, voter, strategic_order) is not None
    except SafevoteError:
        return False
    return False
