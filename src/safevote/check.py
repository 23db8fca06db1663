"""The certificate checker: each claim's definition, replayed through
`switch_votes`, `voters_of_type` and the rule's `evaluate`, `anonymous`
and `fingerprint()` alone, with no code of the searches.

A move is a coalition of the voter's type, containing the voter, that
switches to the strategic order.  The voter has an incentive when some
move improves the outcome in the type's order; the vote is safe when it
has one and no move of incentivized voters worsens the outcome.
GS-manipulable: the solo move improves.  SafePivotal: it improves and the
vote is safe.  SafelyManipulable: the vote is safe.  Escape: the sincere
winner is the type's last choice and the voter has an incentive.

The sincere profile is evaluated once, and each coalition at most once per
certificate, through one memo that the record, the solo move and the
safety check read.  Under an anonymous rule the moves are the voter plus
the first k-1 other members in sorted order, one per size k, every member
shares the voter's incentive, and the memo keeps one winner per size.
Otherwise the moves are the type's subsets that contain the voter; those
without the voter, which tell the other members' incentives, are asked
only for a vote that both improves and worsens.  No budget is needed: a
strategic vote needs m >= 2, only tables are not anonymous, and a table's
(m!)^n entries lie within `DEFAULT_ENUMERATION_BOUND`, so 2^n does too.
"""

from __future__ import annotations

import itertools

from safevote.core import Alternative, SafevoteError, VoterSet, switch_votes, voters_of_type


def verify_certificate(rule, certificate) -> bool:
    """Whether a `strategy.Certificate` holds for the rule.  Its record must
    replay: the fingerprint is empty or the rule's, and a recorded coalition
    holds the voter, lies in their type and moves `before` to `after`."""
    try:
        return _holds(rule, certificate)
    except SafevoteError:
        return False


def _holds(rule, certificate) -> bool:
    profile, voter, order = certificate.profile, certificate.voter, certificate.strategic_order
    if not 0 <= voter < profile.n or order == profile.orders[voter]:
        return False
    type_order, claim = profile.orders[voter], certificate.claim
    ranks, sincere = type_order.ranks, rule.evaluate(profile)
    winners: dict[VoterSet | int, Alternative] = {}

    def after(coalition: VoterSet) -> Alternative:
        key = len(coalition) if rule.anonymous else coalition
        if key not in winners:
            winners[key] = rule.evaluate(switch_votes(profile, coalition, order))
        return winners[key]

    def gain(coalition: VoterSet) -> int:  # positive when the switch improves the outcome
        return ranks[sincere.index] - ranks[after(coalition).index]

    if certificate.rule_fingerprint not in ("", rule.fingerprint()):
        return False
    coalition = certificate.sets.get("coalition")
    if coalition is None:
        if certificate.outcomes:
            return False
    # `switch_votes` refuses mixed types, so a coalition with the voter lies within its type.
    elif voter not in coalition or certificate.outcomes != {"before": sincere, "after": after(frozenset(coalition))}:
        return False
    if claim in ("GS-manipulable", "SafePivotal") and gain(frozenset({voter})) <= 0:
        return False
    if claim == "GS-manipulable":
        return True
    if claim == "Escape" and type_order.bottom != sincere:
        return False
    others = sorted(voters_of_type(profile, type_order) - {voter})
    if rule.anonymous:
        # Every member shares the voter's incentive, so only the gains' signs count.
        gains = [gain(frozenset((voter, *others[:k]))) for k in range(len(others) + 1)]
        incentive, unsafe = max(gains) > 0, min(gains) < 0
    else:
        gains = {c: gain(c) for c in map(frozenset, ((voter, *c) for c in _subsets(others)))}
        improving, worsening = [c for c, g in gains.items() if g > 0], [c for c, g in gains.items() if g < 0]
        if improving and worsening:
            improving += [c for c in map(frozenset, _subsets(others)[1:]) if gain(c) > 0]
        incentivized = frozenset().union(*improving)
        incentive, unsafe = bool(improving), any(c <= incentivized for c in worsening)
    return incentive and (claim == "Escape" or not unsafe)


def _subsets(voters: list[int]) -> list[tuple[int, ...]]:
    """Every subset of the sorted voters, the empty one first, by size."""
    return [c for k in range(len(voters) + 1) for c in itertools.combinations(voters, k)]
