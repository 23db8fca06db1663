"""Test-only helpers shared by several test modules: the score-point
classifier that figure tests compare with `evaluate`, the writer of
table-rule entries files, and two table builders: any function tabulated
over the profile space, and the perturbed dictatorship."""

import random

from safevote.core import Alternative, Domain, LinearOrder, all_profiles, profile_space_size
from safevote.geometry import BarycentricPoint
from safevote.rules import TableRule, enumerable_size


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
