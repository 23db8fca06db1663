"""Test-only helpers shared by several test modules: the score-point
classifier that figure tests compare with `evaluate`, and the writer of
table-rule entries files."""

from safevote.core import Alternative, LinearOrder
from safevote.geometry import BarycentricPoint
from safevote.rules import TableRule


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
