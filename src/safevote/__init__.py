"""Safe and unsafe strategic voting: detection, classification, certificates.

The library models elections with strict linear ballots, evaluates social
choice rules (positional scoring rules and explicit tables), searches for
strategic-voting incentives, classifies strategic votes as safe or unsafe
(with overshoot/undershoot witnesses), and emits replayable certificates
for every claim it makes.
"""

from safevote.core import (
    Alternative,
    Domain,
    LinearOrder,
    Profile,
    parse_profile,
    switch_votes,
    voters_of_type,
)
from safevote.rules import (
    RulePredicateReport,
    ScoringRule,
    TableRule,
    check_predicates,
    parse_rule,
    random_table_rule,
)
from safevote.strategy import (
    Certificate,
    IncentiveWitness,
    SafetyVerdict,
    classify_safety,
    construct_safe_from_endup,
    construct_safe_from_inferior,
    find_L_inferior,
    find_escapes,
    has_incentive,
    threshold_scan,
    verify_certificate,
    verify_gs,
    verify_safe_pivotal,
    verify_safely_manipulable,
)

__all__ = [
    "Alternative",
    "Domain",
    "LinearOrder",
    "Profile",
    "parse_profile",
    "switch_votes",
    "voters_of_type",
    "RulePredicateReport",
    "ScoringRule",
    "TableRule",
    "check_predicates",
    "parse_rule",
    "random_table_rule",
    "Certificate",
    "IncentiveWitness",
    "SafetyVerdict",
    "classify_safety",
    "construct_safe_from_endup",
    "construct_safe_from_inferior",
    "find_L_inferior",
    "find_escapes",
    "has_incentive",
    "threshold_scan",
    "verify_certificate",
    "verify_gs",
    "verify_safe_pivotal",
    "verify_safely_manipulable",
]

__version__ = "0.1.0"
