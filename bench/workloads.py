"""The three benchmark workloads: inputs from a seed, one op, an output check.

A workload object is built from a seed (that is its set-up: input
generation, file writing and expected answers).  It holds the op inputs in
`ops` and their serialised form in `input_bytes`.  `execute(op)` is the
timed part and calls only public safevote entry points.  `verify(op, raw)`
is untimed and returns the op's output bytes and whether they are correct.
`pass_len` consecutive ops make one pass; the harness times whole passes,
so every run of a workload sees the same mix of ops.

Program functions are looked up on their modules at call time
(`strategy.verify_gs`, not a name imported here), so that traced mode sees
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from safevote import cli, core, rules, strategy

RULE_KINDS = ("borda", "plurality", "2-approval")

# `safevote verify` scans with this budget unless SAFEVOTE_BUDGET is set.
VERIFY_BUDGET = 2_000_000


def weights_of(kind: str, m: int) -> tuple[int, ...]:
    if kind == "borda":
        return tuple(range(m - 1, -1, -1))
    if kind == "plurality":
        return (1,) + (0,) * (m - 1)
    return (1, 1) + (0,) * (m - 2)


def orders_of(labels: str) -> list[str]:
    """All ballots over the labels, lexicographic, as compact strings."""
    return ["".join(p) for p in itertools.permutations(labels)]


def spelled(order: str) -> str:
    return " > ".join(order)


def prefers(order: str, x: str, y: str) -> bool:
    return order.index(x) < order.index(y)


def median_of(candidates: list, cost):
    """The candidate of median cost.  Workloads draw several candidates per
    slot and keep this one, so the mix of op costs, and with it the
    measured figures, varies little from seed to seed."""
    return sorted(candidates, key=cost)[len(candidates) // 2]


# ---------------------------------------------------------------------------
# campaign-table: what `safevote verify --n 2 --m 3` does, one rule per op
# ---------------------------------------------------------------------------

CLAIMS = (
    ("GS-manipulable", "verify_gs"),
    ("SafelyManipulable", "verify_safely_manipulable"),
    ("SafePivotal", "verify_safe_pivotal"),
)


class CampaignTable:
    """One op samples a random onto, non-dictatorial 2-voter, 3-alternative
    table rule, finds the three theorem certificates and replays each."""

    name = "campaign-table"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        # Rule seeds come from a master generator, as in `safevote verify`.
        # The list is long enough that a run at today's speed never reuses
        # a seed, so no op repeats an earlier one.
        master = random.Random(seed)
        self.ops = [master.getrandbits(63) for _ in range(40 if tiny else 50_000)]
        self.pass_len = 5 if tiny else 100
        self.input_bytes = "\n".join(map(str, self.ops)).encode()

    def execute(self, rule_seed: int):
        rule = rules.random_table_rule(2, 3, rule_seed)
        certificates = [getattr(strategy, search)(rule, budget=VERIFY_BUDGET) for _, search in CLAIMS]
        replays = [c is not None and strategy.verify_certificate(rule, c) for c in certificates]
        return certificates, replays

    def verify(self, rule_seed: int, raw) -> tuple[bytes, bool]:
        certificates, replays = raw
        # The theorem guarantees all three certificates for onto,
        # non-dictatorial rules, which is all random_table_rule returns.
        ok = all(replays) and all(c.claim == claim for c, (claim, _) in zip(certificates, CLAIMS))
        payload = {
            "seed": rule_seed,
            "certificates": [c.to_json_dict() if c is not None else None for c in certificates],
            "replays": replays,
        }
        return json.dumps(payload, sort_keys=True).encode(), ok


# ---------------------------------------------------------------------------
# elections-scoring: an analyst's CLI session over count-profile files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Election:
    """A count profile and a scoring rule, as the benchmark generated them."""

    labels: str
    ballots: tuple[tuple[str, int], ...]  # (order, count) in file order, counts > 0
    kind: str
    tiebreak: str

    @property
    def weights(self) -> tuple[int, ...]:
        return weights_of(self.kind, len(self.labels))

    def profile_text(self) -> str:
        lines = ["alternatives: " + " ".join(self.labels)]
        lines += [f"{count}: {spelled(order)}" for order, count in self.ballots]
        return "\n".join(lines) + "\n"

    def rule_text(self) -> str:
        scores = " ".join(map(str, self.weights))
        return f"rule: scoring\nscores: {scores}\ntiebreak: {spelled(self.tiebreak)}\n"

    def count(self, order: str) -> int:
        return dict(self.ballots).get(order, 0)

    def first_voter(self, order: str) -> int:
        """0-based index of the type's first voter: count lines expand in file order."""
        start = 0
        for other, count in self.ballots:
            if other == order:
                return start
            start += count
        raise KeyError(order)

    def scores(self) -> dict[str, int]:
        totals = dict.fromkeys(self.labels, 0)
        for order, count in self.ballots:
            for weight, alt in zip(self.weights, order):
                totals[alt] += weight * count
        return totals

    def winner(self, totals: dict[str, int]) -> str:
        best = max(totals.values())
        return next(a for a in self.tiebreak if totals[a] == best)

    def thresholds(self, type_order: str, strategic: str) -> list[str]:
        """Winner when k = 0..count voters of the type switch to `strategic`."""
        base = self.scores()
        w = self.weights
        delta = {a: w[strategic.index(a)] - w[type_order.index(a)] for a in self.labels}
        return [
            self.winner({a: base[a] + k * delta[a] for a in self.labels})
            for k in range(self.count(type_order) + 1)
        ]

    def switch_sizes(self, type_order: str, strategic: str) -> tuple[list[str], list[int], list[int]]:
        """The switch-count table and the sizes that improve or worsen it for the type."""
        table = self.thresholds(type_order, strategic)
        sizes = range(1, len(table))
        improving = [k for k in sizes if prefers(type_order, table[k], table[0])]
        worsening = [k for k in sizes if prefers(type_order, table[0], table[k])]
        return table, improving, worsening

    def scan_evaluations(self, type_order: str, strategic: str) -> int:
        """Rule evaluations the size path of has_incentive makes for the type."""
        _, improving, _ = self.switch_sizes(type_order, strategic)
        return 1 + (min(improving) if improving else self.count(type_order))

    def analyze_evaluations(self) -> int:
        """About the rule evaluations `analyze` makes: every incentive scan,
        then again for each type ranking the winner last until one has an
        incentive (the escape search)."""
        winner = self.winner(self.scores())
        total = 0
        for type_order, _ in self.ballots:
            scans = [self.scan_evaluations(type_order, s) for s in orders_of(self.labels) if s != type_order]
            total += sum(scans)
            if type_order[-1] == winner:
                has = [self.switch_sizes(type_order, s)[1] != [] for s in orders_of(self.labels) if s != type_order]
                total += sum(scans[: has.index(True) + 1] if True in has else scans)
        return total

    def safety_evaluations(self, type_order: str, strategic: str) -> int:
        """About the rule evaluations `safety` makes for one pair."""
        _, improving, _ = self.switch_sizes(type_order, strategic)
        scan = self.scan_evaluations(type_order, strategic)
        classify = scan + self.count(type_order) + 1 if improving else 0
        return scan + classify + self.count(type_order) + 1

    def coalition(self, type_order: str, size: int) -> list[int]:
        """1-based members of the canonical (prefix) coalition of a size."""
        start = self.first_voter(type_order)
        return list(range(start + 1, start + size + 1))


def expected_safety(e: Election, type_order: str, strategic: str) -> dict:
    """The `safety --format json` report, less its rule fingerprint."""
    table, improving, worsening = e.switch_sizes(type_order, strategic)
    report = {
        "type": type_order,
        "strategic_order": spelled(strategic),
        "thresholds": {str(k): w for k, w in enumerate(table)},
    }
    if not improving:
        report["status"] = "no incentive"
        return report
    report["witness_coalition"] = e.coalition(type_order, min(improving))
    if not worsening:
        report["status"] = "Safe"
        return report
    # Both lists are non-empty, so a nested pair of one kind exists.
    over = [(g, b) for g in improving for b in worsening if g < b]
    under = [(b, g) for b in worsening for g in improving if b < g]
    if over:
        kind, (good, bad) = "Overshoot", min(over)
    else:
        kind, (bad, good) = "Undershoot", min(under)
    report.update(
        status="Unsafe",
        kind=kind,
        witness_bad=e.coalition(type_order, min(worsening)),
        good=e.coalition(type_order, good),
        bad=e.coalition(type_order, bad),
    )
    return report


def expected_analyze(e: Election) -> dict:
    """The `analyze --format json` report, less fingerprints and escape profiles."""
    totals = e.scores()
    winner = e.winner(totals)
    types, escapes = [], []
    for type_order, count in e.ballots:
        incentives, first = [], None
        for strategic in orders_of(e.labels):
            if strategic == type_order:
                continue
            table, improving, _ = e.switch_sizes(type_order, strategic)
            if improving:
                incentives.append(strategic)
                first = first or (strategic, table, min(improving))
        types.append({"type": type_order, "count": count, "incentives": incentives})
        if type_order[-1] == winner and first:
            strategic, table, size = first
            escapes.append(
                {
                    "claim": "Escape",
                    "voter": e.first_voter(type_order) + 1,
                    "strategic_order": spelled(strategic),
                    "sets": {"coalition": e.coalition(type_order, size)},
                    "outcomes": {"before": table[0], "after": table[size]},
                    "verified": True,
                }
            )
    return {
        "winner": winner,
        "scores": {a: str(s) for a, s in totals.items()},
        "types": types,
        "escapes": escapes,
    }


@dataclass(frozen=True)
class CliOp:
    command: str
    argv: tuple[str, ...]
    expected: object  # expected report, trajectory count for figure, None for examples


def _check_cli(op: CliOp, out: str) -> bool:
    if op.command == "figure":
        root = ET.fromstring(out)
        arrows = [el for el in root.iter() if el.get("class") == "trajectory"]
        points = [el for el in root.iter() if el.get("class") == "base-point"]
        return root.tag.endswith("svg") and len(arrows) == op.expected and len(points) == 1
    report = json.loads(out)
    if op.command == "examples":
        fixtures = report["fixtures"]
        return all(f["passed"] for f in fixtures) and report["summary"] == f"{len(fixtures)}/{len(fixtures)} fixtures pass"
    report.pop("rule_fingerprint")
    if op.command == "analyze":
        for escape in report["escapes"]:
            escape.pop("profile")
            escape.pop("rule_fingerprint")
    return report == op.expected


class ElectionsScoring:
    """One op is one `safevote` subcommand run in-process through `cli.main`."""

    name = "elections-scoring"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = random.Random(seed)
        # (alternatives, fewest voters, most voters) per election: mostly
        # three alternatives with 20 to 150 voters, plus two four-alternative
        # elections.  Voter counts are stratified so every seed spans the
        # same range.
        if tiny:
            plan = [("ABC", 6, 8), ("ABC", 9, 12), ("ABCD", 5, 8)]
            pairs_per_election = 2
        else:
            plan = [("ABC", 20 + 7 * i, 21 + 7 * i) for i in range(19)]
            plan += [("ABCD", 20, 21), ("ABCD", 37, 38)]
            pairs_per_election = 4
        ops: list[CliOp] = []
        inputs = []
        for index, (labels, lo, hi) in enumerate(plan):
            orders = orders_of(labels)
            kind = RULE_KINDS[index % len(RULE_KINDS)]
            candidates = [self._draw(rng, labels, lo, hi, kind) for _ in range(5)]
            election = median_of(candidates, Election.analyze_evaluations)
            profile_path = os.path.join(workdir, f"election{index}.txt")
            rule_path = os.path.join(workdir, f"rule{index}.txt")
            for path, text in ((profile_path, election.profile_text()), (rule_path, election.rule_text())):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                inputs.append(f"{os.path.basename(path)}\n{text}")
            files = ("--profile", profile_path, "--rule", rule_path)
            ops.append(CliOp("analyze", ("analyze", *files, "--format", "json"), expected_analyze(election)))
            present = [order for order, _ in election.ballots]
            pairs = [(t, s) for t in present for s in orders if s != t]
            for _ in range(pairs_per_election):
                type_order, strategic = median_of(
                    [rng.choice(pairs) for _ in range(3)], lambda pair: election.safety_evaluations(*pair)
                )
                argv = ("safety", *files, "--format", "json", "--type", type_order, "--strategic", strategic)
                ops.append(CliOp("safety", argv, expected_safety(election, type_order, strategic)))
            if len(labels) == 3:
                moves = rng.sample(pairs, min(2, len(pairs)))
                traj = [f"--trajectory={t}:{s}:{election.count(t)}" for t, s in moves]
                ops.append(CliOp("figure", ("figure", *files, *traj), len(traj)))
        ops.append(CliOp("examples", ("examples", "--format", "json"), None))
        self.ops = ops
        self.pass_len = len(ops)
        inputs += [" ".join(os.path.relpath(a, workdir) if a.startswith(workdir) else a for a in op.argv) + "\n" for op in ops]
        self.input_bytes = "".join(inputs).encode()

    @staticmethod
    def _draw(rng: random.Random, labels: str, lo: int, hi: int, kind: str) -> Election:
        orders = orders_of(labels)
        drawn = [rng.choice(orders) for _ in range(rng.randint(lo, hi))]
        return Election(
            labels=labels,
            ballots=tuple((o, drawn.count(o)) for o in orders if o in drawn),
            kind=kind,
            tiebreak="".join(rng.sample(labels, len(labels))),
        )

    def execute(self, op: CliOp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, out.getvalue()

    def verify(self, op: CliOp, raw) -> tuple[bytes, bool]:
        code, out = raw
        try:
            ok = code == 0 and _check_cli(op, out)
        except (ValueError, KeyError, ET.ParseError):  # JSON, report shape, SVG
            ok = False
        return out.encode(), ok


# ---------------------------------------------------------------------------
# subset-oracle: the force_subsets=True path checked against the size path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetQuery:
    rule: rules.ScoringRule
    profile: core.Profile
    voter: int
    strategic: core.LinearOrder
    witness: strategy.IncentiveWitness | None  # what the size path found
    verdict: strategy.SafetyVerdict | None
    text: str  # the generated inputs, for the input fingerprint


def _serialise(witness, verdict) -> bytes:
    def members(voters):
        return None if voters is None else sorted(voters)

    payload = {
        "coalition": members(witness.coalition),
        "before": witness.outcome_before.label,
        "after": witness.outcome_after.label,
        "status": verdict.status.value,
        "kind": verdict.kind.value if verdict.kind else None,
        "witness_bad": members(verdict.witness_bad),
        "good": members(verdict.good),
        "bad": members(verdict.bad),
    }
    return json.dumps(payload, sort_keys=True).encode()


class SubsetOracle:
    """One op runs has_incentive and classify_safety with force_subsets=True
    on a scoring rule, where the size path already gave the answer."""

    name = "subset-oracle"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = random.Random(seed)
        labels = "ABC"
        orders = orders_of(labels)
        domain = core.Domain.from_labels(labels)
        order_of = {o: core.LinearOrder.from_labels(o, domain) for o in orders}
        # One query per slot (type-class size k, smallest improving switch
        # size s, voters n): each (k, s) pairing with k in 8..10 and s in
        # 1..5, twice.  The subset path tries about (k + 2) * C + 2^(k-1)
        # coalitions, C being those smaller than s, so a slot fixes its op's
        # cost for every seed; the seed draws the ballots, the rule and the
        # strategic order.  s is read off the benchmark's own tally.
        if tiny:
            slots = [(3, 1, 8), (4, 2, 10), (4, 1, 12)]
        else:
            pairings = list(itertools.product((1, 2, 3, 4, 5), (8, 9, 10))) * 2
            slots = [(k, s, 24 + (7 * j) % 17) for j, (s, k) in enumerate(pairings)]
        self.ops: list[SubsetQuery] = []
        for k, smallest, n in slots:
            while True:
                kind = rng.choice(RULE_KINDS)
                type_order = rng.choice(orders)
                others = [o for o in orders if o != type_order]
                ballots = [type_order] * k + [rng.choice(others) for _ in range(n - k)]
                rng.shuffle(ballots)
                strategic = rng.choice(others)
                tiebreak = rng.choice(orders)
                tally = Election(labels, tuple((o, ballots.count(o)) for o in orders if o in ballots), kind, tiebreak)
                improving = tally.switch_sizes(type_order, strategic)[1]
                if improving and improving[0] == smallest:
                    break
            rule = rules.ScoringRule.from_ints(weights_of(kind, 3), order_of[tiebreak])
            profile = core.Profile(tuple(order_of[b] for b in ballots))
            voter = ballots.index(type_order)
            # The expected answer is the size path's, as the oracle tests use it.
            witness = strategy.has_incentive(rule, profile, voter, order_of[strategic])
            verdict = witness and strategy.classify_safety(rule, profile, voter, order_of[strategic])
            text = f"{kind} {tiebreak} {voter} {strategic} {' '.join(ballots)}\n"
            self.ops.append(SubsetQuery(rule, profile, voter, order_of[strategic], witness, verdict, text))
        self.pass_len = len(self.ops)
        self.input_bytes = "".join(q.text for q in self.ops).encode()

    def execute(self, q: SubsetQuery):
        witness = strategy.has_incentive(q.rule, q.profile, q.voter, q.strategic, force_subsets=True)
        verdict = strategy.classify_safety(q.rule, q.profile, q.voter, q.strategic, force_subsets=True)
        return witness, verdict

    def verify(self, q: SubsetQuery, raw) -> tuple[bytes, bool]:
        witness, verdict = raw
        if witness is None:
            return b"null", False
        # Field by field: coalition, outcomes, status, kind and the
        # witness, good and bad coalitions must all equal the size path's.
        return _serialise(witness, verdict), witness == q.witness and verdict == q.verdict


WORKLOADS = {w.name: w for w in (CampaignTable, ElectionsScoring, SubsetOracle)}
