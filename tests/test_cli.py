"""End-to-end tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from safevote import cli, fixtures, strategy
from safevote.core import MAX_VOTERS, Domain, LinearOrder, all_orders, parse_profile, voters_of_type
from safevote.rules import all_profiles, borda, parse_rule, random_table_rule
from safevote.strategy import NoIncentiveError, construct_safe_from_endup, has_incentive, verify_safely_manipulable

from helpers import format_table_entries

PROFILE_94 = """\
alternatives: A B C
17: A > B > C
15: A > C > B
18: B > A > C
16: B > C > A
14: C > A > B
14: C > B > A
"""

PROFILE_FOUR = """\
alternatives: A B C
voter 1: A > B > C
voter 2: B > A > C
voter 3: C > A > B
voter 4: C > B > A
"""

#: Four-alternative count profiles under plurality and 2-approval, where
#: many orders give every alternative the same points; the `analyze`
#: goldens pin their reports.
PROFILE_PLURALITY_4 = """\
alternatives: A B C D
9: A > B > C > D
3: A > D > C > B
6: B > C > D > A
5: B > A > D > C
4: C > B > A > D
2: C > D > B > A
3: D > C > B > A
1: D > A > B > C
"""

PROFILE_2APPROVAL_4 = """\
alternatives: A B C D
7: B > A > C > D
4: D > C > A > B
5: A > C > B > D
7: C > B > D > A
3: D > A > B > C
3: D > A > C > B
4: B > C > D > A
3: B > D > C > A
"""

RULE_BORDA_94 = "rule: scoring\nscores: 2 1 0\ntiebreak: B > A > C\n"
RULE_PLURALITY = "rule: scoring\nscores: 1 0 0\ntiebreak: A > B > C\n"
RULE_AIS = "rule: scoring\nscores: 1 0 0\ntiebreak: A > I > S\n"
PROFILE_ONE = "alternatives: A B C\nvoter 1: A > B > C\n"
RULE_TABLE_1_3 = "rule: table\nn: 1\nm: 3\nentries: w.txt\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("profile94", PROFILE_94),
        ("profile4", PROFILE_FOUR),
        ("borda", RULE_BORDA_94),
        ("plurality", RULE_PLURALITY),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def run(args):
    return cli.main(args)


class TestAnalyze:
    def test_text_report(self, files, capsys):
        code = run(["analyze", "--profile", files["profile94"], "--rule", files["borda"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "winner: B" in out
        assert "A=96" in out and "B=99" in out and "C=87" in out

    def test_json_report(self, files, capsys):
        code = run(
            ["analyze", "--profile", files["profile94"], "--rule", files["borda"], "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["winner"] == "B"
        assert report["scores"] == {"A": "96", "B": "99", "C": "87"}

    def test_blocked_manipulators_profile(self, files, capsys):
        code = run(
            ["analyze", "--profile", files["profile4"], "--rule", files["plurality"], "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["winner"] == "C"
        with_incentive = [t["type"] for t in report["types"] if t["incentives"]]
        assert with_incentive == ["ABC", "BAC"]
        # Both losing types rank the winner last and can improve: two escapes.
        assert len(report["escapes"]) == 2

    def test_escape_profile_keeps_voter_numbers(self, files, capsys):
        # The C > A > B voters 1 and 4 are not one block, so the escape's
        # profile lists every voter: count lines would renumber them.
        interleaved = files["tmp"] / "interleaved.txt"
        interleaved.write_text("alternatives: A B C\nvoter 1: C>A>B\nvoter 2: A>B>C\nvoter 3: B>C>A\nvoter 4: C>A>B\n")
        argv = ["analyze", "--profile", str(interleaved), "--rule", files["plurality"], "--format", "json"]
        assert run(argv) == 0
        (escape,) = json.loads(capsys.readouterr().out)["escapes"]
        assert (escape["voter"], escape["sets"]["coalition"], escape["strategic_order"]) == (2, [2], "B > A > C")
        profile = parse_profile(escape["profile"])
        assert profile.orders == parse_profile(interleaved.read_text()).orders
        strategic = LinearOrder.from_string(escape["strategic_order"], profile.domain)
        assert has_incentive(parse_rule(RULE_PLURALITY), profile, 1, strategic)

    @pytest.mark.parametrize("header", ["B A C", "C B A"])
    def test_header_order_does_not_matter(self, files, capsys, header):
        reordered = files["tmp"] / "reordered.txt"
        reordered.write_text(PROFILE_94.replace("alternatives: A B C", f"alternatives: {header}"))
        reports = []
        for profile in (files["profile94"], str(reordered)):
            assert run(["analyze", "--profile", profile, "--rule", files["borda"], "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_lowercase_labels(self, files, capsys):
        # Labels are case-insensitive: in the header, the ballots and the tie-break.
        lower_profile = files["tmp"] / "lower_profile.txt"
        lower_profile.write_text(PROFILE_94.lower())
        lower_rule = files["tmp"] / "lower_rule.txt"
        lower_rule.write_text(RULE_BORDA_94.replace("B > A > C", "b > A > c"))
        reports = []
        for profile, rule in ((files["profile94"], files["borda"]), (lower_profile, lower_rule)):
            assert run(["analyze", "--profile", str(profile), "--rule", str(rule), "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_table_rule_incentives(self, tmp_path, capsys, seed):
        # A table rule is not anonymous: a type has an incentive to vote an
        # order when any of its members has one.
        rule = random_table_rule(2, 3, seed)
        (tmp_path / "winners.txt").write_text(format_table_entries(rule))
        (tmp_path / "rule.txt").write_text("rule: table\nn: 2\nm: 3\nentries: winners.txt\n")
        orders = all_orders(Domain.of_size(3))
        for profile in all_profiles(Domain.of_size(3), 2):
            voter_lines = "".join(f"voter {i}: {order}\n" for i, order in enumerate(profile.orders, start=1))
            (tmp_path / "p.txt").write_text("alternatives: A B C\n" + voter_lines)
            argv = ["analyze", "--profile", str(tmp_path / "p.txt"), "--rule", str(tmp_path / "rule.txt")]
            assert run([*argv, "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            expected = []
            for type_order in profile.types_present():
                members = voters_of_type(profile, type_order)
                incentives = [
                    strategic.compact
                    for strategic in orders
                    if strategic != type_order
                    and any(has_incentive(rule, profile, v, strategic) for v in members)
                ]
                expected.append({"type": type_order.compact, "count": len(members), "incentives": incentives})
            assert report["types"] == expected

    def test_out_file(self, files):
        out = files["tmp"] / "report.json"
        code = run(
            [
                "analyze", "--profile", files["profile94"], "--rule", files["borda"],
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["winner"] == "B"


class TestSafety:
    def test_unsafe_overshoot(self, files, capsys):
        code = run(
            [
                "safety", "--profile", files["profile94"], "--rule", files["borda"],
                "--type", "A>B>C", "--strategic", "A>C>B", "--format", "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "Unsafe"
        assert report["kind"] == "Overshoot"
        assert len(report["good"]) == 4
        assert len(report["bad"]) == 10
        assert report["thresholds"]["0"] == "B"
        assert report["thresholds"]["4"] == "A"
        assert report["thresholds"]["10"] == "C"

    def test_unsafe_overshoot_text(self, files, capsys):
        code = run(
            [
                "safety", "--profile", files["profile94"], "--rule", files["borda"],
                "--type", "ABC", "--strategic", "ACB", "--format", "text",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "type ABC voting A > C > B: Unsafe",
            "kind: Overshoot",
            "bad coalition (1-based): [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]",
        ]

    def test_safe_vote(self, files, capsys):
        code = run(
            [
                "safety", "--profile", files["profile94"], "--rule", files["borda"],
                "--type", "ACB", "--strategic", "CAB",
            ]
        )
        assert code == 0
        assert "Safe" in capsys.readouterr().out

    def test_no_incentive_reported_distinctly(self, files, capsys):
        code = run(
            [
                "safety", "--profile", files["profile94"], "--rule", files["borda"],
                "--type", "BAC", "--strategic", "ABC",
            ]
        )
        assert code == 0
        assert "no incentive" in capsys.readouterr().out

    def test_large_count_profile_thresholds(self, tmp_path, capsys):
        # 1,400/1,000/700 voters times 16: 49,600 in all.  The per-k table
        # is recomputed here from the Borda scores of each switched profile.
        counts = {"ABC": 22_400, "BAC": 16_000, "CBA": 11_200}
        profile = tmp_path / "large.txt"
        profile.write_text("alternatives: A B C\n" + "".join(f"{c}: {' > '.join(t)}\n" for t, c in counts.items()))
        rule = tmp_path / "borda.txt"
        rule.write_text("rule: scoring\nscores: 2 1 0\ntiebreak: A > B > C\n")
        argv = ["safety", "--profile", str(profile), "--rule", str(rule), "--type", "ABC", "--strategic", "ACB"]
        assert run([*argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        expected = {}
        for k in range(counts["ABC"] + 1):
            ballots = {**counts, "ABC": counts["ABC"] - k, "ACB": k}
            totals = {a: sum(c * (2 - order.index(a)) for order, c in ballots.items()) for a in "ABC"}
            expected[str(k)] = min("ABC", key=lambda a: (-totals[a], "ABC".index(a)))
        assert report["thresholds"] == expected
        first_gain = next(k for k in range(len(expected)) if expected[str(k)] == "A")
        assert report["status"] == "Safe"
        assert report["witness_coalition"] == list(range(1, first_gain + 1))

    def test_absent_type_fails(self, files, capsys):
        code = run(
            [
                "safety", "--profile", files["profile4"], "--rule", files["plurality"],
                "--type", "ACB", "--strategic", "CAB",
            ]
        )
        assert code == cli.EXIT_FAILURE

    def test_strategic_equal_to_type_fails(self, files):
        code = run(
            [
                "safety", "--profile", files["profile94"], "--rule", files["borda"],
                "--type", "ABC", "--strategic", "ABC",
            ]
        )
        assert code == cli.EXIT_PARSE


class TestVerify:
    def test_small_campaign_all_certificates(self, capsys):
        code = run(["verify", "--samples", "5", "--seed", "1", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 0
        assert report["inconclusive"] == 0
        assert len(report["rules"]) == 5
        for entry in report["rules"]:
            assert entry["gs"] == "certificate"
            assert entry["safely_manipulable"] == "certificate"
            assert entry["safe_pivotal"] == "certificate"

    def test_zero_samples_is_success(self, capsys):
        code = run(["verify", "--samples", "0", "--seed", "1", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["rules"] == []

    def test_tiny_budget_is_inconclusive_exit(self, capsys):
        code = run(["verify", "--samples", "3", "--seed", "1", "--budget", "1", "--format", "json"])
        assert code == cli.EXIT_INCONCLUSIVE
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 0
        assert report["inconclusive"] > 0

    def test_wall_time_kept_out_of_json(self, capsys):
        run(["verify", "--samples", "2", "--seed", "9", "--format", "json"])
        captured = capsys.readouterr()
        assert "wall-time" in captured.err
        assert "wall-time" not in captured.out

    def test_text_report(self, capsys):
        code = run(["verify", "--samples", "2", "--seed", "1", "--format", "text"])
        assert code == 0
        assert capsys.readouterr().out == "samples: 2 (n=2, m=3, seed=1)\nfailures: 0\ninconclusive: 0\n"


class TestFigure:
    def test_svg_written(self, files):
        out = files["tmp"] / "figure.svg"
        code = run(
            [
                "figure", "--profile", files["profile94"], "--rule", files["borda"],
                "--trajectory", "ABC:ACB:17", "--trajectory", "ACB:CAB:15",
                "--out", str(out),
            ]
        )
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert svg.count('class="trajectory"') == 2

    def test_bad_trajectory_spec(self, files):
        code = run(
            [
                "figure", "--profile", files["profile94"], "--rule", files["borda"],
                "--trajectory", "ABC-ACB-17",
            ]
        )
        assert code == cli.EXIT_PARSE

    def test_kmax_past_the_type_count_is_a_usage_error(self, files, capsys):
        argv = ["figure", "--profile", files["profile94"], "--rule", files["borda"], "--trajectory"]
        assert run([*argv, "ABC:ACB:99"]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad trajectory spec 'ABC:ACB:99'; KMAX 99 is outside 0..17, the TYPE count\n"
        assert run([*argv, "ABC:ACB:17"]) == cli.EXIT_OK

    def test_negative_weight_draws_the_shifted_figure(self, files, capsys):
        figures = []
        for scores in ("0 0 -1", "1 1 0"):
            rule = files["tmp"] / "rule.txt"
            rule.write_text(f"rule: scoring\nscores: {scores}\ntiebreak: B > A > C\n")
            argv = ["figure", "--profile", files["profile94"], "--rule", str(rule)]
            assert run([*argv, "--trajectory", "ABC:ACB:17", "--trajectory", "ACB:CAB:15"]) == 0
            figures.append(capsys.readouterr().out)
        veto, shifted = figures
        assert veto == shifted
        assert 'class="realizable-region"' in veto and veto.count('class="region-boundary"') == 3

    def test_absent_type_fails(self, files, capsys):
        argv = ["figure", "--profile", files["profile4"], "--rule", files["plurality"], "--trajectory"]
        assert run([*argv, "ACB:CAB:99"]) == cli.EXIT_FAILURE
        assert "not present" in capsys.readouterr().err

    def test_table_rule_fails(self, files, capsys):
        (files["tmp"] / "w.txt").write_text(format_table_entries(random_table_rule(2, 3, 0)))
        (files["tmp"] / "table.txt").write_text("rule: table\nn: 2\nm: 3\nentries: w.txt\n")
        (files["tmp"] / "p2.txt").write_text("alternatives: A B C\nvoter 1: A > B > C\nvoter 2: C > B > A\n")
        argv = ["figure", "--profile", str(files["tmp"] / "p2.txt"), "--rule", str(files["tmp"] / "table.txt")]
        assert run(argv) == cli.EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: figures are defined for scoring rules\n"

    def test_zero_switch_trajectory_draws_no_arrow(self, files, capsys):
        # A trajectory of KMAX 0 is its base point alone, so it has no arrow.
        argv = ["figure", "--profile", files["profile94"], "--rule", files["borda"]]
        assert run([*argv, "--trajectory", "ABC:ACB:0", "--trajectory", "ACB:CAB:15"]) == cli.EXIT_OK
        svg = capsys.readouterr().out
        assert svg.startswith("<?xml") and svg.count('class="trajectory"') == 1


class TestExamples:
    def test_all_fixtures_pass(self, capsys):
        code = run(["examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "5/5 fixtures pass" in out
        assert "corrected from EBCAD" in out

    def test_threshold_check_reports_a_missing_k(self):
        fx = fixtures.FIXTURE_3
        check = fixtures._threshold_check("past the type", fx.rule, fx.profile, "ABC", "ACB", {range(18, 100): "Z"})
        assert not check.passed
        assert check.detail.startswith("k=18: expected Z, got none: the type has 17 voters; k=19: ")

    def test_json_format(self, capsys):
        code = run(["examples", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["fixtures"]) == 5
        assert all(f["passed"] for f in report["fixtures"])


class TestErrors:
    def test_parse_error_exit_code(self, files, capsys):
        bad = files["tmp"] / "bad.txt"
        bad.write_text("no header here\n")
        code = run(["analyze", "--profile", str(bad), "--rule", files["borda"]])
        assert code == cli.EXIT_PARSE

    @pytest.mark.parametrize(
        "profile, rule, message",
        [
            ("alternatives: A B C\n0: A > B > C\n", RULE_PLURALITY, "total zero voters"),
            (
                "alternatives: A B C\n2: A > B > C\n-1: B > A > C\n",
                RULE_PLURALITY,
                "line 3: negative count -1",
            ),
            (PROFILE_FOUR, "rule: table\nn: x\nm: 3\nentries: w.txt\n", "line 2: n must be an integer"),
            (PROFILE_FOUR, "rule: table\nn: 4\nm: 3.5\nentries: w.txt\n", "line 3: m must be an integer"),
            (PROFILE_FOUR, "rule: table\nn: +2\nm: 3\nentries: w.txt\n", "line 2: n must be an integer, got '+2'"),
            (PROFILE_FOUR, "rule: table\nn: 0_2\nm: 3\nentries: w.txt\n", "line 2: n must be an integer, got '0_2'"),
            (PROFILE_FOUR, "rule: table\nn: 2\nm: \u0663\nentries: w.txt\n", "line 3: m must be an integer"),
            (
                PROFILE_FOUR,
                "rule: scoring\nscores: 0 1 2\ntiebreak: A > B > C\n",
                "line 2: score vector 0 1 2 must be non-increasing",
            ),
            (
                PROFILE_FOUR,
                "# two weights for three alternatives\nrule: scoring\nscores: 1 0\ntiebreak: A > B > C\n",
                "line 3: score vector length must equal the number of alternatives",
            ),
            ("alternatives: a A\n1: a > A\n", RULE_PLURALITY, "line 1: duplicate labels"),
            (PROFILE_FOUR, "rule: scoring\nscores: 1 0 0\ntiebreak: a > A > c\n", "line 3: bad tiebreak"),
            (
                "alternatives: A B C\n99999999999999999: A > B > C\n",
                RULE_PLURALITY,
                f"line 2: profile lists more than {MAX_VOTERS} voters",
            ),
            (
                f"alternatives: A B C\n{MAX_VOTERS // 2}: A > B > C\n{MAX_VOTERS // 2 + 1}: B > A > C\n",
                RULE_PLURALITY,
                f"line 3: profile lists more than {MAX_VOTERS} voters",
            ),
            (PROFILE_FOUR, "rule: scoring\nscores:\ntiebreak:\n", "line 3: tiebreak lists no alternatives"),
            (PROFILE_FOUR, "rule: table\nn: 4\nm: 3\nentries:\n", "line 4: entries names no file"),
            (
                PROFILE_FOUR,
                "rule: scoring\nscores: 1e1000000 0 0\ntiebreak: A > B > C\n",
                "line 2: bad score vector '1e1000000 0 0': exponent of '1e1000000' too large",
            ),
            (
                PROFILE_FOUR,
                "rule: scoring\nscores: 1 0 1e-5000\ntiebreak: A > B > C\n",
                "line 2: bad score vector '1 0 1e-5000': '1e-5000' has more than 4300 digits",
            ),
            # `str.upper` turns "ı" into I and "ſ" into S.
            ("alternatives: \u0131 A S\n1: A > I > S\n", RULE_AIS, "line 1: labels must be ASCII letters, got '\u0131'"),
            ("alternatives: A I S\n1: A > I > \u017f\n", RULE_AIS, "line 2: no alternative labelled '\u017f' in domain AIS"),
            (
                "alternatives: A I S\n1: A > I > S\n",
                "rule: scoring\nscores: 1 0 0\ntiebreak: \u017f > A > \u0131\n",
                "line 3: bad tiebreak: labels must be ASCII letters, got '\u017fA\u0131'",
            ),
            # `str.lower` turns the Kelvin sign into k.
            (
                PROFILE_FOUR,
                "rule: scoring\nscores: 1 0 0\ntiebrea\u212a: A > B > C\n",
                "line 3: key 'tiebrea\u212a' is not ASCII",
            ),
            ("alternativesXYZ: A B C\n1: A > B > C\n", RULE_PLURALITY, "line 1: expected 'alternatives:' header"),
            # `Fraction` reads other scripts' digits, and underscores between digits.
            (
                PROFILE_FOUR,
                "rule: scoring\nscores: \u0662 1 0\ntiebreak: A > B > C\n",
                "line 2: bad score vector '\u0662 1 0': weight '\u0662' must be ASCII with no '_'",
            ),
            (
                PROFILE_FOUR,
                "rule: scoring\nscores: 2 1_0 0\ntiebreak: A > B > C\n",
                "line 2: bad score vector '2 1_0 0': weight '1_0' must be ASCII with no '_'",
            ),
            # A rule and its entries file: indices run over 0..(m!)^n - 1.
            (PROFILE_ONE, (RULE_TABLE_1_3, "0: A\n1: B\n40: B\n"), "line 3: index 40 is outside 0..5"),
            (PROFILE_ONE, (RULE_TABLE_1_3, "# winners\n-1: B\n0: A\n"), "line 2: index -1 is outside 0..5"),
            # A key its rule kind does not read, at that key's line.
            (PROFILE_FOUR, RULE_PLURALITY + "n: 3\n", "line 4: a scoring rule reads no key 'n'"),
            (
                PROFILE_FOUR,
                "rule: scoring\nentries: x.txt\nscores: 1 0 0\ntiebreak: A > B > C\n",
                "line 2: a scoring rule reads no key 'entries'",
            ),
            (
                PROFILE_FOUR,
                "rule: scoring\nscores: 1 0 0\nweights: 9 9 9\ntiebreak: A > B > C\n",
                "line 3: a scoring rule reads no key 'weights'",
            ),
            # The largest voter index, and the `rule:` line of a rule that misses a key.
            (
                "alternatives: A B C\nvoter 3: A > B > C\nvoter 1: A > B > C\n",
                RULE_PLURALITY,
                "line 2: voter indices must be contiguous 1..2",
            ),
            (PROFILE_FOUR, "# borda\nrule: scoring\nscores: 2 1 0\n", "line 2: scoring rule needs 'scores'"),
            (PROFILE_FOUR, "rule: table\nn: 4\nentries: w.txt\n", "line 1: table rule needs 'm'"),
            (PROFILE_FOUR, "rule: runoff\n", "line 1: unknown rule kind 'runoff'"),
            # The header of a profile with no ballot line, the last line of
            # counts that total zero, the last line of entries that miss an
            # index, and the first line of a rule file with no `rule:` line.
            ("# no ballots\nalternatives: A B C\n", RULE_PLURALITY, "line 2: profile lists no ballots"),
            (
                "alternatives: A B C\n0: A > B > C\n# none\n0: B > A > C\n",
                RULE_PLURALITY,
                "line 4: count lines total zero voters",
            ),
            (
                PROFILE_ONE,
                (RULE_TABLE_1_3, "0: A\n1: B\n3: C\n4: A\n5: B\n# end\n"),
                "line 5: no entry for index 2; table indices must be contiguous 0..5",
            ),
            (
                PROFILE_FOUR,
                "# plurality\nscores: 1 0 0\ntiebreak: A > B > C\n",
                "line 2: rule file has no 'rule:' line",
            ),
        ],
        ids=[
            "zero-voters", "negative-count", "table-n", "table-m", "table-n-plus", "table-n-underscore",
            "table-m-arabic-indic", "increasing-scores", "scores-length",
            "labels-differ-only-in-case", "tiebreak-labels-differ-only-in-case", "huge-count",
            "voters-over-the-limit", "empty-tiebreak", "blank-entries", "huge-exponent", "huge-negative-exponent",
            "dotless-i-label", "long-s-in-a-ballot", "look-alikes-in-tiebreak", "kelvin-sign-in-a-key",
            "header-key-suffix", "arabic-indic-weight", "underscore-weight", "table-index-past-the-end",
            "table-index-negative", "scoring-rule-with-n", "scoring-rule-with-entries", "scoring-rule-with-weights",
            "voter-index-gap", "scoring-rule-without-tiebreak", "table-rule-without-m", "unknown-rule-kind",
            "no-ballot-lines", "zero-voters-at-the-last-count", "table-index-missing", "rule-file-without-rule-key",
        ],
    )
    def test_malformed_input_is_a_parse_error(self, files, capsys, profile, rule, message):
        if isinstance(rule, tuple):
            rule, entries = rule
            (files["tmp"] / "w.txt").write_text(entries)
        (files["tmp"] / "p.txt").write_text(profile)
        (files["tmp"] / "r.txt").write_text(rule)
        code = run(["analyze", "--profile", str(files["tmp"] / "p.txt"), "--rule", str(files["tmp"] / "r.txt")])
        assert code == cli.EXIT_PARSE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["p.txt", "r.txt", "w.txt"], ids=["profile", "rule", "entries"])
    def test_non_utf8_file_is_a_parse_error(self, files, capsys, bad):
        texts = {
            "p.txt": "alternatives: A B C\nvoter 1: A > B > C\nvoter 2: C > A > B\n",
            "r.txt": "rule: table\nn: 2\nm: 3\nentries: w.txt\n",
            "w.txt": format_table_entries(random_table_rule(2, 3, 0)),
        }
        for name, text in texts.items():
            data = text.encode()
            if name == bad:
                data = data.replace(b"\n", b"\n\xff", 1)  # the first byte of line 2
            (files["tmp"] / name).write_bytes(data)
        code = run(["analyze", "--profile", str(files["tmp"] / "p.txt"), "--rule", str(files["tmp"] / "r.txt")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: line 2: ") and f"{bad} is not UTF-8" in err

    @pytest.mark.parametrize("n", [6000, 10_000_000])
    def test_oversized_table_spec_is_a_parse_error(self, files, capsys, n):
        # The entries file does not exist: the spec is rejected before it is opened.
        (files["tmp"] / "r.txt").write_text(f"rule: table\nn: {n}\nm: 3\nentries: w.txt\n")
        start = time.monotonic()
        code = run(["analyze", "--profile", files["profile4"], "--rule", str(files["tmp"] / "r.txt")])
        assert time.monotonic() - start < 0.5
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: line 2: profile space") and err.count("\n") == 1
        assert "exceeds the enumeration bound" in err

    def test_entries_line_without_colon_is_a_parse_error(self, files, capsys):
        (files["tmp"] / "w.txt").write_text("# winners\n0: A\n1 B\n")
        (files["tmp"] / "table.txt").write_text("rule: table\nn: 2\nm: 3\nentries: w.txt\n")
        code = run(["analyze", "--profile", files["profile4"], "--rule", str(files["tmp"] / "table.txt")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert captured.out == ""
        assert captured.err == "error: line 3: expected '<index>: <label>', got '1 B'\n"

    @pytest.mark.parametrize(
        "command, extra",
        [("analyze", []), ("safety", ["--type", "ABCD", "--strategic", "ABDC"]), ("figure", [])],
        ids=["analyze", "safety", "figure"],
    )
    def test_domain_mismatch_is_a_usage_error(self, files, capsys, command, extra):
        (files["tmp"] / "p4.txt").write_text("alternatives: A B C D\n2: A > B > C > D\n1: D > C > B > A\n")
        code = run([command, "--profile", str(files["tmp"] / "p4.txt"), "--rule", files["borda"], *extra])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert captured.out == ""
        assert captured.err == "error: profile over ABCD does not match rule over ABC\n"

    @pytest.mark.parametrize(
        "command, extra",
        [("analyze", []), ("safety", ["--type", "ABC", "--strategic", "ACB"])],
        ids=["analyze", "safety"],
    )
    def test_table_voter_count_mismatch_is_a_usage_error(self, files, capsys, command, extra):
        (files["tmp"] / "w.txt").write_text(format_table_entries(random_table_rule(2, 3, 0)))
        (files["tmp"] / "table.txt").write_text("rule: table\nn: 2\nm: 3\nentries: w.txt\n")
        (files["tmp"] / "p3.txt").write_text("alternatives: A B C\n2: A > B > C\n1: C > B > A\n")
        code = run([command, "--profile", str(files["tmp"] / "p3.txt"), "--rule", str(files["tmp"] / "table.txt"), *extra])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert captured.out == ""
        assert captured.err == "error: rule expects 2 voters, profile has 3\n"

    def test_huge_score_exponent_is_rejected_quickly(self, files, capsys):
        (files["tmp"] / "r.txt").write_text("rule: scoring\nscores: 1e3000000 0 0\ntiebreak: A > B > C\n")
        start = time.monotonic()
        code = run(["analyze", "--profile", files["profile4"], "--rule", str(files["tmp"] / "r.txt")])
        assert time.monotonic() - start < 0.1
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: line 2: bad score vector")

    def test_missing_file_exit_code(self, files):
        code = run(["analyze", "--profile", "/nonexistent.txt", "--rule", files["borda"]])
        assert code == cli.EXIT_FAILURE

    @pytest.mark.parametrize(
        "argv",
        [
            ["safety", "--type", "ABD", "--strategic", "ACB"],
            ["figure", "--trajectory", "ABC:ACB:x"],
            ["figure", "--trajectory", "ABC:ACB:-1"],
            ["figure", "--trajectory", "ABC:ACB:\u0663"],
            ["figure", "--trajectory", "ABC:ACB:\uff13"],
            ["figure", "--trajectory", "ABC:ACB:+7"],
            ["figure", "--trajectory", "ABC:ACB:1_0"],
            ["figure", "--trajectory", "ABC:ABC:3"],
            ["verify", "--n", "0", "--samples", "3", "--seed", "1"],
            ["verify", "--samples", "-3", "--seed", "1"],
            ["verify", "--m", "2", "--samples", "3", "--seed", "1"],
            ["verify", "--budget", "0", "--samples", "3", "--seed", "1"],
            ["verify", "--n", "3", "--m", "6", "--samples", "1", "--seed", "1"],
            ["verify", "--m", "27", "--samples", "1", "--seed", "1"],
            ["verify", "--n", "1000000000", "--samples", "1", "--seed", "1"],
            ["verify", "--samples", "3", "--seed", "+7"],
            ["verify", "--samples", "1_0", "--seed", "1"],
            ["verify", "--n", "\u0662", "--samples", "3", "--seed", "1"],
            ["verify", "--m", "\uff13", "--samples", "3", "--seed", "1"],
            ["verify", "--budget", " 7", "--samples", "3", "--seed", "1"],
        ],
        ids=[
            "type-label-outside-domain", "trajectory-kmax-not-integer",
            "trajectory-kmax-negative", "trajectory-kmax-arabic-indic-digit", "trajectory-kmax-fullwidth-digit",
            "trajectory-kmax-plus", "trajectory-kmax-underscore",
            "trajectory-strategic-equal-to-type", "verify-n-0",
            "verify-negative-samples", "verify-m-2", "verify-budget-0", "verify-past-the-enumeration-bound",
            "verify-m-27", "verify-n-1e9", "verify-seed-plus", "verify-samples-underscore",
            "verify-n-arabic-indic-digit", "verify-m-fullwidth-digit", "verify-budget-space",
        ],
    )
    def test_bad_argument_is_a_usage_error(self, files, capsys, argv):
        inputs = [] if argv[0] == "verify" else ["--profile", files["profile94"], "--rule", files["borda"]]
        code = run([argv[0], *inputs, *argv[1:]])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--type", ["safety", "--type", "S\u0131A", "--strategic", "ASI"]),
            ("--strategic", ["safety", "--type", "AIS", "--strategic", "A\u017fI"]),
            ("--trajectory", ["figure", "--trajectory", "AIS:A\u017fI:1"]),
        ],
        ids=["type-dotless-i", "strategic-long-s", "trajectory-long-s"],
    )
    def test_look_alike_letter_is_a_usage_error(self, files, capsys, flag, argv):
        # `str.upper` turns "ı" into I and "ſ" into S; only ASCII letters name alternatives.
        (files["tmp"] / "p.txt").write_text("alternatives: A I S\n2: A > I > S\n1: S > I > A\n")
        (files["tmp"] / "r.txt").write_text(RULE_AIS)
        inputs = ["--profile", str(files["tmp"] / "p.txt"), "--rule", str(files["tmp"] / "r.txt")]
        assert run([argv[0], *inputs, *argv[1:]]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ") and "no alternative labelled" in captured.err
        assert run([argv[0], *inputs, *(arg.replace("\u0131", "I").replace("\u017f", "S") for arg in argv[1:])]) == 0

    @pytest.mark.parametrize(
        "argv, message",
        [(["analyze", "--format", "svg"], "invalid choice: 'svg'"), (["figure", "--format", "json"], "--format")],
        ids=["analyze-svg", "figure-format"],
    )
    def test_format_setting_rejected(self, files, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--profile", files["profile94"], "--rule", files["borda"]])
        assert exc.value.code == cli.EXIT_PARSE
        assert message in capsys.readouterr().err


class TestSingleWalk:
    def test_no_incentive_check_before_classifying(self, files, capsys, monkeypatch):
        # Only the per-member filter of the subset path may ask
        # `has_incentive`; every other question about one vote is a single
        # `classify_safety` walk, so forbidding the rest changes no result.
        domain = Domain.of_size(3)
        rule = borda(LinearOrder.from_string("BAC", domain))
        profile = parse_profile(PROFILE_94)
        pairs = [(t, s) for t in all_orders(domain) for s in all_orders(domain) if s != t]

        def results():
            outputs = []
            for type_order, strategic in pairs:
                argv = ["safety", "--profile", files["profile94"], "--rule", files["borda"], "--format", "json"]
                assert run([*argv, "--type", type_order.compact, "--strategic", strategic.compact]) == 0
                outputs.append(capsys.readouterr().out)
                voter = min(voters_of_type(profile, type_order))
                try:
                    certificate = construct_safe_from_endup(rule, profile, voter, strategic)
                except NoIncentiveError as exc:
                    outputs.append(str(exc))
                else:
                    outputs.append(certificate and certificate.to_json())
            outputs.append(verify_safely_manipulable(borda(LinearOrder.from_string("ABC", domain)), n=3).to_json())
            return outputs

        expected = results()
        has_incentive = strategy.has_incentive

        def subset_path_only(*args, force_subsets=False):
            if not force_subsets:
                raise AssertionError("has_incentive asked about a vote that classify_safety walks")
            return has_incentive(*args, force_subsets=True)

        for module in (strategy, cli):
            monkeypatch.setattr(module, "has_incentive", subset_path_only)
        assert results() == expected
        assert {"no incentive", "Safe", "Unsafe"} <= {json.loads(out)["status"] for out in expected[:-1:2]}
        assert any(out and out.startswith("{") for out in expected[1:-1:2])

    def test_analyze_scores_each_vote_once(self, files, capsys, monkeypatch):
        # The summary and the escapes come from one walk: one incentive
        # search per (type, vote class), for the four types whose
        # favourite is not the winner B by five orders, each its own class
        # under Borda.  Two of those types rank B last and escape.
        calls = []
        incentive = strategy._incentive

        def counted(*args, **kwargs):
            calls.append(args[2:4])
            return incentive(*args, **kwargs)

        monkeypatch.setattr(strategy, "_incentive", counted)
        assert run(["analyze", "--profile", files["profile94"], "--rule", files["borda"], "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == len(set(calls)) == 4 * 5
        assert len(report["escapes"]) == 2


class TestReentrantMain:
    def test_each_call_parses_as_the_first(self, files, capsys, monkeypatch):
        # `main` builds its parser once per process.  Each call must still
        # give what the same argv gives as a fresh process's first call: no
        # `--trajectory` arrows left from an earlier call and no `--out`
        # path carried over, also after a call that the full parser ended
        # with help or a usage error.
        base = ["--profile", files["profile94"], "--rule", files["borda"]]
        out_file = files["tmp"] / "analyze.json"
        calls = [
            ["figure", *base, "--trajectory", "ABC:ACB:17", "--trajectory", "ACB:CAB:15"],
            ["figure", *base, "--trajectory", "ABC:ACB:17"],
            ["figure", *base],
            ["analyze", *base, "--format", "json", "--out", str(out_file)],
            ["analyze", *base, "--format", "json"],
            ["safety", *base, "--type", "ABC", "--strategic", "ACB", "--format", "text", "--out", str(out_file)],
            ["examples", "--out", str(out_file)],
        ]
        exits = [
            ["--help"],
            ["figure", *base, "--trajectory", "ABC:ACB:17", "--out", str(out_file), "--bogus"],
            ["analyze", *base, "--format", "json", "stray"],
        ]
        # Each call is followed by an exit: --help, --bogus, stray, --help, ...
        argvs = [argv for i, call in enumerate(calls) for argv in (call, exits[i % len(exits)])]
        src = str(pathlib.Path(__file__).parents[1] / "src")
        monkeypatch.setenv("COLUMNS", "80")  # one help-text width in and out of process

        def written():
            text = out_file.read_text() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            return text

        def first_call(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "safevote.cli", *argv],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            )
            return proc.returncode, proc.stdout, proc.stderr, written()

        def in_process(argv):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err, written()

        expected = [first_call(argv) for argv in argvs]
        results, ends = expected[::2], expected[1::2]
        assert [out.count('class="trajectory"') for _, out, _, _ in results[:3]] == [2, 1, 0]
        assert results[3][1] == "" and results[3][3] == results[4][1] and results[4][3] is None
        assert [(out, text.splitlines()[0]) for _, out, _, text in results[5:]] == [
            ("", "type ABC voting A > C > B: Unsafe"),
            ("", "[PASS] plurality-4-voters"),
        ]
        assert all(err == "" for _, _, err, _ in results)
        assert [code for code, _, _, _ in ends] == [0, 2, 2] * 2 + [0]
        assert all(out.startswith("usage: safevote [-h]") for _, out, _, _ in ends[::3])
        assert [err.splitlines()[-1] for _, _, err, _ in ends[1:3]] == [
            "safevote: error: unrecognized arguments: --bogus",
            "safevote: error: unrecognized arguments: stray",
        ]
        assert all(text is None for *_, text in ends)
        assert [in_process(argv) for argv in argvs] == expected


def parsed(parse, argv, capsys):
    """What `parse(argv)` gives: its namespace's fields or its exit code, and
    what it wrote to stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


FILES = ["--profile", "p.txt", "--rule", "r.txt"]

#: Argument vectors on which `cli._parse` must agree with the full parser:
#: each subcommand, help at both levels, and the usage errors that argparse
#: reports itself, from the top-level parser or from a subcommand's.
PARSE_ARGVS = {
    "no-args": [],
    "help": ["--help"],
    "h": ["-h"],
    "help-before-command": ["--help", "analyze"],
    "bogus-command": ["bogus"],
    "option-before-command": ["-x", "analyze"],
    "dash-dash-before-command": ["--", "analyze"],
    "analyze": ["analyze", *FILES],
    "analyze-json-out": ["analyze", *FILES, "--format", "json", "--out", "o.json"],
    "analyze-h": ["analyze", "-h"],
    "analyze-dash-dash-profile": ["analyze", "--", "--profile", "p.txt"],
    "analyze-prof-abbreviation": ["analyze", "--prof", "p.txt", "--rule", "r.txt"],
    "analyze-profile-equals": ["analyze", "--profile=p.txt", "--rule=r.txt"],
    "analyze-profile-equals-empty": ["analyze", "--profile=", "--rule", "r.txt"],
    "analyze-profile-twice": ["analyze", *FILES, "--profile", "q.txt"],
    "analyze-missing-rule": ["analyze", "--profile", "p.txt"],
    "analyze-out-without-value": ["analyze", *FILES, "--out"],
    "analyze-format-svg": ["analyze", *FILES, "--format", "svg"],
    "analyze-bogus-option": ["analyze", *FILES, "--bogus"],
    "analyze-stray-positional": ["analyze", *FILES, "stray"],
    "analyze-help-then-bogus": ["analyze", "--help", "--bogus"],
    "safety": ["safety", *FILES, "--type", "ABC", "--strategic", "ACB", "--format", "json"],
    "safety-help": ["safety", "--help"],
    "safety-missing-strategic": ["safety", *FILES, "--type", "ABC"],
    "safety-bogus-short-option": ["safety", *FILES, "--type", "ABC", "--strategic", "ACB", "-x"],
    "verify": ["verify", "--samples", "3", "--seed", "7"],
    "verify-all-options": ["verify", "--n", "3", "--m", "4", "--samples", "3", "--seed", "7", "--budget", "9"],
    "verify-negative-samples": ["verify", "--samples", "-3", "--seed", "1"],
    "verify-missing-samples": ["verify", "--seed", "1"],
    "verify-h": ["verify", "-h"],
    "figure": ["figure", *FILES, "--trajectory", "ABC:ACB:17", "--trajectory=ACB:CAB:15"],
    "figure-format-json": ["figure", *FILES, "--format", "json"],
    "figure-help": ["figure", "--help"],
    "figure-trajectory-without-value": ["figure", *FILES, "--trajectory"],
    "examples": ["examples"],
    "examples-json-out": ["examples", "--format", "json", "--out", "o.json"],
    "examples-then-command": ["examples", "analyze"],
    "examples-h": ["examples", "-h"],
}


class TestParse:
    @pytest.mark.parametrize("argv", PARSE_ARGVS.values(), ids=PARSE_ARGVS.keys())
    def test_same_namespace_or_exit_as_the_full_parser(self, argv, capsys):
        result = parsed(cli._parse, argv, capsys)
        assert result == parsed(cli._build_parser().parse_args, argv, capsys)
        if isinstance(result[0], dict):
            assert result[0]["command"] == argv[0] and result[1:] == ("", "")
        elif result[0] == 0:
            assert result[1].startswith("usage: safevote") and result[2] == ""
        else:
            assert result[0] == 2 and result[1] == "" and "error: " in result[2]

    def test_the_battery_reaches_both_paths(self, capsys):
        # Some argvs parse, some end in help and some in a usage error; each
        # of the last two from the top-level parser and from a subcommand's.
        outcomes = [parsed(cli._parse, argv, capsys) for argv in PARSE_ARGVS.values()]
        kinds = {"namespace" if isinstance(code, dict) else code for code, _, _ in outcomes}
        assert kinds == {"namespace", 0, 2}
        progs = {err.splitlines()[-1].split(": error:")[0] for code, _, err in outcomes if code == 2}
        assert {"safevote", "safevote analyze", "safevote safety", "safevote verify", "safevote figure"} <= progs
        assert {out.split(" [")[0] for code, out, _ in outcomes if code == 0} == {
            "usage: safevote", *(f"usage: safevote {command}" for command in cli._build_parser().subcommands)
        }

    def test_subcommands_skip_the_top_level_parser(self, files, capsys, monkeypatch):
        # argparse's top-level pass only picks the subcommand; `main` hands
        # the rest of the argv to that subcommand's parser.
        base = ["--profile", files["profile94"], "--rule", files["borda"]]
        argvs = [
            ["analyze", *base, "--format", "json"],
            ["safety", *base, "--type", "ABC", "--strategic", "ACB", "--format", "json"],
            ["verify", "--samples", "2", "--seed", "7", "--format", "json"],
            ["figure", *base, "--trajectory", "ABC:ACB:17"],
            ["examples", "--format", "json"],
        ]

        def outputs():
            return [(run(argv), capsys.readouterr().out) for argv in argvs]

        expected = outputs()
        assert [code for code, _ in expected] == [0] * len(argvs)

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        parser = cli._build_parser()
        monkeypatch.setitem(vars(parser), "parse_args", refuse)
        monkeypatch.setitem(vars(parser), "parse_known_args", refuse)
        assert outputs() == expected
        with pytest.raises(AssertionError, match="the top-level parser ran"):
            run(["--help"])


GOLDEN = pathlib.Path(__file__).parent / "golden"
BORDA_94_ARGS = ("--profile", "{profile94}", "--rule", "{borda}")
TABLE_4_ARGS = ("--profile", "{table_profile}", "--rule", "{table_rule}")


def write_table_safety_files(tmp):
    """random_table_rule(4, 3, 0) as a rule and entries file, and a four-voter profile."""
    (tmp / "w.txt").write_text(format_table_entries(random_table_rule(4, 3, 0)))
    (tmp / "table.txt").write_text("rule: table\nn: 4\nm: 3\nentries: w.txt\n")
    ballots = ("A > B > C", "A > B > C", "A > C > B", "A > B > C")
    (tmp / "p.txt").write_text("alternatives: A B C\n" + "".join(f"voter {i}: {b}\n" for i, b in enumerate(ballots, 1)))
    return {"table_profile": str(tmp / "p.txt"), "table_rule": str(tmp / "table.txt")}


class TestGoldenOutputs:
    """JSON and text reports and SVG figures are byte-identical to the committed ones:
    the CLI's determinism contract for a fixed config and seed."""

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["verify", "--samples", "200", "--seed", "7", "--format", "json"], "verify_samples200_seed7.json"),
            (
                ["verify", "--n", "3", "--samples", "100", "--seed", "7", "--format", "json"],
                "verify_n3_samples100_seed7.json",
            ),
            # One voter over three alternatives: 15 of the 50 rules reject a
            # table first, so the draw carries entries over to the next table.
            (
                ["verify", "--n", "1", "--m", "3", "--samples", "50", "--seed", "7", "--format", "json"],
                "verify_n1_m3_samples50_seed7.json",
            ),
            # Four alternatives: 3-bit draws, of which half are redrawn.
            (
                ["verify", "--n", "2", "--m", "4", "--samples", "20", "--seed", "7", "--format", "json"],
                "verify_n2_m4_samples20_seed7.json",
            ),
            (["examples", "--format", "json"], "examples.json"),
        ],
        ids=["verify-200-seed-7", "verify-n3-100-seed-7", "verify-n1-m3-50-seed-7", "verify-n2-m4-20-seed-7", "examples"],
    )
    def test_json_matches_golden(self, capsys, argv, golden):
        assert run(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["examples"], "examples.txt"),
            (["verify", "--samples", "200", "--seed", "7"], "verify_samples200_seed7.txt"),
            (["analyze", *BORDA_94_ARGS], "analyze_borda94.txt"),
            (["safety", *BORDA_94_ARGS, "--type", "ABC", "--strategic", "ACB"], "safety_borda94_abc_acb.txt"),
            (["safety", *TABLE_4_ARGS, "--type", "ABC", "--strategic", "CBA"], "safety_table4_seed0.txt"),
        ],
        ids=["examples", "verify-200-seed-7", "analyze-borda-94", "safety-borda-94", "safety-table-4"],
    )
    def test_text_matches_golden(self, files, capsys, argv, golden):
        paths = {**files, **write_table_safety_files(files["tmp"])}
        assert run([*(arg.format_map(paths) for arg in argv), "--format", "text"]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "profile, scores, tiebreak, golden",
        [
            (PROFILE_PLURALITY_4, "1 0 0 0", "A > B > C > D", "analyze_plurality4.json"),
            (PROFILE_2APPROVAL_4, "1 1 0 0", "B > A > D > C", "analyze_2approval4.json"),
        ],
        ids=["plurality-4", "2-approval-4"],
    )
    def test_analyze_matches_golden(self, files, capsys, profile, scores, tiebreak, golden):
        # Types whose favourite wins, and strategic orders that share their
        # points with others, beside incentives and escapes.
        profile_path, rule_path = files["tmp"] / "profile.txt", files["tmp"] / "rule.txt"
        profile_path.write_text(profile)
        rule_path.write_text(f"rule: scoring\nscores: {scores}\ntiebreak: {tiebreak}\n")
        assert run(["analyze", "--profile", str(profile_path), "--rule", str(rule_path), "--format", "json"]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_table_safety_matches_golden(self, files, capsys):
        # A table rule's single-vote subset walk, Unsafe by Overshoot: voter 2
        # is in the worsening coalition and in no improving one, so the
        # classifier asks whether voter 2 has the incentive too.
        tmp = files["tmp"]
        write_table_safety_files(tmp)
        argv = ["safety", "--profile", str(tmp / "p.txt"), "--rule", str(tmp / "table.txt"), "--format", "json"]
        assert run([*argv, "--type", "ABC", "--strategic", "CBA"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "safety_table4_seed0.json").read_text(encoding="utf-8")

    def test_goldens_twice_interleaved(self, files, capsys):
        # Parsed orders are shared for the life of their domain, so one
        # in-process run must leave nothing that changes the next report.
        tmp = files["tmp"]
        for name, profile, scores, tiebreak in (
            ("plurality4", PROFILE_PLURALITY_4, "1 0 0 0", "A > B > C > D"),
            ("2approval4", PROFILE_2APPROVAL_4, "1 1 0 0", "B > A > D > C"),
        ):
            (tmp / f"{name}.txt").write_text(profile)
            (tmp / f"{name}_rule.txt").write_text(f"rule: scoring\nscores: {scores}\ntiebreak: {tiebreak}\n")
        write_table_safety_files(tmp)

        def analyze(name):
            return ["analyze", "--profile", str(tmp / f"{name}.txt"), "--rule", str(tmp / f"{name}_rule.txt"), "--format", "json"]

        runs = [
            (analyze("plurality4"), "analyze_plurality4.json"),
            (
                ["safety", "--profile", str(tmp / "p.txt"), "--rule", str(tmp / "table.txt"), "--format", "json",
                 "--type", "ABC", "--strategic", "CBA"],
                "safety_table4_seed0.json",
            ),
            (
                ["figure", "--profile", files["profile94"], "--rule", files["borda"],
                 "--trajectory", "ABC:ACB:17", "--trajectory", "ACB:CAB:15"],
                "figure_borda94.svg",
            ),
            (["examples", "--format", "json"], "examples.json"),
            (analyze("2approval4"), "analyze_2approval4.json"),
        ]
        for argv, golden in runs * 2:
            assert run(argv) == 0
            assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8"), golden

    def test_figure_matches_golden(self, files, capsys):
        argv = ["figure", "--profile", files["profile94"], "--rule", files["borda"]]
        assert run([*argv, "--trajectory", "ABC:ACB:17", "--trajectory", "ACB:CAB:15"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "figure_borda94.svg").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "scores, tiebreak, moves, golden",
        [
            ("1 0 0", "A > B > C", ["ABC:BCA:17", "CAB:ACB:14"], "figure_plurality.svg"),
            ("1 1 0", "B > A > C", ["ABC:ACB:17", "ACB:CAB:15"], "figure_2approval.svg"),
            ("3/2 1/2 -1", "B > A > C", ["ABC:ACB:17", "ACB:CAB:15"], "figure_fraction_negative.svg"),
        ],
        ids=["plurality-triangle", "2-approval-triangle", "fraction-and-negative-weights"],
    )
    def test_more_figures_match_golden(self, files, capsys, scores, tiebreak, moves, golden):
        # Regions unlike the Borda hexagon: the whole simplex, a triangle, and
        # a vector that is shifted and scaled before it is clipped.
        rule = files["tmp"] / "rule.txt"
        rule.write_text(f"rule: scoring\nscores: {scores}\ntiebreak: {tiebreak}\n")
        arrows = [arg for move in moves for arg in ("--trajectory", move)]
        assert run(["figure", "--profile", files["profile94"], "--rule", str(rule), *arrows]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")
