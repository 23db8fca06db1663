"""End-to-end tests for the command-line interface."""

import json
import pathlib
import time

import pytest

from safevote import cli, strategy
from safevote.core import MAX_VOTERS, Domain, LinearOrder, all_orders, parse_profile, voters_of_type
from safevote.rules import all_profiles, borda, format_table_entries, random_table_rule
from safevote.strategy import NoIncentiveError, construct_safe_from_endup, has_incentive, verify_safely_manipulable

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

RULE_BORDA_94 = "rule: scoring\nscores: 2 1 0\ntiebreak: B > A > C\n"
RULE_PLURALITY = "rule: scoring\nscores: 1 0 0\ntiebreak: A > B > C\n"


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

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SAFEVOTE_BUDGET", "1")
        code = run(["verify", "--samples", "3", "--seed", "1", "--format", "json"])
        assert code == cli.EXIT_INCONCLUSIVE

    def test_bad_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SAFEVOTE_BUDGET", "lots")
        code = run(["verify", "--samples", "1", "--seed", "1"])
        assert code == cli.EXIT_PARSE

    def test_zero_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SAFEVOTE_BUDGET", "0")
        code = run(["verify", "--samples", "1", "--seed", "1"])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == "error: SAFEVOTE_BUDGET must be positive, got 0\n"


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


class TestExamples:
    def test_all_fixtures_pass(self, capsys):
        code = run(["examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "5/5 fixtures pass" in out
        assert "corrected from EBCAD" in out

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
        ],
        ids=[
            "zero-voters", "negative-count", "table-n", "table-m", "increasing-scores", "scores-length",
            "labels-differ-only-in-case", "tiebreak-labels-differ-only-in-case", "huge-count",
            "voters-over-the-limit", "empty-tiebreak",
        ],
    )
    def test_malformed_input_is_a_parse_error(self, files, capsys, profile, rule, message):
        (files["tmp"] / "p.txt").write_text(profile)
        (files["tmp"] / "r.txt").write_text(rule)
        code = run(["analyze", "--profile", str(files["tmp"] / "p.txt"), "--rule", str(files["tmp"] / "r.txt")])
        assert code == cli.EXIT_PARSE
        assert message in capsys.readouterr().err

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

    def test_missing_file_exit_code(self, files):
        code = run(["analyze", "--profile", "/nonexistent.txt", "--rule", files["borda"]])
        assert code == cli.EXIT_FAILURE

    @pytest.mark.parametrize(
        "argv",
        [
            ["safety", "--type", "ABD", "--strategic", "ACB"],
            ["figure", "--trajectory", "ABC:ACB:x"],
            ["figure", "--trajectory", "ABC:ACB:-1"],
            ["figure", "--trajectory", "ABC:ABC:3"],
            ["verify", "--n", "0", "--samples", "3", "--seed", "1"],
            ["verify", "--samples", "-3", "--seed", "1"],
            ["verify", "--m", "2", "--samples", "3", "--seed", "1"],
            ["verify", "--budget", "0", "--samples", "3", "--seed", "1"],
        ],
        ids=[
            "type-label-outside-domain", "trajectory-kmax-not-integer",
            "trajectory-kmax-negative", "trajectory-strategic-equal-to-type", "verify-n-0",
            "verify-negative-samples", "verify-m-2", "verify-budget-0",
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


GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestGoldenOutputs:
    """JSON reports are byte-identical to the committed ones: the CLI's
    determinism contract for a fixed config and seed."""

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["verify", "--samples", "200", "--seed", "7", "--format", "json"], "verify_samples200_seed7.json"),
            (["examples", "--format", "json"], "examples.json"),
        ],
        ids=["verify-200-seed-7", "examples"],
    )
    def test_json_matches_golden(self, capsys, argv, golden):
        assert run(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")
