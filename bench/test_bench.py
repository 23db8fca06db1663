"""Self-test of the benchmark harness on tiny inputs.

Run from the repository root (the tier-1 suite does not collect it):

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run

run.add_source_tree()

import tracing  # noqa: E402
import workloads  # noqa: E402
from safevote import rules  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name, trace=False, seed=3):
    return run.run_benchmark(name, seed=seed, seconds=0.01, trace=trace, tiny=True, min_ops=10)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_runs_are_correct_and_report_every_metric(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report = tiny(name, trace)
        assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
        expected = {(m["name"], m["unit"]) for m in SPEC[section]}
        assert {(k, v["unit"]) for k, v in report["metrics"].items()} == expected


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in tracing.LAYER_METRICS]
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fingerprints_repeat_for_a_seed_and_in_traced_mode(name):
    first, again, traced = tiny(name), tiny(name), tiny(name, trace=True)
    assert first["fingerprints"] == again["fingerprints"] == traced["fingerprints"]
    assert tiny(name, seed=4)["fingerprints"]["inputs"] != first["fingerprints"]["inputs"]


def test_traced_run_counts_layer_calls():
    metrics = tiny("campaign-table", trace=True)["metrics"]
    assert metrics["rules.random_table_rule.calls"]["value"] == 5
    assert metrics["strategy.verify_certificate.calls"]["value"] == 15
    assert 0 < metrics["rules.sample_accept_ratio"]["value"] <= 1
    assert metrics["rules.evaluate.calls"]["value"] > 0


def test_tracing_leaves_the_program_unpatched():
    before = (rules.ScoringRule.evaluate, workloads.strategy.has_incentive, workloads.cli.has_incentive)
    tiny("elections-scoring", trace=True)
    assert (rules.ScoringRule.evaluate, workloads.strategy.has_incentive, workloads.cli.has_incentive) == before


def test_a_wrong_winner_fails_ops(monkeypatch):
    evaluate = rules.ScoringRule.evaluate

    def wrong(self, profile):
        right = evaluate(self, profile)
        return next(a for a in self.domain if a != right)

    monkeypatch.setattr(rules.ScoringRule, "evaluate", wrong)
    report = tiny("elections-scoring")
    assert not report["correct"]
    assert report["op_fail_ratio"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "campaign-table", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_clock_scales_each_op_by_the_reference_times_around_it(monkeypatch):
    readings = iter([0.010, 0.0025, 0.005])
    monkeypatch.setattr(hostspeed, "reference_time", lambda: next(readings))
    monkeypatch.setattr(hostspeed, "EVERY_S", 0.0)
    clock = hostspeed.Clock()
    clock.record(0.004)  # between references of 10 ms and 2.5 ms: scaled by 5 / 6.25
    clock.record(0.002)  # between 2.5 ms and 5 ms: scaled by 5 / 3.75
    assert clock.flush() == pytest.approx([0.0032, 0.002 * 5 / 3.75])
    assert clock.raw == [0.004, 0.002]


def test_reference_time_leaves_the_collector_as_it_was():
    assert hostspeed.reference_time() > 0
    import gc

    assert gc.isenabled()
