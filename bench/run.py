"""safevote benchmark: one workload, one closed-loop client, every output checked.

Run from the repository root:

    python3 bench/run.py --workload campaign-table --seed 1 --seconds 30 --trace 0

Workloads: campaign-table, elections-scoring, subset-oracle (see
bench/README.md for why each exists).  The client sends the next op only
after the previous one returned.  Set-up (input generation, file writing,
expected answers) runs several times before timing and reports its median.
The timed loop then runs whole passes over the workload's ops until
`--seconds` have passed and at least 100 ops completed.  Every timing is
scaled by a reference loop timed between ops (see bench/hostspeed.py), so
that the host's speed drift does not show as a change in the program.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the same pass
untraced and traced in turn for `--seconds` and prints the per-layer
metrics, including the ratio of traced to untraced time.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Exit codes: 0 every op correct, 1 some op failed, 2 the
benchmark could not run (no source tree, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100
SETUP_REPEATS = 7

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SourceTreeMissing(Exception):
    pass


def add_source_tree() -> None:
    """Import safevote from this checkout's src/, and nowhere else."""
    if not (SRC / "safevote" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no safevote package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import safevote

    if Path(safevote.__file__).resolve().parent != SRC / "safevote":
        raise SourceTreeMissing(f"safevote imported from {safevote.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


class Runner:
    """Runs a workload's ops one at a time and checks every output."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.clock = None  # a hostspeed.Clock while the timed loop runs

    def run_op(self, index: int, traced: bool = False) -> tuple[float, bytes]:
        wl = self.workload
        op = wl.ops[index % len(wl.ops)]
        error = None
        if traced:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            raw = wl.execute(op)
        except Exception as exc:  # a failed op is counted and reported, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        if self.clock is not None:
            self.clock.record(elapsed)
        if traced:
            self.tracer.active = False
            self.tracer.end_op()
        output, ok = b"", False
        if error is None:
            try:
                output, ok = wl.verify(op, raw)
            except Exception as exc:  # a check that cannot run fails the op
                error = exc
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"op {index} of {wl.name} failed: {repr(op)[:300]}", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
        return elapsed, output

    def run_pass(self, number: int, traced: bool = False) -> tuple[list[float], list[bytes]]:
        n = self.workload.pass_len
        results = [self.run_op(i, traced) for i in range(number * n, (number + 1) * n)]
        return [r[0] for r in results], [r[1] for r in results]


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "big"))
        h.update(chunk)
    return h.hexdigest()


def set_up(workload_cls, seed: int, workdir: str, tiny: bool, repeats: int):
    """Build the workload `repeats` times; every build must give the same inputs.

    Returns the workload, the scaled set-up times and whether the inputs repeated.
    """
    clock, fingerprints = hostspeed.Clock(), set()
    for _ in range(repeats):
        start = time.perf_counter()
        workload = workload_cls(seed, workdir, tiny)
        clock.record(time.perf_counter() - start)
        fingerprints.add(digest([workload.input_bytes]))
    return workload, clock.flush(), len(fingerprints) == 1


def latency_metrics(times: list[float], distinct_ops: int) -> dict[str, float]:
    """Throughput over every timed op; latency percentiles over the distinct ops.

    `times[j]` is the time of op `j % distinct_ops`.  An op that ran in several
    passes counts once, with its median time, so the percentiles describe one
    pass of the workload and the noise of single timings does not widen them.
    """
    runs = defaultdict(list)
    for j, seconds in enumerate(times):
        runs[j % distinct_ops].append(seconds)
    typical = [statistics.median(r) for r in runs.values()]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(typical) * 1000,
        "op_p90_ms": statistics.quantiles(typical, n=10)[-1] * 1000,
    }


def measure(runner: Runner, seconds: float, min_ops: int):
    """Closed loop over whole passes until `seconds` and `min_ops` are reached.

    Whole passes give every run the same mix of ops.  The timings cover the
    ops only, not the harness's checks, and each is scaled by the host's
    speed around it.  Pass 0's outputs give the output fingerprint.  Returns
    the metrics, those outputs, the op count and, for the log, the unscaled
    timings with the median host speed factor.
    """
    first_outputs = None
    number = 0
    runner.clock = clock = hostspeed.Clock()
    start = time.perf_counter()
    while True:
        _, outputs = runner.run_pass(number)
        first_outputs = first_outputs if first_outputs is not None else outputs
        number += 1
        if time.perf_counter() - start >= seconds and len(clock.raw) >= min_ops:
            break
    runner.clock = None
    distinct = len(runner.workload.ops)
    metrics = latency_metrics(clock.flush(), distinct)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unscaled = latency_metrics(clock.raw, distinct)
    unscaled["host_speed"] = statistics.median(hostspeed.REFERENCE_S / t for t in clock.reference_s)
    return metrics, first_outputs, len(clock.raw), unscaled


def measure_traced(runner: Runner, seconds: float):
    """Pass 0 untraced, then traced, in turn until `seconds` have passed."""
    untraced_s, traced_s = [], []
    first_outputs, same = None, True
    start = time.perf_counter()
    with runner.tracer.installed():
        while True:
            lat, outputs = runner.run_pass(0)
            untraced_s.append(sum(lat))
            runner.tracer.begin_pass()
            lat, traced_outputs = runner.run_pass(0, traced=True)
            traced_s.append(sum(lat))
            first_outputs = first_outputs if first_outputs is not None else outputs
            same = same and outputs == traced_outputs == first_outputs
            if time.perf_counter() - start >= seconds:
                break
    overhead = statistics.median(traced_s) / statistics.median(untraced_s)
    return runner.tracer.metrics(overhead), first_outputs, same


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, min_ops: int = MIN_OPS) -> dict:
    """Run one workload and return the full report (see `main` for the printed form)."""
    add_source_tree()
    import tracing
    import workloads

    workload_cls = workloads.WORKLOADS[name]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work")
    try:
        repeats = 1 if trace else SETUP_REPEATS
        workload, setup_times, inputs_repeat = set_up(workload_cls, seed, workdir, tiny, repeats)
        runner = Runner(workload, tracing.Tracer() if trace else None)
        # Warm-up: lazy imports and first-call costs are paid before timing.
        for index in range(min(3, workload.pass_len)):
            runner.run_op(index)
        if trace:
            metrics, outputs, outputs_repeat = measure_traced(runner, seconds)
            timed_ops = unscaled = None
        else:
            values, outputs, timed_ops, unscaled = measure(runner, seconds, min_ops)
            values["setup_s"] = statistics.median(setup_times)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            outputs_repeat = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            (ROOT / ".bench_work").rmdir()
    return {
        "workload": name,
        "correct": runner.failed == 0 and inputs_repeat and outputs_repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "op_fail_ratio": runner.failed / runner.attempted,
        "timed_ops": timed_ops,
        "unscaled": unscaled,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "fingerprints": {"inputs": digest([workload.input_bytes]), "outputs": digest(outputs)},
        "meta": metadata(seed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        add_source_tree()
    except SourceTreeMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("meta " + json.dumps(report["meta"], sort_keys=True))
    print("fingerprints " + json.dumps(report["fingerprints"], sort_keys=True))
    print(f"ops attempted={report['attempted']} failed={report['failed']} op_fail_ratio={report['op_fail_ratio']:.6g}"
          + (f" timed={report['timed_ops']}" if report["timed_ops"] is not None else ""))
    for metric, entry in report["metrics"].items():
        print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    if report["unscaled"] is not None:
        print("unscaled " + json.dumps(report["unscaled"], sort_keys=True))
    result = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
