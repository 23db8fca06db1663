"""Traced mode: spans around safevote's public functions, from outside `src/`.

`Tracer.installed()` replaces each traced function with a wrapper on every
safevote module that binds it (`strategy`, `fixtures` and `geometry` import
`switch_votes`; `cli` imports `has_incentive` and the `verify_*`
functions), and each traced method on its class.  Leaving the context puts
the originals back.  Wrappers record spans only while `active` is set, so
the harness's own checks are never traced.

A span is (name, start, end, parent, returned-something).  The spans of one
op stay in memory until the op ends; `end_op` then folds them into the
per-pass totals: calls, self time (span minus its child spans), hits, and
for CLI subcommands the span durations.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, module, attribute) for functions; (span name, module,
# class, attribute) for methods.  Both rule classes share one span name.
FUNCTIONS = (
    ("core.switch_votes", "safevote.core", "switch_votes"),
    ("core.parse_profile", "safevote.core", "parse_profile"),
    ("core.format_profile", "safevote.core", "format_profile"),
    ("rules.random_table_rule", "safevote.rules", "random_table_rule"),
    ("rules.decode_profile", "safevote.rules", "decode_profile"),
    ("rules.parse_rule", "safevote.rules", "parse_rule"),
    ("strategy.verify_gs", "safevote.strategy", "verify_gs"),
    ("strategy.verify_safely_manipulable", "safevote.strategy", "verify_safely_manipulable"),
    ("strategy.verify_safe_pivotal", "safevote.strategy", "verify_safe_pivotal"),
    ("strategy.verify_certificate", "safevote.strategy", "verify_certificate"),
    ("strategy.has_incentive", "safevote.strategy", "has_incentive"),
    ("strategy.classify_safety", "safevote.strategy", "classify_safety"),
    ("strategy.threshold_scan", "safevote.strategy", "threshold_scan"),
    ("strategy.find_escapes", "safevote.strategy", "find_escapes"),
    ("geometry.figure_spec", "safevote.geometry", "figure_spec"),
    ("geometry.render_svg", "safevote.geometry", "render_svg"),
    ("cli.analyze", "safevote.cli", "cmd_analyze"),
    ("cli.safety", "safevote.cli", "cmd_safety"),
    ("cli.figure", "safevote.cli", "cmd_figure"),
    ("cli.examples", "safevote.cli", "cmd_examples"),
)
METHODS = (
    ("rules.evaluate", "safevote.rules", "ScoringRule", "evaluate"),
    ("rules.evaluate", "safevote.rules", "TableRule", "evaluate"),
    ("fixtures.results", "safevote.fixtures", "Fixture", "results"),
    # Every table random_table_rule draws is built, then checked.
    ("rules.table_built", "safevote.rules", "TableRule", "__init__"),
)

COUNTED = (
    "rules.evaluate",
    "core.switch_votes",
    "rules.random_table_rule",
    "strategy.verify_gs",
    "strategy.verify_safely_manipulable",
    "strategy.verify_safe_pivotal",
    "strategy.verify_certificate",
    "strategy.has_incentive",
    "strategy.classify_safety",
    "strategy.threshold_scan",
    "strategy.find_escapes",
)
SELF_TIME_ONLY = (
    "core.parse_profile",
    "rules.parse_rule",
    "core.format_profile",
    "geometry.figure_spec",
    "geometry.render_svg",
    "fixtures.results",
)
SUBCOMMANDS = ("analyze", "safety", "figure", "examples")

# Per-layer metric names and units, in report order; BENCHMARK.json lists
# the same names.
LAYER_METRICS = (
    ("rules.evaluate.calls", "count"),
    ("rules.evaluate.self_s", "s"),
    ("rules.evaluate.per_op", "calls/op"),
    *((f"{name}.{kind}", unit) for name in COUNTED[1:] for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("rules.decode_profile.calls", "count"),
    ("rules.sample_accept_ratio", "ratio"),
    ("strategy.has_incentive.hit_ratio", "ratio"),
    *((f"{name}.self_s", "s") for name in SELF_TIME_ONLY),
    *((f"cli.{sub}.p50_ms", "ms") for sub in SUBCOMMANDS),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self._spans: list = []
        self._stack: list[int] = []
        self.passes: list[dict] = []

    def _wrap(self, name, fn):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans[index] = (name, start, time.perf_counter(), parent, result is not None)
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced binding for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "safevote" or n.startswith("safevote.")]
        undo = []
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, binding, original))
                        setattr(mod, binding, traced)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def begin_pass(self) -> None:
        self.passes.append(
            {"calls": Counter(), "self_s": defaultdict(float), "hits": Counter(), "durations": defaultdict(list), "ops": 0}
        )

    def end_op(self) -> None:
        """Fold the finished op's spans into the current pass."""
        totals = self.passes[-1]
        spans = self._spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, hit), children in zip(spans, child_s):
            totals["calls"][name] += 1
            totals["self_s"][name] += end - start - children
            totals["hits"][name] += hit
            if name.startswith("cli."):
                totals["durations"][name].append(end - start)
        totals["ops"] += 1
        spans.clear()

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: counts from the first traced pass (every pass
        runs the same ops), self times as the median over passes."""
        first = self.passes[0]
        calls = first["calls"]

        def self_s(name):
            return statistics.median(p["self_s"][name] for p in self.passes)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {"rules.evaluate.per_op": ratio(calls["rules.evaluate"], first["ops"])}
        for name in COUNTED + SELF_TIME_ONLY:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s(name)
        values["rules.decode_profile.calls"] = calls["rules.decode_profile"]
        values["rules.sample_accept_ratio"] = ratio(calls["rules.random_table_rule"], calls["rules.table_built"])
        values["strategy.has_incentive.hit_ratio"] = ratio(
            first["hits"]["strategy.has_incentive"], calls["strategy.has_incentive"]
        )
        for sub in SUBCOMMANDS:
            durations = [d for p in self.passes for d in p["durations"][f"cli.{sub}"]]
            values[f"cli.{sub}.p50_ms"] = statistics.median(durations) * 1000 if durations else 0.0
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: (values[name], unit) for name, unit in LAYER_METRICS}
