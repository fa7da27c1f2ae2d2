"""Span tracing of esdsim from the outside, by wrapping public functions.

Nothing inside the package changes.  ``Tracer.install`` replaces each traced
function by a wrapper in every ``esdsim`` namespace that binds it (``cli``
imports ``find_end_time`` and friends by name, the package ``__init__``
re-exports everything), and patches ``__post_init__`` on the ``XState`` and
``Schedule`` classes so that every construction is seen.  ``uninstall``
puts the originals back.

A span is ``(name, parent, op, start, end)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the operation the benchmark was
running, so the spans of one operation share that identifier.  Spans are
kept in memory; ``layer_metrics`` reduces one pass worth of them to the
per-layer numbers and ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

import numpy as np

# Span name -> (module, attribute).  A dotted attribute is a method patched
# on its class.  These are the layer-boundary entry points; helpers such as
# validate_density_matrix run inside the measure spans and count there.
TRACED = {
    "qstate.XState.__post_init__": ("esdsim.qstate", "XState.__post_init__"),
    "qstate.negativity": ("esdsim.qstate", "negativity"),
    "qstate.negativity_xstate": ("esdsim.qstate", "negativity_xstate"),
    "qstate.concurrence": ("esdsim.qstate", "concurrence"),
    "qstate.von_neumann_entropy": ("esdsim.qstate", "von_neumann_entropy"),
    "channel.evolve_xstate_closed": ("esdsim.channel", "evolve_xstate_closed"),
    "channel.evolve_kraus": ("esdsim.channel", "evolve_kraus"),
    "intervention.apply_xstate": ("esdsim.intervention", "apply_xstate"),
    "intervention.apply_unitary": ("esdsim.intervention", "apply_unitary"),
    "intervention.Schedule.__post_init__": ("esdsim.intervention", "Schedule.__post_init__"),
    "deathclock.find_end_time": ("esdsim.deathclock", "find_end_time"),
    "deathclock.find_aversion_threshold": ("esdsim.deathclock", "find_aversion_threshold"),
    "deathclock.find_ad_crossing": ("esdsim.deathclock", "find_ad_crossing"),
    "deathclock.state_at": ("esdsim.deathclock", "state_at"),
    "deathclock.trajectory": ("esdsim.deathclock", "trajectory"),
    "deathclock.sweep_switch_times": ("esdsim.deathclock", "sweep_switch_times"),
    "cli.main": ("esdsim.cli", "main"),
    "cli.cmd_evolve": ("esdsim.cli", "cmd_evolve"),
    "cli.cmd_sweep": ("esdsim.cli", "cmd_sweep"),
    "cli.cmd_critical": ("esdsim.cli", "cmd_critical"),
}

MEASURES = {
    "qstate.negativity", "qstate.negativity_xstate",
    "qstate.concurrence", "qstate.von_neumann_entropy",
}
EVOLVES = {"channel.evolve_xstate_closed", "channel.evolve_kraus"}
APPLIES = {"intervention.apply_xstate", "intervention.apply_unitary"}
COMMANDS = {"cli.cmd_evolve", "cli.cmd_sweep", "cli.cmd_critical"}

# numpy.linalg routines the qstate measures call; counted, not spanned.
EIG_ROUTINES = ("eigvalsh", "eigvals")

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
# Counts and times are per pass.
LAYER_METRICS = (
    ("qstate.eig_calls", "count"),
    ("qstate.measure_calls", "count"),
    ("qstate.measure_self_s", "s"),
    ("qstate.xstate_built", "count"),
    ("qstate.xstate_validate_s", "s"),
    ("channel.evolve_calls", "count"),
    ("channel.evolve_self_s", "s"),
    ("intervention.apply_calls", "count"),
    ("intervention.schedule_built", "count"),
    ("deathclock.end_time_calls", "count"),
    ("deathclock.end_time_self_s", "s"),
    ("deathclock.end_time_us_p50", "us"),
    ("deathclock.end_time_calls_per_point", "calls/point"),
    ("deathclock.threshold_s", "s"),
    ("deathclock.threshold_queries", "count"),
    ("deathclock.ad_crossing_s", "s"),
    ("deathclock.state_at_calls", "count"),
    ("deathclock.state_at_self_s", "s"),
    ("cli.config_s", "s"),
    ("cli.command_self_s", "s"),
    ("cli.bytes_out", "B"),
    ("trace.overhead_ratio", "ratio"),
)


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.eig_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, self.op, start, end)

        return traced

    def _count_eig(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.eig_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items()
                      if n == "esdsim" or n.startswith("esdsim.")]
        for name, (module_name, attr) in TRACED.items():
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            wrapped = self._wrap(name, original)
            if owner is sys.modules[module_name]:
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapped)
            else:
                self._patch(owner, leaf, wrapped)
        for routine in EIG_ROUTINES:
            self._patch(np.linalg, routine, self._count_eig(getattr(np.linalg, routine)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans.clear()
        self.stack.clear()
        self.eig_calls = 0


def layer_metrics(spans: list, eig_calls: int, points: int, bytes_out: int) -> dict:
    """Reduce one pass worth of spans to the per-layer metrics.

    Self time is a span's duration minus the durations of its direct child
    spans.  Spans are stored in start order, so a parent precedes its
    children and one forward sweep finds every threshold descendant.  A span
    cut short by an operation timeout is left as None and skipped.
    """
    spans = [s if s is not None else ("", -1, -1, 0.0, 0.0) for s in spans]
    n = len(spans)
    child = [0.0] * n
    in_threshold = [False] * n
    for i, (name, parent, _op, start, end) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_threshold[i] = in_threshold[parent]
        if name == "deathclock.find_aversion_threshold":
            in_threshold[i] = True

    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    end_time_us = []
    threshold_queries = 0
    for i, (name, _parent, _op, start, end) in enumerate(spans):
        duration = end - start
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration - child[i]
        incl_s[name] = incl_s.get(name, 0.0) + duration
        if name == "deathclock.find_end_time":
            end_time_us.append(duration * 1e6)
            threshold_queries += in_threshold[i]

    def total(table: dict, names):
        return sum(table.get(k, 0) for k in names)

    def seconds(table: dict, names) -> float:
        return sum((table.get(k, 0.0) for k in names), 0.0)

    end_time_calls = count.get("deathclock.find_end_time", 0)
    return {
        "qstate.eig_calls": eig_calls,
        "qstate.measure_calls": total(count, MEASURES),
        "qstate.measure_self_s": seconds(self_s, MEASURES),
        "qstate.xstate_built": count.get("qstate.XState.__post_init__", 0),
        "qstate.xstate_validate_s": self_s.get("qstate.XState.__post_init__", 0.0),
        "channel.evolve_calls": total(count, EVOLVES),
        "channel.evolve_self_s": seconds(self_s, EVOLVES),
        "intervention.apply_calls": total(count, APPLIES),
        "intervention.schedule_built": count.get("intervention.Schedule.__post_init__", 0),
        "deathclock.end_time_calls": end_time_calls,
        "deathclock.end_time_self_s": self_s.get("deathclock.find_end_time", 0.0),
        "deathclock.end_time_us_p50": statistics.median(end_time_us) if end_time_us else 0.0,
        "deathclock.end_time_calls_per_point": end_time_calls / points,
        "deathclock.threshold_s": incl_s.get("deathclock.find_aversion_threshold", 0.0),
        "deathclock.threshold_queries": threshold_queries,
        "deathclock.ad_crossing_s": incl_s.get("deathclock.find_ad_crossing", 0.0),
        "deathclock.state_at_calls": count.get("deathclock.state_at", 0),
        "deathclock.state_at_self_s": self_s.get("deathclock.state_at", 0.0),
        "cli.config_s": self_s.get("cli.main", 0.0),
        "cli.command_self_s": seconds(self_s, COMMANDS),
        "cli.bytes_out": bytes_out,
    }


def write_spans(path, spans: list) -> None:
    """Write spans as gzip-compressed JSON lines, times in microseconds."""
    t0 = spans[0][3] if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i, (name, parent, op, start, end) in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "parent": parent, "op": op, "name": name,
                "start_us": round((start - t0) * 1e6, 3),
                "end_us": round((end - t0) * 1e6, 3),
            }) + "\n")
