"""The three benchmark workloads: their inputs, operations and output checks.

A workload is a fixed list of operations; running every operation once is a
pass.  Operations look their entry points up on the ``esdsim`` modules when
they run, not at import, so that a traced pass sees the wrapped functions.

* ``evolve_dense``: ``esdsim evolve`` on the trajectory scenarios of
  ``scripts/figure_data.py`` (no switch; both qubits flipped at 0.100, 0.223,
  0.357) on 2001-point grids.  Per-point state, Kraus-free measures and CSV
  formatting; no ``find_end_time`` call at all, so it is the control for
  root-finding changes.
* ``sweep_critical``: the paper's sweep figure and critical-times table on
  the canonical state: ``sweep`` for each switch kind on a 4001-point
  switch-time grid, then ``critical`` for ``both`` and ``alice``.  Dominated
  by ``find_end_time``; never calls the matrix measures, so it is the
  control for measure vectorization.
* ``phase_map``: a library-level hasten/delay/avert map over a seeded family
  of entangled X states (inner or corner coherence, ``d > 0``), each crossed
  with a switch-time grid, the three switch kinds, and one- and two-switch
  schedules, plus the aversion threshold and ``a = d`` crossing per state.
  Non-canonical states, deaths inside finite segments and averted fates:
  the multi-segment paths the canonical sweep never takes.  No CLI work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import esdsim
import esdsim.cli
import oracle
from esdsim import BracketError, NoCrossingError, Schedule, Switch, SwitchEvent, XState
from esdsim.qstate import to_density_matrix

KINDS = (Switch.BOTH, Switch.ALICE, Switch.BOB)


@dataclass
class Op:
    """One operation; ``latency`` ops feed op_ref_ms_p50 and op_ref_ms_tail."""

    call: Callable[[], object]
    latency: bool = True


@dataclass
class Check:
    """Outcome of the oracle checks on one pass worth of outputs."""

    bad: dict[int, str] = field(default_factory=dict)
    errors: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, op: int, reason: str) -> None:
        self.bad.setdefault(op, reason)

    def error(self, group: str, value: float, limit: float, op: int) -> None:
        """Record a deviation; beyond ``limit`` the operation fails."""
        self.errors[group] = max(self.errors.get(group, 0.0), value)
        if not value <= limit:
            self.fail(op, f"{group}: error {value:.3e} above {limit:.0e}")


def cli_op(argv: list[str]) -> Op:
    def call() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = esdsim.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"esdsim {' '.join(argv)} exited with {code}")
        return buf.getvalue()

    return Op(call)


def csv_rows(text: str) -> tuple[list[list[str]], dict[str, str]]:
    """Data rows (header dropped) and the ``# key = value`` summary lines."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    summary = {}
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            summary[key] = value
    return rows, summary


def sample(rng: random.Random, population, k: int) -> list:
    return rng.sample(list(population), min(k, len(population)))


# -- evolve_dense -------------------------------------------------------------

class EvolveDense:
    name = "evolve_dense"
    # (switch time or None, grid) as in scripts/figure_data.py, grids densified;
    # the averted 0.100 run keeps its longer window.
    SCENARIOS = (
        (None, (0.0, 1.2, 2001)),
        (0.100, (0.0, 2.0, 2001)),
        (0.223, (0.0, 1.2, 2001)),
        (0.357, (0.0, 1.2, 2001)),
    )
    ROW_SAMPLE = 16
    LIMIT = 1e-9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.argvs = []
        for t_sw, (start, stop, count) in self.SCENARIOS:
            argv = ["evolve", "--grid", f"{start}:{stop}:{count}"]
            if t_sw is not None:
                argv += ["--switch", "both", "--t-sw", repr(t_sw)]
            self.argvs.append(argv)
        self.ops = [cli_op(argv) for argv in self.argvs]
        self.points = sum(grid[2] for _, grid in self.SCENARIOS)
        self.inputs = "; ".join(" ".join(argv) for argv in self.argvs)

    def check(self, outputs: list) -> Check:
        check = Check()
        rng = random.Random(f"{self.name}:{self.seed}")
        rho0 = to_density_matrix(oracle.CANONICAL)
        for i, ((t_sw, grid), text) in enumerate(zip(self.SCENARIOS, outputs)):
            if text is None:  # the operation itself failed
                continue
            rows, _ = csv_rows(text)
            taus = np.linspace(*grid).tolist()
            if len(rows) != len(taus):
                check.fail(i, "row count differs from the grid")
                continue
            events = [] if t_sw is None else [(t_sw, Switch.BOTH)]
            for k in sample(rng, range(len(taus)), self.ROW_SAMPLE):
                values = [float(v) for v in rows[k]]
                expect = oracle.matrix_row(oracle.rho_at(rho0, events, taus[k]))
                err = max(abs(v - e) for v, e in zip(values, (taus[k], *expect)))
                check.error("evolve rows vs Kraus route", err, self.LIMIT, i)
        return check


# -- sweep_critical -----------------------------------------------------------

class SweepCritical:
    name = "sweep_critical"
    GRID = (0.0, 0.53, 4001)
    BOTH_SAMPLE = (4, 12)  # (averted, finite) rows bisected on the Kraus route
    LIMIT = 1e-9
    # The end time is flat around its minimum, so a golden search driven by
    # root finds at tol 1e-10 fixes the minimizing switch time to ~1e-6 only.
    ARGMIN_LIMIT = 1e-5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        grid = "{}:{}:{}".format(*self.GRID)
        self.argvs = [["sweep", "--switch", k.value, "--grid", grid] for k in KINDS]
        self.argvs += [["critical", "--switch", "both"], ["critical", "--switch", "alice"]]
        self.ops = [cli_op(argv) for argv in self.argvs]
        self.points = len(KINDS) * self.GRID[2]
        self.inputs = "; ".join(" ".join(argv) for argv in self.argvs)

    def _features(self, check: Check, i: int, kind: str, found: dict) -> None:
        """Compare located features with the closed-form anchors."""
        anchors = {"baseline_end": oracle.BASELINE_END, "ad_crossing": oracle.AD_CROSSING}
        if kind == "both":
            anchors["aversion_threshold"] = oracle.THRESHOLD_BOTH
        elif "aversion_threshold" in found:  # a single flip never averts here
            check.fail(i, "single-flip aversion threshold reported")
        for key, value in anchors.items():
            got = found.get(key)
            err = math.inf if got is None else abs(got - value)
            check.error(f"{key} vs closed form", err, self.LIMIT, i)
        sw, end = found.get("min_tau_sw"), found.get("min_tau_end")
        if sw is None or end is None:
            check.fail(i, "minimum not located")
            return
        if kind == "both":
            true_sw, true_end = oracle.MIN_SWITCH_BOTH, oracle.MIN_END_BOTH
        else:
            true_sw = oracle.single_switch_argmin()
            true_end = oracle.single_switch_end(true_sw)
        check.error("min end time vs closed form", abs(end - true_end), self.LIMIT, i)
        check.error("argmin switch time vs closed form", abs(sw - true_sw),
                    self.ARGMIN_LIMIT, i)

    def _check_sweep(self, check: Check, i: int, kind: str, text: str, rng) -> None:
        rows, summary = csv_rows(text)
        taus = np.linspace(*self.GRID).tolist()
        if len(rows) != len(taus):
            check.fail(i, "row count differs from the grid")
            return
        fates = [int(r[1]) for r in rows]
        ends = [float(r[2]) if r[2] else None for r in rows]
        for tau_sw, row in zip(taus, rows):
            check.error("sweep tau_sw column", abs(float(row[0]) - tau_sw), self.LIMIT, i)
        if kind == "both":
            rho0 = to_density_matrix(oracle.CANONICAL)
            averted = [k for k, f in enumerate(fates) if f == 1]
            finite = [k for k, f in enumerate(fates) if f == 0]
            picks = sample(rng, averted, self.BOTH_SAMPLE[0])
            picks += sample(rng, finite, self.BOTH_SAMPLE[1])
            for k in picks:
                ok, err = oracle.check_end(
                    rho0, [(taus[k], Switch.BOTH)], fates[k], ends[k])
                if not ok:
                    check.fail(i, f"both row {k}: matrix-route sign check failed")
                check.error("both rows vs Kraus bisection", err, self.LIMIT, i)
            # Fate must flip exactly at the closed-form aversion threshold.
            for k, tau_sw in enumerate(taus):
                if abs(tau_sw - oracle.THRESHOLD_BOTH) > 1e-9 and \
                        fates[k] != (1 if tau_sw < oracle.THRESHOLD_BOTH else 0):
                    check.fail(i, f"both row {k}: fate disagrees with the closed-form threshold")
        else:
            for tau_sw, fate, end in zip(taus, fates, ends):
                err = math.inf if fate != 0 else abs(end - oracle.single_switch_end(tau_sw))
                check.error("single-flip rows vs exact curve", err, self.LIMIT, i)
        found = {key: float(summary[key]) for key in
                 ("baseline_end", "ad_crossing", "aversion_threshold") if key in summary}
        if "min_end: tau_sw" in summary:  # "# min_end: tau_sw = X, tau_end = Y"
            sw, _, end = summary["min_end: tau_sw"].partition(", tau_end = ")
            found["min_tau_sw"], found["min_tau_end"] = float(sw), float(end)
        self._features(check, i, kind, found)

    def _check_critical(self, check: Check, i: int, kind: str, text: str) -> None:
        rows, _ = csv_rows(text)
        table = {r[0]: (r[1], float(r[2]) if r[2] else None) for r in rows}
        found = {}
        for key, name in (("baseline_end", "baseline_end"),
                          ("ad_crossing", "ad_crossing"),
                          ("aversion_threshold", f"aversion_threshold_{kind}"),
                          ("min_tau_sw", f"min_end_switch_time_{kind}"),
                          ("min_tau_end", f"min_end_time_{kind}")):
            status, tau = table.get(name, ("missing", None))
            if status in ("finite", "found"):
                found[key] = tau
        self._features(check, i, kind, found)

    def check(self, outputs: list) -> Check:
        check = Check()
        rng = random.Random(f"{self.name}:{self.seed}")
        for i, (argv, text) in enumerate(zip(self.argvs, outputs)):
            if text is None:  # the operation itself failed
                continue
            if argv[0] == "sweep":
                self._check_sweep(check, i, argv[2], text, rng)
            else:
                self._check_critical(check, i, argv[2], text)
        return check


# -- phase_map ------------------------------------------------------------

def draw_entangled(rng: random.Random) -> XState | None:
    """One Dirichlet draw with a random coherence; None if not entangled."""
    e = [rng.expovariate(1.0) for _ in range(4)]
    total = sum(e)
    a, b, c = (3.0 * x / total for x in e[:3])
    d = max(3.0 - a - b - c, 0.0)
    if rng.random() < 0.5:
        z = rng.uniform(-1.0, 1.0) * math.sqrt(b * c)
        state, disc = XState(a, b, c, d, z_inner=z), a * d - z * z
    else:
        z = rng.uniform(-1.0, 1.0) * math.sqrt(a * d)
        state, disc = XState(a, b, c, d, z_corner=z), b * c - z * z
    return state if disc < 0.0 else None


def baseline_end_closed(s: XState) -> float | None:
    """Unswitched end time from the tail quadratic Q(u) = p2 u^2 + p1 u + p0.

    Used only to scale each state's switch-time grid; None when Q never
    reaches zero (death averted without any switch).
    """
    p2, p1 = s.a * s.a, -s.a * (s.b + s.c + 2.0 * s.a)
    p0 = 3.0 * s.a - s.z_inner ** 2 if s.z_corner == 0.0 else \
        (s.b + s.a) * (s.c + s.a) - s.z_corner ** 2
    if p0 <= 0.0:
        return None
    return -math.log(2.0 * p0 / (-p1 + math.sqrt(p1 * p1 - 4.0 * p2 * p0)))


class PhaseMap:
    name = "phase_map"
    # Many states with a few queries each: the median query latency depends on
    # the family's mix of deaths inside a finite segment (fast) and in the
    # open tail (slow), and that mix steadies with the number of states.
    STATES = 512
    # Switch times are fractions of the unswitched end time.  With every
    # switch before it, about a quarter of the queries die inside a finite
    # segment, which keeps the median latency inside the (dense) tail mode.
    SINGLE_TIMES = 3    # one-switch grid per state and kind
    PAIR_TIMES = 2      # two-switch schedules use every ordered pair of these
    FALLBACK_END = 1.0  # scale for states whose unswitched death is averted
    # Switch times stop at a fraction of MAX_END.  About 1 state in 20,000
    # dies later; switching one of those near its death, where the
    # discriminant is at round-off level, makes find_end_time raise
    # AssertionError (a defect noted in README.md, owned by a regression test,
    # not by this benchmark).
    MAX_END = 8.0
    QUERY_SAMPLE = (12, 12)  # (finite, averted) queries checked per run
    LIMIT = 1e-9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.states, self.rejected = [], 0
        while len(self.states) < self.STATES:
            state = draw_entangled(rng)
            if state is None:
                self.rejected += 1
            else:
                self.states.append(state)
        self.queries = []  # (state index, ((time, Switch), ...))
        self.ops = []
        for si, state in enumerate(self.states):
            end = min(baseline_end_closed(state) or self.FALLBACK_END, self.MAX_END)
            singles = [end * (k + 0.5) / self.SINGLE_TIMES for k in range(self.SINGLE_TIMES)]
            pair_grid = [end * (k + 0.5) / self.PAIR_TIMES for k in range(self.PAIR_TIMES)]
            # The threshold is searched up to the last mapped switch time.  The
            # default bracket ends at the unswitched death, where find_end_time
            # can raise AssertionError (a defect noted in README.md, owned by a
            # regression test, not by this benchmark).
            bracket = (0.0, singles[-1])
            schedules = [((t, kind),) for kind in KINDS for t in singles]
            schedules += [((t1, k1), (t2, k2))
                          for i, t1 in enumerate(pair_grid) for t2 in pair_grid[i + 1:]
                          for k1 in KINDS for k2 in KINDS]
            for events in schedules:
                self.queries.append((si, events))
                self.ops.append(Op(self._query(state, events)))
            self.ops.append(Op(self._ad_crossing(state), latency=False))
            kind = KINDS[si % len(KINDS)]
            self.ops.append(Op(self._threshold(state, kind, bracket), latency=False))
        self.points = len(self.queries)
        digest = hashlib.sha256(repr(self.states).encode()).hexdigest()[:16]
        self.inputs = (f"{self.STATES} entangled X states after {self.rejected} "
                       f"rejected draws, {self.points} queries, sha256 {digest}")

    @staticmethod
    def _query(state: XState, events) -> Callable[[], tuple]:
        def call() -> tuple:
            schedule = Schedule(tuple(SwitchEvent(t, kind) for t, kind in events))
            report = esdsim.find_end_time(state, schedule)
            return int(report.fate), report.tau_end
        return call

    @staticmethod
    def _ad_crossing(state: XState) -> Callable[[], float | None]:
        def call() -> float | None:
            try:
                return esdsim.find_ad_crossing(state)
            except NoCrossingError:
                return None
        return call

    @staticmethod
    def _threshold(state: XState, kind: Switch, bracket) -> Callable[[], float | None]:
        def call() -> float | None:
            try:
                return esdsim.find_aversion_threshold(state, kind, bracket=bracket)
            except (BracketError, NoCrossingError):
                return None
        return call

    def check(self, outputs: list) -> Check:
        check = Check()
        rng = random.Random(f"{self.name}:{self.seed}")
        query_out = [out for op, out in zip(self.ops, outputs) if op.latency]
        query_idx = [i for i, op in enumerate(self.ops) if op.latency]
        by_fate = {0: [], 1: []}
        for q, out in enumerate(query_out):
            if out is None:  # the operation itself failed
                continue
            fate = out[0]
            if fate in by_fate:
                by_fate[fate].append(q)
            else:  # every state is entangled at tau = 0
                check.fail(query_idx[q], f"query {q}: fate {fate} from an entangled start")
        picks = sample(rng, by_fate[0], self.QUERY_SAMPLE[0])
        picks += sample(rng, by_fate[1], self.QUERY_SAMPLE[1])
        for q in picks:
            si, events = self.queries[q]
            fate, tau_end = query_out[q]
            rho0 = to_density_matrix(self.states[si])
            ok, err = oracle.check_end(rho0, list(events), fate, tau_end)
            if not ok:
                check.fail(query_idx[q], f"query {q}: matrix-route fate or sign check failed")
            check.error("sampled queries vs Kraus bisection", err, self.LIMIT, query_idx[q])

        per_state = [(i, out) for i, (op, out) in enumerate(zip(self.ops, outputs))
                     if not op.latency]
        thresholds = {"found": 0, "undefined": 0}
        crossings = {"found": 0, "undefined": 0}
        for n, (i, out) in enumerate(per_state):
            si, slot = divmod(n, 2)
            if slot == 0:
                expect = oracle.ad_crossing_closed(self.states[si])
                crossings["undefined" if out is None else "found"] += 1
                if (out is None) != (expect is None):
                    check.fail(i, "a = d crossing found by only one of library and closed form")
                elif out is not None:
                    check.error("ad crossing vs closed form", abs(out - expect), self.LIMIT, i)
            else:
                thresholds["undefined" if out is None else "found"] += 1
        averted_baseline = sum(baseline_end_closed(s) is None for s in self.states)
        inside = sum(query_out[q][1] < self.queries[q][1][-1][0] for q in by_fate[0])
        check.notes += [
            f"fate mix: FINITE_END {len(by_fate[0])} ({inside} inside a finite segment), "
            f"AVERTED {len(by_fate[1])} of {len(query_out)} queries",
            f"thresholds (one switch kind per state, in turn): found {thresholds['found']}, "
            f"undefined {thresholds['undefined']}",
            f"a = d crossings: found {crossings['found']}, undefined {crossings['undefined']}",
            f"states with averted unswitched death: {averted_baseline} of {len(self.states)}",
        ]
        return check


WORKLOADS = {w.name: w for w in (EvolveDense, SweepCritical, PhaseMap)}
