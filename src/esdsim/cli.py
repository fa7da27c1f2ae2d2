"""Command-line front end.

One command word and the same seven flags, which may come before it or
after it; each command writes deterministic CSV (12 significant digits):

* ``evolve``   -- coefficient and measure trajectory on a time grid
* ``sweep``    -- end time as a function of switch time, plus located features
* ``critical`` -- the critical times of a scenario in one small table

A scenario lives in a JSON config (see ``ScenarioConfig``); every flag
overrides its config field, merged into the JSON object before one check per
field, which names the field it rejects.  A bool is not a number there, and
``schedule`` must be a list.  The six coefficients are also checked as one
state (``config state: ...`` and ``XState``'s message, which names what
fails: a sum or a square past float range reads as inf, and two active
coherences name both fields), a grid the sweep refuses, one that reaches
the unswitched end time, names ``grid``, a nonzero time subnormal in tau
names its field, and a subnormal ``gamma``, or one so small that a
``critical`` time overflows as tau / gamma, names ``gamma``: once the flags
parse, every error on the config's values starts with ``config``, and an
``--out`` file that cannot be opened reads ``out file``.  Times in the
config and flags are dimensionless (tau = gamma * t) unless ``time_unit`` is
``"physical"``; output time columns named ``tau`` are always dimensionless,
and ``critical`` also reports physical times t = tau / gamma.

Every float cell reads as ``"%.11e" % x`` would write it, byte for byte.
``evolve`` and ``sweep`` write each sub-block of ``CSV_CELLS`` cells as it is
encoded on arrays (``_csv_chunks``): a record of exact-width slots filled from
digit tables, null-padded only in a column whose cells may differ in width.
``evolve`` computes its trajectory in blocks of ``CSV_BLOCK`` rows; ``critical``
takes the grid ``sweep`` takes, and ``sweep``'s ``#`` lines use the same format.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .deathclock import (
    BLOCK_ROWS as CSV_BLOCK,
    Fate,
    NoCrossingError,
    Trajectory,
    _sweep_switch_times,
    find_ad_crossing,
    find_end_time,
    trajectory,
)
from .intervention import Schedule, Switch, SwitchEvent
from .qstate import XState

_KINDS = tuple(kind.value for kind in Switch)
_SWITCH_CHOICES = (*_KINDS, "none")
_ONE_OF_KINDS = f"{', '.join(map(repr, _KINDS[:-1]))} or {_KINDS[-1]!r}"
_COMMANDS = ("evolve", "sweep", "critical")  # main runs cmd_<name>, looked up per call

# An evolve grid holds ten float columns (80 bytes) per point, so a mistyped
# count must not reach the allocation unbounded.
MAX_GRID_COUNT = 10_000_000

# Cells per encoder sub-block (whole rows, at least one): at most 84 KiB of slots and
# 32 KiB per temporary, below the 128 KiB from which malloc maps in fresh pages.
CSV_CELLS = 1 << 12

_FLOAT = "%.11e"

# What a grid or switch time below 2**-1022 in tau (subnormal there) is told.
_SUBNORMAL_TAU = (f"too small: a nonzero time below {sys.float_info.min!r} in tau is "
                  f"subnormal and keeps few digits")


def _table(*codes):
    """Fixed-width byte strings, one per entry of the broadcast arrays of byte codes."""
    text = np.stack(np.broadcast_arrays(*codes), axis=-1).astype(np.uint8)
    return text.view(f"S{text.shape[-1]}")[..., 0]


# The fields of "%.11e" after the sign, from the 12-digit mantissa m and exponent e:
# "d.dd" (at m // 10**9), "dddd" twice, "d" (at m % 10), "e±XX" and the last digit
# of a three-digit exponent (both at e itself, -324..309, and at 310 for a zero).
# The one-digit table also writes the integer cells, each a fate digit.
_E = np.r_[:311, -324:0]
_DIGITS = ord("0") + np.indices((10,) * 4, np.uint8).reshape(4, -1)  # of 0 .. 9999, by place
_HEAD = _table(_DIGITS[1, :1000], ord("."), *_DIGITS[2:, :1000])
_QUAD = _table(*_DIGITS)
_DIGIT = _table(_DIGITS[3, :10])
_AE = np.abs(_E)
_EXP = _table(ord("e"), np.where(_E < 0, ord("-"), ord("+")),
              *_DIGITS[2:, np.where(_AE < 100, _AE, _AE // 10)])
_THIRD = _table(np.where(_AE < 100, 0, _DIGITS[3, _AE]))
_EXP[310], _THIRD[310] = b"e+00", b""
# At e: 10**(11 - e) correctly rounded, for e in [-297, 308], where it is a normal
# double.  At the biased binary exponent b of |x|: the e with 10**e <= 2**(b - 1023)
# < 10**(e + 1), and 10**(e + 1), from which on |x| has exponent e + 1; b = 0 (a zero,
# or a subnormal) gets 310.
_SCALE = np.array([10**max(11 - e, 0) / 10**max(e - 11, 0) if -297 <= e <= 308 else math.nan
                   for e in _E.tolist()])
_E_OF_B = np.floor((np.arange(2048) - 1023) * np.log10(2.0)).astype(np.intp)
_E_OF_B[0] = 310
_TEN_UP = 10.0 ** np.minimum(_E_OF_B + 1, 308)


def _compact(text: np.ndarray) -> str:
    """A padded sub-block's text: its bytes without the null bytes."""
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _mantissa(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m = rint(y), 0 for NaN, and where it is the correctly rounded 12-digit mantissa."""
    m = np.fmax(np.rint(y), 0.0)
    return m, (y >= 1e11) & (y <= 1e12) & (np.abs(y - m) <= 0.5 - 2.0**-11)


def _runs(slots: list, offsets: list) -> Iterator[tuple[int, int, int]]:
    """(first, count, step) of each run of equal slots at evenly spaced offsets."""
    first = 0
    for k in range(1, len(slots) + 1):
        step = offsets[first + 1] - offsets[first] if k > first + 1 else None
        if k < len(slots) and slots[k] == slots[first] and step in (
                None, offsets[k] - offsets[k - 1]):
            continue
        yield first, k - first, step or 1
        first = k


def _csv_chunks(columns: Sequence[np.ndarray]) -> Iterator[str]:
    """Rows of equal-length columns as CSV lines, one sub-block at a time.

    A float column reads as ``"%.11e" % x`` would write each entry, byte for
    byte, except that NaN is written as a blank cell; an integer column
    holds one-digit values 0 to 9, each written as its digit (the sweep's
    fates, 0, 1 or 2, are the only integers any command writes).  A sub-block
    of at most ``CSV_CELLS`` cells is one record in a reused buffer, a slot
    per cell, each ending in the separator and exactly as wide as its
    column's text: 17 bytes for a float, 18 in a column of negative cells, 1
    for a digit.  Such a record is the text.  A float column that holds NaN,
    inf, both signs or e outside [-98, 98] gets 20-byte slots instead, whose
    null bytes in shorter cells ``_compact`` drops.
    Float columns with equal slots at evenly spaced offsets, such as a
    sweep's two float columns around its fates, are filled as one run; the
    NaN fill and the ``%`` fallback run only in a sub-block that needs them.

    A finite, nonzero x = m * 10**(e - 11) is written from the tables with
    its exponent e and 12-digit mantissa m = rint(y), y = |x| * 10**(11 - e)
    in [1e11, 1e12], split by int64 floor division.  For e in [-297, 308]
    the power is within a relative 2**-53 of its value and the product
    rounds once more, so y is within 1e12 * (2**-52 + 2**-106) < 2**-12 of
    the exact value, and m is the correctly rounded mantissa unless y lies
    within 2**-11 of a half-way point.  Those cells, the cells below 1e-297
    (subnormals included; ``_SCALE`` is NaN there) and inf are written by ``%``.
    """
    width, size = len(columns), len(columns[0])
    floats = [j for j, col in enumerate(columns) if col.dtype.kind == "f"]
    ints = [j for j in range(width) if j not in floats]
    rows = max(1, CSV_CELLS // width)
    buf = np.empty(min(rows, size) * width * 20, np.uint8)  # a padded slot is 20 bytes
    seps = np.where(np.arange(width) < width - 1, ord(","), ord("\n"))
    float_seps = seps[floats]
    for start in range(0, size, rows):
        block = [col[start:start + rows] for col in columns]
        n_rows = len(block[0])
        x = np.array([block[j] for j in floats], float).reshape(-1, n_rows).T.copy()
        ax = np.abs(x)
        b = ax.view(np.int64) >> 52
        e = _E_OF_B.take(b) + (ax >= _TEN_UP.take(b))
        m, fast = _mantissa(ax * _SCALE.take(e))  # not fast for 0, NaN, inf and e < -297
        neg, nan, zero = np.signbit(x), x != x, x == 0.0
        slow = ~(fast | zero | nan)
        wide = (np.abs(e) > 98) & ~zero  # NaN, inf and subnormals too
        # any(0), across the rows, costs about a tenth of a sweep's encoding.
        padded = wide.any(0) if wide.any() else np.zeros(len(floats), bool)
        if neg.any():
            padded |= neg.any(0) != neg.all(0)
        carry = m == 1e12  # 9.999999999995 is 1.00000000000e+01
        if carry.any():
            m[carry], e[carry] = 1e11, e[carry] + 1
        m = m.astype(np.int64)
        hi = m // 100_000
        lead, lo = hi // 10_000, m - 100_000 * hi
        quad = lo // 10
        fields = ((_HEAD, lead), (_QUAD, hi - 10_000 * lead), (_QUAD, quad),
                  (_DIGIT, lo - 10 * quad), (_EXP, e), (_THIRD, e))
        # Per column: slot width and padded; an integer's slot is its digit and separator.
        slots = [(2, False)] * width
        for j, pad, first_neg in zip(floats, padded.tolist(), neg[0].tolist()):
            slots[j] = (18 + pad + (pad | first_neg), pad)
        offsets = [0, *itertools.accumulate(slot[0] for slot in slots)]
        record = buf[:n_rows * offsets[-1]].reshape(n_rows, -1)
        for j in ints:
            record[:, offsets[j]] = _DIGIT.take(block[j]).view(np.uint8)
            record[:, offsets[j] + 1] = seps[j]
        has_nan, has_slow = nan.any(), slow.any()
        for f, n, step in _runs([slots[j] for j in floats], [offsets[j] for j in floats]):
            (w, pad), cols = slots[floats[f]], slice(f, f + n)
            cell = np.ndarray((n_rows, n, w), np.uint8, record, offsets[floats[f]],
                              (offsets[-1], step, 1))
            cells = cell[..., :-1].view(f"S{w - 1}")[..., 0]  # the text before the separator
            cell[..., -1] = float_seps[cols]
            sign = w - 18 - pad  # a sign byte, and if padded a third exponent digit
            if sign:
                cell[..., 0] = np.where(neg[:, cols], ord("-"), 0)
            at_k = (sign, sign + 4, sign + 8, sign + 12, w - 5 - pad, w - 2)[:5 + pad]
            for k, (table, index) in zip(at_k, fields):
                field = cell[..., k:k + table.itemsize].view(table.dtype)[..., 0]
                field[...] = table.take(index[:, cols], mode="wrap")
            if has_nan:
                cells[nan[:, cols]] = b""
            if has_slow:
                r, c = np.divmod(np.flatnonzero(slow[:, cols]), n)
                cells[r, c] = [_FLOAT % v for v in x[r, c + f].tolist()]
        yield _compact(record) if any(s[1] for s in slots) else str(memoryview(record), "ascii")


def _require(name: str, ok: bool, rule: str, value: object = None) -> None:
    """Unless ``ok``, raise ``config field '<name>': <rule>[, got <value>]``."""
    if not ok:
        got = "" if value is None else f", got {value!r}"
        raise ValueError(f"config field '{name}': {rule}{got}")


def _is_number(x: object) -> bool:
    """An int or float that is finite as a float; a bool is not a number here."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


@dataclass
class GridSpec:
    """Evenly spaced grid; ``count`` points from ``start`` to ``stop``."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        _require("grid.start", _is_number(self.start) and self.start >= 0.0,
                 "must be finite and >= 0", self.start)
        _require("grid.stop", _is_number(self.stop) and self.stop >= self.start,
                 "must be >= grid.start", self.stop)
        _require("grid.count", type(self.count) is int and 1 <= self.count <= MAX_GRID_COUNT,
                 f"must be an integer in [1, {MAX_GRID_COUNT}]", self.count)
        _require("grid.stop", self.count == 1 or self.stop > self.start,
                 "must exceed grid.start for count > 1", self.stop)

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class ScenarioConfig:
    """One scenario: initial X state, decay rate, switches and grid.

    ``switch`` + ``t_sw`` describe the common single-switch case; an explicit
    ``schedule`` (list of ``{"time": ..., "switch": ...}``) covers multi-switch
    runs and excludes the single-switch fields.  ``grid`` defaults per
    command (evolve: 121 points on [0, 1.2]; sweep: 400 switch times below
    the unswitched end time).  Each field is checked once, on construction.
    """

    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    d: float = 0.0
    z_inner: float = 1.0
    z_corner: float = 0.0
    gamma: float = 1.0
    time_unit: str = "tau"
    switch: str = "none"
    t_sw: float | None = None
    schedule: list[dict] = field(default_factory=list)
    grid: GridSpec | None = None

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d", "z_inner", "z_corner", "gamma"):
            value = getattr(self, name)
            _require(name, _is_number(value), "must be a finite number", value)
        _require("gamma", self.gamma > 0.0, "must be positive", self.gamma)
        _require("gamma", self.gamma >= sys.float_info.min, "too small: a subnormal gamma "
                 "keeps few digits, and tau / gamma soon overflows", self.gamma)
        try:
            self.initial_state()
        except ValueError as exc:
            raise ValueError(f"config state: {exc}") from exc
        _require("time_unit", self.time_unit in ("tau", "physical"),
                 "must be 'tau' or 'physical'", self.time_unit)
        _require("switch", self.switch in _SWITCH_CHOICES,
                 f"must be one of {_SWITCH_CHOICES}", self.switch)
        if self.t_sw is not None:
            _require("t_sw", _is_number(self.t_sw) and self.t_sw >= 0.0,
                     "must be a finite number >= 0", self.t_sw)
            _require("t_sw", self.switch != "none", "set without a 'switch' kind")
        _require("schedule", isinstance(self.schedule, list),
                 "must be a list of {'time', 'switch'}", self.schedule)
        _require("schedule", not self.schedule or self.switch == "none",
                 "excludes 'switch'; use one or the other")
        for i, entry in enumerate(self.schedule):
            _require(f"schedule[{i}]", isinstance(entry, dict)
                     and set(entry) == {"time", "switch"}, "must be {'time', 'switch'}")
            _require(f"schedule[{i}].switch", entry["switch"] in _KINDS,
                     f"must be {_ONE_OF_KINDS}", entry["switch"])
            _require(f"schedule[{i}].time", _is_number(entry["time"])
                     and entry["time"] >= 0.0, "must be finite and >= 0", entry["time"])
        _require("grid", self.grid is None or isinstance(self.grid, GridSpec),
                 "must be a GridSpec or None", self.grid)

    # -- conversions ------------------------------------------------------

    def initial_state(self) -> XState:
        return XState(self.a, self.b, self.c, self.d, self.z_inner, self.z_corner)

    def to_tau(self, t):
        return t * self.gamma if self.time_unit == "physical" else t

    def resolved_schedule(self) -> Schedule:
        """The switches in tau; times that overflow, collapse or turn subnormal
        there name their field."""
        if self.switch != "none":
            _require("t_sw", self.t_sw is not None, "required when 'switch' is set")
            name, entries = "t_sw", [(self.t_sw, self.switch)]
        else:
            name, entries = "schedule", [(e["time"], e["switch"]) for e in self.schedule]
        entries = [(self.to_tau(t), kind) for t, kind in entries]
        for tau, _ in entries:
            _require(name, not 0.0 < tau < sys.float_info.min, _SUBNORMAL_TAU, tau)
        try:
            return Schedule(tuple(SwitchEvent(tau, Switch(kind)) for tau, kind in entries))
        except ValueError as exc:
            raise ValueError(f"config field '{name}': {exc}") from exc


_CONFIG_FIELDS = frozenset(f.name for f in fields(ScenarioConfig))


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    for key in data:
        _require(key, key in _CONFIG_FIELDS, "unknown field")
    grid = data.get("grid")
    if grid is not None:
        _require("grid", isinstance(grid, dict) and set(grid) == {"start", "stop", "count"},
                 "must be {'start', 'stop', 'count'}")
        data = {**data, "grid": GridSpec(**grid)}
    return ScenarioConfig(**data)


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    """The ``--config`` file's fields with the flags merged in, then checked once."""
    data = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"config file {args.config!r}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # also an int of more digits than Python converts
            raise ValueError(f"config file {args.config!r}: invalid JSON ({exc})") from exc
    flags = {name: getattr(args, name) for name in ("switch", "t_sw", "gamma", "grid")
             if getattr(args, name) is not None}
    if args.switch is not None:  # a switch kind replaces the schedule
        flags["schedule"] = []
        if args.switch == "none":
            flags.setdefault("t_sw", None)
    # A file that holds no JSON object takes no flags; config_from_dict rejects it.
    return config_from_dict({**data, **flags} if isinstance(data, dict) else data)


def _parse_grid(text: str) -> dict:
    """``START:STOP:COUNT`` as the config's ``grid`` object."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must look like START:STOP:COUNT, got {text!r}"
        )
    try:
        return {"start": float(parts[0]), "stop": float(parts[1]), "count": int(parts[2])}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write text chunks, in order, to ``out_path`` or to stdout."""
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            fh = open(out_path, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ValueError(f"out file {out_path!r}: {exc.strerror or exc}") from exc
        with fh:
            fh.writelines(chunks)


# -- commands -------------------------------------------------------------


def _grid_taus(cfg: ScenarioConfig, sweep: bool) -> np.ndarray | None:
    """The config's grid in tau, checked whole; None for the sweep's default grid.

    Rows go out block by block, so a grid that collapses or overflows in tau
    fails here, before any row is written.  A sweep needs two points at least.
    """
    if cfg.grid is None and sweep:
        return None
    grid = cfg.grid if cfg.grid is not None else GridSpec(0.0, 1.2, 121)
    _require("grid.count", not sweep or grid.count >= 2, "sweeps need >= 2 points", grid.count)
    with np.errstate(over="ignore"):  # a grid that overflows in tau fails below
        taus = cfg.to_tau(grid.points())
    _require("grid", math.isfinite(taus[-1]) and np.all(taus[1:] > taus[:-1]),
             "times must be finite and strictly increasing in tau")
    low = taus[1] if taus[0] == 0.0 and taus.size > 1 else taus[0]  # the least nonzero
    _require("grid", not 0.0 < low < sys.float_info.min, _SUBNORMAL_TAU, low.item())
    return taus


def cmd_evolve(cfg: ScenarioConfig, out_path: str | None) -> int:
    taus = _grid_taus(cfg, sweep=False)
    state, schedule = cfg.initial_state(), cfg.resolved_schedule()
    names = [f.name for f in fields(Trajectory)]

    def block(start: int) -> Iterator[str]:
        traj = trajectory(state, schedule, taus[start:start + CSV_BLOCK])
        return _csv_chunks([getattr(traj, name) for name in names])

    header = ",".join(names) + "\n"
    first = block(0)  # a state the measures reject fails before any output
    rest = (text for i in range(CSV_BLOCK, taus.size, CSV_BLOCK) for text in block(i))
    _emit(itertools.chain([header], first, rest), out_path)
    return 0


@contextlib.contextmanager
def _sweep_grid():
    """Names the config's grid in what a sweep refuses.

    The config holds a valid one-slot state and a finite, increasing grid by
    now, so what the sweep still refuses is the grid: one that reaches the
    unswitched end time, or none for a state that never dies unswitched.
    """
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"config field 'grid': {exc}") from exc


def cmd_sweep(cfg: ScenarioConfig, out_path: str | None) -> int:
    _require("switch", cfg.switch != "none", f"sweep needs {_ONE_OF_KINDS}")
    state = cfg.initial_state()
    kind = Switch(cfg.switch)
    taus = _grid_taus(cfg, sweep=True)
    with _sweep_grid():  # the grid is checked, and the baseline found, once
        curve = _sweep_switch_times(state, kind, taus, find_end_time(state))
    lines = []
    for name in ("baseline_end", "ad_crossing", "aversion_threshold"):
        if (tau := getattr(curve, name)) is not None:
            lines.append(f"# {name} = {_FLOAT % tau}")
    if curve.min_tau_sw is not None:
        lines.append(
            f"# min_end: tau_sw = {_FLOAT % curve.min_tau_sw}, "
            f"tau_end = {_FLOAT % curve.min_tau_end}"
        )
    names = ("tau_sw", "fate", "tau_end")  # tau_end is NaN, and blank, unless death is finite
    rows = _csv_chunks([getattr(curve, name) for name in names])
    summary = [line + "\n" for line in lines]
    _emit(itertools.chain([",".join(names) + "\n"], rows, summary), out_path)
    return 0


def cmd_critical(cfg: ScenarioConfig, out_path: str | None) -> int:
    state = cfg.initial_state()
    kind = Switch(cfg.switch) if cfg.switch != "none" else Switch.BOTH
    taus = _grid_taus(cfg, sweep=True)
    baseline = find_end_time(state)
    if baseline.fate is Fate.FINITE_END:
        with _sweep_grid():  # the grid is checked, and the baseline found, once
            curve = _sweep_switch_times(state, kind, taus, baseline)
        values = (curve.baseline_end, curve.ad_crossing, curve.aversion_threshold,
                  curve.min_tau_sw, curve.min_tau_end)
    else:
        # The threshold search brackets with the unswitched end time, so
        # without one it is undefined, as is the sweep's minimum.
        crossing = None
        with contextlib.suppress(NoCrossingError):
            crossing = find_ad_crossing(state)
        values = (None, crossing, None, None, None)
    names = ("baseline_end", "ad_crossing", f"aversion_threshold_{kind.value}",
             f"min_end_switch_time_{kind.value}", f"min_end_time_{kind.value}")
    fate = {Fate.FINITE_END: "finite", Fate.AVERTED: "averted",
            Fate.NEVER_ENTANGLED: "never_entangled"}[baseline.fate]
    lines = ["quantity,status,tau,time"]
    for name, tau in zip(names, values):
        status = fate if name == "baseline_end" else "undefined" if tau is None else "found"
        cells = ",,"
        if tau is not None:
            time = tau / cfg.gamma
            _require("gamma", math.isfinite(time),
                     f"too small: {name} in physical time, tau / gamma, overflows", cfg.gamma)
            cells = f",{_FLOAT % tau},{_FLOAT % time}"
        lines.append(f"{name},{status}{cells}")
    _emit(["\n".join(lines) + "\n"], out_path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="esdsim",
        description="Two decaying qubits: negativity trajectories, switch "
        "sweeps and critical times of entanglement sudden death.",
    )
    parser.add_argument("command", choices=_COMMANDS,
                        help="evolve: trajectory of coefficients and measures on a time "
                        "grid; sweep: end time versus switch time for one switch kind; "
                        "critical: critical times of the scenario in one table")
    parser.add_argument("--config", metavar="PATH", help="JSON scenario config")
    parser.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    parser.add_argument("--switch", choices=_SWITCH_CHOICES, help="override the switch kind")
    parser.add_argument("--t-sw", dest="t_sw", type=float, metavar="FLOAT",
                        help="override the switch time")
    parser.add_argument("--grid", type=_parse_grid, metavar="START:STOP:COUNT",
                        help="override the grid")
    parser.add_argument("--gamma", type=float, metavar="FLOAT", help="override the decay rate")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.dump_config:
            _emit([json.dumps(asdict(cfg), indent=2) + "\n"], args.out)
            return 0
        return globals()[f"cmd_{args.command}"](cfg, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
