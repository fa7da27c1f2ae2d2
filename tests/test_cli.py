import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import esdsim.cli
from esdsim import (
    Fate,
    NoCrossingError,
    Switch,
    end_times,
    find_ad_crossing,
    find_end_time,
    sweep_switch_times,
)
from esdsim.cli import GridSpec, ScenarioConfig, _csv_chunks, config_from_dict


SRC = str(Path(__file__).resolve().parents[1] / "src")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_cli(*args, expect_code=0):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    result = subprocess.run(
        [sys.executable, "-m", "esdsim", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == expect_code, result.stderr
    return result


# -- config handling ---------------------------------------------------------

def test_config_defaults_round_trip():
    cfg = ScenarioConfig()
    assert config_from_dict(asdict(cfg)) == cfg


def test_config_round_trip_with_grid_and_schedule():
    cfg = ScenarioConfig(
        schedule=[{"time": 0.1, "switch": "both"}, {"time": 0.4, "switch": "alice"}],
        grid=GridSpec(0.0, 1.0, 11),
        gamma=2.0,
        time_unit="physical",
    )
    assert config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


def test_config_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"decay": 1.0})


@pytest.mark.parametrize(
    "data,field",
    [
        ({"gamma": 0.0}, "gamma"),
        ({"tol": 1e-10}, "tol"),  # no longer a field: old configs are rejected
        ({"time_unit": "seconds"}, "time_unit"),
        ({"switch": "charlie"}, "switch"),
        ({"t_sw": 0.1}, "t_sw"),
        ({"switch": "both", "t_sw": -0.2}, "t_sw"),
        ({"grid": {"start": 0.0, "stop": 1.0}}, "grid"),
        ({"grid": {"start": 1.0, "stop": 0.5, "count": 3}}, "grid.stop"),
        ({"grid": {"start": 0.0, "stop": 1.0, "count": 0}}, "grid.count"),
        ({"schedule": [{"time": 0.1}]}, "schedule"),
        ({"schedule": [{"time": -1.0, "switch": "both"}]}, "schedule"),
        ({"grid": {"start": 0.0, "stop": 1.0, "count": 10_000_001}}, "grid.count"),
        # A bool is not a number, and a schedule is a list.
        ({"a": True}, "a"),
        ({"gamma": 10**400}, "gamma"),  # an int that no float holds
        ({"switch": "both", "t_sw": True}, "t_sw"),
        ({"schedule": 5}, "schedule"),
        ({"schedule": None}, "schedule"),
        ({"schedule": [{"time": True, "switch": "both"}]}, "schedule[0].time"),
        ({"grid": {"start": "0", "stop": 1, "count": 3}}, "grid.start"),
        ({"grid": {"start": 0, "stop": 1, "count": True}}, "grid.count"),
    ],
)
def test_config_rejects_bad_fields(data, field):
    with pytest.raises(ValueError, match=f"^config field '{re.escape(field)}"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data", [{"schedule": None}, {"grid": {"start": "0", "stop": 1, "count": 3}}]
)
def test_bad_field_types_exit_with_an_error(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    result = run_cli("sweep", "--config", str(path), expect_code=2)
    assert result.stderr.startswith("error: config field")
    assert "Traceback" not in result.stderr and result.stdout == ""


@pytest.mark.parametrize("data,message", [
    # The state check squares a coherence as z * z: past float range, inf.
    ({"z_inner": 1e300}, "XState positivity violated: z_inner^2 = inf exceeds b*c = 1.0"),
    ({"z_inner": 0, "z_corner": 1e300},
     "XState positivity violated: z_corner^2 = inf exceeds a*d = 0.0"),
    # 309-digit ints, each a float, whose sum is inf.
    ({"a": 10**308, "b": 10**308}, "XState occupations must sum to 3, got inf"),
    ({"a": 0.75, "b": 0.75, "c": 0.75, "d": 0.75, "z_inner": 0.3, "z_corner": 0.3},
     "XState needs at most one active coherence slot, got z_inner = 0.3 and z_corner = 0.3"),
], ids=["z_inner", "z_corner", "occupation_sum", "two_slots"])
def test_a_state_the_checks_refuse_reports_xstates_message(tmp_path, capsys, data, message):
    # XState names what fails, in the library and on the command line.
    message = f"config state: {message}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert esdsim.cli.main(["evolve", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_measures_a_state_with_an_occupation_below_zero(tmp_path, capsys):
    # The state check takes occupations down to -1e-12, so a*d may sit a
    # round-off below 0; the concurrence reads its root as 0, not NaN, and
    # at tau = 0 is (2/3) z_inner = 1/3.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        {"a": -1e-13, "b": 1, "c": 1, "d": 1.0000000000001, "z_inner": 0.5}))
    assert esdsim.cli.main(["evolve", "--config", str(path), "--grid", "0:1:3"]) == 0
    out, err = capsys.readouterr()
    header, *rows = out.splitlines()
    assert (len(rows), err) == (3, "")
    assert "nan" not in out
    first = dict(zip(header.split(","), rows[0].split(",")))
    assert first["concurrence"] == "%.11e" % (1.0 / 3.0)


def test_config_grid_must_be_a_grid_spec():
    # Built in Python, a config takes no dict for its grid; config_from_dict
    # is what turns the JSON object into a GridSpec.
    with pytest.raises(ValueError, match="^config field 'grid': must be a GridSpec"):
        ScenarioConfig(grid={"start": 0.0, "stop": 1.0, "count": 3})


def test_config_file_json_errors_name_the_file(tmp_path):
    # json.load raises a plain ValueError, not a JSONDecodeError, for an
    # integer of more digits than Python converts.
    path = tmp_path / "big.json"
    path.write_text('{"a": ' + "1" * 5000 + "}")
    result = run_cli("evolve", "--config", str(path), expect_code=2)
    assert result.stderr.startswith(f"error: config file {str(path)!r}: invalid JSON (")
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_flags_merge_into_the_config_before_the_check(tmp_path):
    # --switch replaces a schedule, so the file's bad schedule never counts.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schedule": 5, "gamma": 2.0}))
    data = json.loads(run_cli("sweep", "--config", str(path), "--switch", "alice",
                              "--grid", "0:0.2:3", "--dump-config").stdout)
    assert data["schedule"] == [] and data["switch"] == "alice" and data["gamma"] == 2.0
    assert data["grid"] == {"start": 0.0, "stop": 0.2, "count": 3}


def test_times_that_fail_in_tau_name_their_field(capsys):
    repeated = ScenarioConfig(
        schedule=[{"time": 0.1, "switch": "both"}, {"time": 0.1, "switch": "alice"}]
    )
    with pytest.raises(ValueError, match="^config field 'schedule': "):
        repeated.resolved_schedule()
    # The grid is finite in physical time and overflows once scaled to tau.
    overflow = ScenarioConfig(gamma=1e308, time_unit="physical", switch="alice",
                              grid=GridSpec(0.0, 1e10, 3))
    for command in (esdsim.cli.cmd_sweep, esdsim.cli.cmd_critical):
        with pytest.raises(ValueError, match="^config field 'grid': "):
            command(overflow, None)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("config, grid, message", [
    ({"switch": "both"}, "0:1:1", "config field 'grid.count': sweeps need >= 2 points, got 1"),
    ({"switch": "alice", "gamma": 1e308, "time_unit": "physical"}, "0:1e10:3",
     "config field 'grid': times must be finite and strictly increasing in tau"),
], ids=["one_point", "overflow_in_tau"])
def test_sweep_and_critical_name_a_bad_grid_once(tmp_path, capsys, config, grid, message):
    # A grid too short for a sweep, or one that overflows in tau: both
    # commands print the same line, with one prefix.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    for command in ("sweep", "critical"):
        assert esdsim.cli.main([command, "--config", str(path), "--grid", grid]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n"), command


def test_dump_config_round_trips(tmp_path):
    out = run_cli("evolve", "--switch", "both", "--t-sw", "0.223", "--dump-config")
    data = json.loads(out.stdout)
    cfg = config_from_dict(data)
    assert cfg.switch == "both"
    assert cfg.t_sw == 0.223
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    again = run_cli("evolve", "--config", str(path), "--dump-config")
    assert json.loads(again.stdout) == data


def test_flags_may_come_before_the_command(capsys):
    # One parser: the command word is a positional among the flags.
    flags = ["--switch", "alice", "--grid", "0:0.53:41"]
    assert esdsim.cli.main(["sweep", *flags]) == 0
    after = capsys.readouterr()
    assert esdsim.cli.main([*flags, "sweep"]) == 0
    assert capsys.readouterr() == after and after.out.startswith("tau_sw,fate,tau_end\n")


@pytest.mark.parametrize("command", ["evolve", "sweep", "critical"])
def test_every_command_takes_dump_config(capsys, command):
    assert esdsim.cli.main([command, "--gamma", "2.0", "--dump-config"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == {**asdict(ScenarioConfig()), "gamma": 2.0}


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--switch", "both"], "the following arguments are required: command"),
    (["phase-map"], "argument command: invalid choice: 'phase-map'"),
], ids=["none", "flags_only", "unknown"])
def test_a_missing_or_unknown_command_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        esdsim.cli.main(argv)
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    assert err.startswith("usage: esdsim ") and f"esdsim: error: {message}" in err


# -- evolve -------------------------------------------------------------------

def test_evolve_default_header_and_shape():
    out = run_cli("evolve")
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "tau,a,b,c,d,z_inner,z_corner,negativity,concurrence,entropy"
    assert len(lines) == 1 + 121


def test_evolve_single_point_echoes_initial_measures():
    out = run_cli("evolve", "--grid", "0:0:1")
    row = out.stdout.strip().split("\n")[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[7]) == pytest.approx((math.sqrt(5.0) - 1.0) / 6.0, abs=1e-11)
    assert float(row[8]) == pytest.approx(2.0 / 3.0, abs=1e-11)
    assert float(row[9]) == pytest.approx(
        math.log(3.0) - math.log(4.0) / 3.0, abs=1e-11
    )


def test_evolve_is_deterministic(tmp_path):
    first = run_cli("evolve", "--switch", "both", "--t-sw", "0.223")
    second = run_cli("evolve", "--switch", "both", "--t-sw", "0.223")
    assert first.stdout == second.stdout
    path = tmp_path / "rows.csv"
    run_cli("evolve", "--switch", "both", "--t-sw", "0.223", "--out", str(path))
    assert path.read_text() == first.stdout


def test_evolve_negativity_drops_to_zero_after_death():
    out = run_cli("evolve", "--grid", "0.6:1.0:5")
    for line in out.stdout.strip().split("\n")[1:]:
        assert float(line.split(",")[7]) == 0.0


def test_evolve_streams_blocks_byte_for_byte(monkeypatch, capsys):
    runs = (
        (["evolve", "--switch", "alice", "--t-sw", "0.2", "--grid", "0:1.5:50"], 51),
        (["sweep", "--switch", "both", "--grid", "0:0.5:50"], 55),  # 4 '#' lines
    )
    for argv, lines in runs:
        monkeypatch.undo()
        assert esdsim.cli.main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(esdsim.cli, "CSV_BLOCK", 7)  # 8 blocks, the last short
        assert esdsim.cli.main(argv) == 0
        assert capsys.readouterr().out == whole
        assert len(whole.splitlines()) == lines


def test_evolve_checks_the_whole_grid_before_writing(tmp_path):
    # Distinct grid points that coincide in floating point.
    result = run_cli("evolve", "--grid", "1:1.0000000000000002:100", expect_code=2)
    assert "'grid'" in result.stderr and result.stdout == ""
    # A state the closed-form measures reject leaves no output file behind.
    config, out = tmp_path / "two_slots.json", tmp_path / "rows.csv"
    config.write_text(json.dumps(
        {"a": 0.75, "b": 0.75, "c": 0.75, "d": 0.75, "z_inner": 0.3, "z_corner": 0.3}
    ))
    result = run_cli(
        "evolve", "--config", str(config), "--out", str(out), expect_code=2
    )
    assert "coherence slot" in result.stderr and not out.exists()


def test_evolve_schedule_from_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schedule": [{"time": 0.223, "switch": "both"}]}))
    from_config = run_cli("evolve", "--config", str(path))
    from_flags = run_cli("evolve", "--switch", "both", "--t-sw", "0.223")
    assert from_config.stdout == from_flags.stdout


def test_schedule_times_that_round_to_one_float_are_refused(tmp_path):
    # 10**16 and 10**16 + 1 are one float, 1e16, as which SwitchEvent stores both.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schedule": [{"time": 10**16, "switch": "both"},
                                             {"time": 10**16 + 1, "switch": "alice"}]}))
    result = run_cli("evolve", "--config", str(path), expect_code=2)
    assert result.stderr == ("error: config field 'schedule': schedule times must strictly "
                             "increase, got 1e+16 then 1e+16\n")
    assert result.stdout == ""


# -- sweep ---------------------------------------------------------------------

def test_sweep_requires_switch_kind():
    result = run_cli("sweep", expect_code=2)
    assert "switch" in result.stderr


def test_sweep_output_shape_and_summary():
    out = run_cli("sweep", "--switch", "both")
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "tau_sw,fate,tau_end"
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 400
    averted = [r for r in rows if r.split(",")[1] == "1"]
    assert averted and averted[0].split(",")[2] == ""
    summary = "\n".join(line for line in lines if line.startswith("#"))
    assert "ad_crossing" in summary and "aversion_threshold" in summary
    threshold = float(summary.split("aversion_threshold = ")[1].split("\n")[0])
    assert threshold == pytest.approx(0.1293, abs=5e-4)
    crossing = float(summary.split("ad_crossing = ")[1].split("\n")[0])
    assert crossing == pytest.approx(math.log(4.0 / 3.0), abs=1e-9)


def test_sweep_single_sided_summary(tmp_path):
    # No single flip of the standard state, or of this other one, averts
    # death: the summary locates the minimum and has no aversion threshold.
    path = tmp_path / "other.json"
    path.write_text(
        json.dumps({"a": 0.9, "b": 1.2, "c": 0.7, "d": 0.2, "z_inner": 0.85})
    )
    for args in (("--switch", "alice"), ("--switch", "bob", "--grid", "0:0.5:101"),
                 ("--switch", "alice", "--config", str(path))):
        out = run_cli("sweep", *args)
        summary = [line for line in out.stdout.splitlines() if line.startswith("#")]
        assert any(line.startswith("# min_end: ") for line in summary)
        assert not any("aversion_threshold" in line for line in summary)


def test_sweep_rejects_grid_past_baseline_end():
    result = run_cli("sweep", "--switch", "both", "--grid", "0:0.6:10", expect_code=2)
    assert "precede" in result.stderr


def test_sweep_rejects_single_point_grid():
    result = run_cli("sweep", "--switch", "both", "--grid", "0:0:1", expect_code=2)
    assert "grid.count" in result.stderr


# -- CSV encoding ------------------------------------------------------------------

def reference_csv(columns):
    """The rows as the per-cell % formatting writes them, NaN blank."""
    def cell(v):
        if isinstance(v, int):
            return "%d" % v
        return "" if v != v else "%.11e" % v

    rows = zip(*(col.tolist() for col in columns))
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


# Doubles near the encoder's edges: half-way between two 12-digit mantissas
# (rounding either way once converted to binary), next to the 1e12 carry
# (9.999999999995 rounds up to 1.00000000000e+01, 9.99999999999499 does not),
# at the ends of the exponent range it encodes itself, and subnormal.
HALF_WAY = st.builds(
    lambda digits, e: (digits + 0.5) * 10.0 ** (e - 11),
    st.integers(10**11, 10**12 - 1), st.integers(-14, 36),
)
EDGES = st.sampled_from([
    9.999999999995, 0.9999999999995, 9.99999999999499, 999999999999.5,
    1e-11, 9.99999999999e-12, 1e33, 9.999999999995e33, 1e34, 1.0,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
])
DOUBLES = st.one_of(
    st.floats(), HALF_WAY, EDGES,
    st.one_of(HALF_WAY, EDGES).map(lambda x: math.nextafter(x, math.inf)),
    st.one_of(HALF_WAY, EDGES).map(lambda x: math.nextafter(x, 0.0)),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=500, deadline=None)
@given(st.lists(DOUBLES, min_size=1, max_size=40))
def test_encoder_matches_percent_format_on_every_double(values):
    x = np.array(values)
    assert "".join(_csv_chunks([x])) == reference_csv([x])
    assert "".join(_csv_chunks([x, x[::-1]])) == reference_csv([x, x[::-1]])


def test_encoder_matches_percent_format_across_all_exponents():
    rng = np.random.default_rng(20)
    exponents = rng.integers(-320, 301, 100_000)
    x = rng.choice([-1.0, 1.0], exponents.size) * rng.uniform(1.0, 10.0, exponents.size)
    x *= 10.0 ** exponents.astype(float)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324]
    x = np.concatenate([x, special]).reshape(-1, 1)
    assert set(np.floor(np.log10(np.abs(x[:-7, 0])))) >= set(range(-320, 301))
    assert "".join(_csv_chunks([x[:, 0]])) == reference_csv([x[:, 0]])


def test_encoder_writes_integers_and_blank_nans():
    # The sweep's columns: float tau_sw, int8 fate, float tau_end with NaN.
    tau_sw = np.array([0.0, 0.125, 0.25, 1e-300])
    fate = np.array([0, 1, 2, 0], dtype=np.int8)
    tau_end = np.array([0.5, math.nan, math.nan, -0.0])
    out = "".join(_csv_chunks([tau_sw, fate, tau_end]))
    assert out.splitlines()[1:3] == ["1.25000000000e-01,1,", "2.50000000000e-01,2,"]
    assert out == reference_csv([tau_sw, fate, tau_end])
    digits = np.arange(10)  # an integer cell is one digit, as a fate is
    assert "".join(_csv_chunks([digits, digits.astype(float)])) == reference_csv(
        [digits, digits.astype(float)]
    )


def test_encoder_writes_nan_cells_blank():
    # NaN of either sign is an empty cell, first, inside or last in its row.
    x = np.array([1.0, math.nan, -2.5, -math.nan])
    out = "".join(_csv_chunks([x, np.arange(4), x]))
    assert out.splitlines() == [
        "1.00000000000e+00,0,1.00000000000e+00", ",1,",
        "-2.50000000000e+00,2,-2.50000000000e+00", ",3,"]


def fallback_columns(width):
    """40 rows of ``width`` columns whose first and last cells are mostly
    written by %: NaN, e > 33, e < -11, inf, half-way mantissas (one of them
    the 1e12 carry), and -0; the second column holds fates, 0, 1 or 2."""
    rng = np.random.default_rng(9)
    x = rng.uniform(-3.0, 3.0, (40, width - 1))
    x[:, 0] = np.resize([math.nan, 2.5e40, 1.234567890125, -0.0], 40)
    x[:, -1] = np.resize([-3e-12, 9.999999999995, math.inf, 1e34], 40)
    return [x[:, 0], rng.integers(0, 3, 40).astype(np.int8), *x[:, 1:].T]


@pytest.mark.parametrize("cells", [2, 7])
def test_encoder_sub_blocks_give_the_one_block_text(monkeypatch, capsys, cells):
    # Sub-blocks hold whole rows, at least one: a budget of 2 or 7 cells puts
    # a sub-block boundary after every row or every other row of 3 and of
    # 10 columns, next to cells written by %.
    argvs = (
        ["evolve", "--switch", "both", "--t-sw", "0.223", "--grid", "0:800:41"],
        ["sweep", "--switch", "both", "--grid", "0:0.5:50"],
    )
    whole = []
    for argv in argvs:
        assert esdsim.cli.main(argv) == 0
        whole.append(capsys.readouterr().out)
    columns = [fallback_columns(3), fallback_columns(10)]
    texts = ["".join(_csv_chunks(cols)) for cols in columns]
    monkeypatch.setattr(esdsim.cli, "CSV_CELLS", cells)
    for argv, text in zip(argvs, whole):
        assert esdsim.cli.main(argv) == 0
        assert capsys.readouterr().out == text
    for cols, text in zip(columns, texts):
        assert text == reference_csv(cols)
        assert "".join(_csv_chunks(cols)) == text
        assert len(list(_csv_chunks(cols))) == (40 if cells < len(cols) else 20)


# Columns as the exact-width slots see them: each is regular (all positive,
# all negative, or fates), and a few rows of a float column hold a cell that
# sends its sub-block to padded slots: NaN, inf, -0.0 or a sign that is not
# the column's, an exponent of three digits or next to them; or a cell that
# stays exact but is written by %, a half-way mantissa.  A fate column never
# pads.  With sub-blocks of one or a few rows, exact and padded ones
# alternate.
WIDE_EDGES = [1e99, 9.99999999999e98, 9.999999999995e98, 9.9999999999995e99, 1e100,
              1e-99, 1.00000000001e-99, 9.999999999995e-100, 1e-100, 1e-300, 5e-324]


def mantissas(half, low, high):
    """12-digit mantissas, or half-way between two, at exponents low..high."""
    return st.builds(lambda digits, e: (digits + half) * 10.0 ** (e - 11),
                     st.integers(10**11, 10**12 - 1), st.integers(low, high))


REGULAR = st.one_of(mantissas(0, -98, 98), mantissas(0.5, -98, 97))


@st.composite
def encoder_columns(draw):
    rows = draw(st.integers(1, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["pos", "neg", "int"]), min_size=1, max_size=5)):
        if kind == "int":
            regular = odd = st.integers(0, 2)
        else:
            sign = 1.0 if kind == "pos" else -1.0
            regular = (REGULAR | st.just(0.0)).map(lambda x, sign=sign: sign * x)
            odd = st.one_of(
                st.sampled_from([0.0, math.nan, math.inf]), st.sampled_from(WIDE_EDGES),
                REGULAR, mantissas(0.5, -101, 100), mantissas(0, -310, 308),
            ).flatmap(lambda x: st.sampled_from([x, -x]))
        values = draw(st.lists(regular, min_size=rows, max_size=rows))
        for row, value in draw(st.lists(st.tuples(st.integers(0, rows - 1), odd), max_size=3)):
            values[row] = value
        columns.append(np.array(values, dtype=np.int8 if kind == "int" else float))
    return columns


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(encoder_columns(), st.integers(1, 12))
def test_encoder_exact_and_padded_sub_blocks_match_percent_format(columns, cells):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(esdsim.cli, "CSV_CELLS", cells)
        assert "".join(_csv_chunks(columns)) == reference_csv(columns)


# A sweep's three columns around its int8 fates.  Rows 1, 2, 5 and 7 hold a
# blank tau_end and row 4 a tau_sw below 1e-297, so each pads its sub-block;
# % writes row 3's half-way tau_end and row 4's tau_sw, and row 6 carries.
FATE_ROWS = (
    np.array([0.0, 0.125, 0.25, 0.375, 1e-300, 0.5, 0.625, 0.75]),
    np.array([0, 1, 2, 0, 0, 2, 1, 0], np.int8),
    np.array([0.5, math.nan, math.nan, 1.234567890125, 0.75, math.nan, 9.999999999995,
              math.nan]),
)


@pytest.mark.parametrize("cells, chunks, padded", [(3, 8, 5), (6, 4, 4), (4096, 1, 1)])
def test_encoder_writes_fates_in_exact_and_padded_sub_blocks(monkeypatch, cells, chunks,
                                                             padded):
    # A fate takes a two-byte slot, its digit and the separator, in a
    # sub-block of exact slots and in a padded one alike.
    compacted = []
    compact = esdsim.cli._compact
    monkeypatch.setattr(esdsim.cli, "_compact", lambda text: compacted.append(1) or compact(text))
    monkeypatch.setattr(esdsim.cli, "CSV_CELLS", cells)
    texts = list(_csv_chunks(FATE_ROWS))
    assert "".join(texts) == reference_csv(FATE_ROWS)
    assert (len(texts), len(compacted)) == (chunks, padded)
    assert [line.split(",")[1] for line in "".join(texts).splitlines()] == list("01200210")


def test_canonical_evolve_takes_the_exact_width_path(monkeypatch, capsys):
    # Every cell of the canonical trajectories (the figure scenarios, on dense
    # grids) is finite and non-negative, with a two-digit exponent, so no
    # sub-block is padded and compacted.  A sweep with averted rows (a blank
    # tau_end) is.
    argvs = [["evolve", "--grid", grid, *switch] for grid, switch in (
        ("0:1.2:2001", []), ("0:2:2001", ["--switch", "both", "--t-sw", "0.1"]),
        ("0:1.2:2001", ["--switch", "both", "--t-sw", "0.223"]),
        ("0:1.2:2001", ["--switch", "both", "--t-sw", "0.357"]))]
    texts = []
    for argv in argvs:
        assert esdsim.cli.main(argv) == 0
        texts.append(capsys.readouterr().out)

    def refuse(text):
        raise AssertionError("a padded sub-block")

    monkeypatch.setattr(esdsim.cli, "_compact", refuse)
    for argv, text in zip(argvs, texts):
        assert esdsim.cli.main(argv) == 0
        assert capsys.readouterr().out == text
    with pytest.raises(AssertionError, match="a padded sub-block"):
        esdsim.cli.main(["sweep", "--switch", "both"])


def test_deep_evolve_writes_tiny_cells_by_percent(monkeypatch, capsys):
    # Out to tau = 800, 1,649 of the 40,010 cells lie below 1e-297, 976 of
    # them subnormal.  The digit tables' scale stops at e = -297, so % writes
    # each of them, and the 25 larger cells whose mantissa lies within
    # 2**-11 of a half-way point: 1,674 cells.
    argv = ["evolve", "--switch", "both", "--t-sw", "0.223", "--grid", "0:800:4001"]
    assert esdsim.cli.main(argv) == 0
    text = capsys.readouterr().out
    cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")]
    tiny = [float(cell) for cell in cells if "e-" in cell and int(cell[-3:]) > 297]
    assert (len(cells), len(tiny)) == (40_010, 1_649)
    assert sum(abs(x) < sys.float_info.min for x in tiny) == 976

    written = []

    class Recorded(str):
        def __mod__(self, value):
            written.append(value)
            return str.__mod__(self, value)

    monkeypatch.setattr(esdsim.cli, "_FLOAT", Recorded(esdsim.cli._FLOAT))
    assert esdsim.cli.main(argv) == 0
    assert capsys.readouterr().out == text
    assert len(written) == 1_674
    assert sum(abs(x) < 1e-297 for x in written) == 1_649
    for value in (x for x in written if abs(x) >= 1e-297):
        exact = Decimal(abs(value))
        mantissa = exact.scaleb(11 - exact.adjusted())
        assert abs(mantissa % 1 - Decimal("0.5")) < Decimal(2) ** -10, value


def test_encoder_working_set_does_not_grow_with_the_rows():
    # The text comes out one sub-block at a time, and each sub-block reuses
    # one buffer and frees its temporaries, so ten columns of 10**4 or 10**5
    # rows (about 1.8 or 18 MB of text) peak alike, at about 1.2 MB.
    rng = np.random.default_rng(5)
    for rows in (10**4, 10**5):
        columns = list(rng.uniform(0.0, 3.0, (10, rows)))
        columns[4][::97] = math.nan
        tracemalloc.start()
        try:
            size = sum(map(len, _csv_chunks(columns)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size > 17 * 10 * rows
        assert peak < 2_000_000, (rows, peak)


def test_sweep_working_set_grows_only_with_its_arrays(tmp_path):
    # A sweep keeps its switch times, fates and end times, 17 bytes a row;
    # the rows' text goes out a sub-block at a time, so the traced peak
    # grows by no more than 32 bytes a row from 20,000 to 200,000 rows.
    peaks = []
    for rows in (20_000, 200_000):
        argv = ["sweep", "--switch", "alice", "--grid", f"0:0.53:{rows}",
                "--out", str(tmp_path / "sweep.csv")]
        tracemalloc.start()
        try:
            assert esdsim.cli.main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "sweep.csv").stat().st_size > 35 * 200_000
    assert peaks[1] - peaks[0] <= 32 * 180_000, peaks


# -- critical --------------------------------------------------------------------

def test_critical_table_values():
    out = run_cli("critical")
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "quantity,status,tau,time"
    table = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert table["baseline_end"][1] == "finite"
    assert float(table["baseline_end"][2]) == pytest.approx(
        math.log(1.0 + 1.0 / math.sqrt(2.0)), abs=1e-9
    )
    assert float(table["ad_crossing"][2]) == pytest.approx(
        math.log(4.0 / 3.0), abs=1e-9
    )
    assert float(table["aversion_threshold_both"][2]) == pytest.approx(
        0.1293, abs=5e-4
    )
    assert float(table["min_end_time_both"][2]) == pytest.approx(0.4759, abs=1e-3)


def test_searches_have_no_tolerance_option():
    result = run_cli("critical", "--tol", "1e-10", expect_code=2)
    assert "--tol" in result.stderr
    assert "tol" not in json.loads(run_cli("critical", "--dump-config").stdout)


def test_the_closed_forms_need_no_computer_algebra():
    # The searches' closed-form starts are written out by hand; importing the
    # command line loads no computer-algebra package.
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    code = "import sys, esdsim.cli; print(sorted(m for m in sys.modules if 'sympy' in m))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("kind,grid", [("alice", "0:0.2:3"), ("both", "0:0.5:101")])
def test_critical_sweeps_the_given_grid(capsys, kind, grid):
    assert esdsim.cli.main(["sweep", "--switch", kind, "--grid", grid]) == 0
    summary = [line for line in capsys.readouterr().out.splitlines() if "#" in line]
    assert esdsim.cli.main(["critical", "--switch", kind, "--grid", grid]) == 0
    table = {
        line.split(",")[0]: line.split(",")[1:3]
        for line in capsys.readouterr().out.splitlines()[1:]
    }
    (_, min_tau_sw), (_, min_tau_end) = (
        table[f"min_end_switch_time_{kind}"], table[f"min_end_time_{kind}"]
    )
    assert f"# min_end: tau_sw = {min_tau_sw}, tau_end = {min_tau_end}" in summary
    status, threshold = table[f"aversion_threshold_{kind}"]
    threshold_lines = [line for line in summary if "aversion_threshold" in line]
    if status == "found":
        assert threshold_lines == [f"# aversion_threshold = {threshold}"]
    else:
        assert threshold_lines == []
    if grid == "0:0.2:3":  # too coarse to hold the minimum: the last row
        assert min_tau_sw == "2.00000000000e-01"


@pytest.mark.parametrize("gamma", ["1e-320", "5e-324"])
def test_critical_rejects_a_gamma_whose_physical_times_overflow(capsys, gamma):
    # A subnormal gamma: every critical time, tau / gamma, overflows.
    assert esdsim.cli.main(["critical", "--switch", "both", "--gamma", gamma]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: config field 'gamma': too small: ")
    assert err.endswith(f"overflows, got {float(gamma)!r}\n")


@pytest.mark.parametrize("command", ["evolve", "sweep"])
def test_a_subnormal_gamma_is_refused_by_every_command(tmp_path, capsys, command):
    # In physical time tau = t * gamma would keep only a few digits.
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps({"time_unit": "physical", "gamma": 1e-320, "switch": "both",
                                **({"t_sw": 1.0} if command == "evolve" else {})}))
    assert esdsim.cli.main([command, "--config", str(path), "--grid", "0:1:3"]) == 2
    assert capsys.readouterr() == ("", "error: config field 'gamma': too small: a subnormal "
                                   "gamma keeps few digits, and tau / gamma soon overflows, "
                                   "got 1e-320\n")


@pytest.mark.parametrize("command, field, config, grid, got", [
    ("evolve", "grid", {"time_unit": "physical", "gamma": 1e-300}, "0:1e-20:3", 5e-321),
    ("evolve", "t_sw", {"time_unit": "physical", "gamma": 1e-300, "switch": "both",
                        "t_sw": 1e-20}, "0:1:3", 1e-320),
    ("evolve", "schedule", {"time_unit": "physical", "gamma": 1e-300, "schedule": [
        {"time": 0.0, "switch": "both"}, {"time": 1e-20, "switch": "alice"}]}, "0:1:3", 1e-320),
    ("sweep", "grid", {"switch": "alice"}, "0:1e-310:3", 5e-311),
    ("critical", "grid", {}, "1e-310:0.2:3", 1e-310),
])
def test_a_subnormal_time_in_tau_is_refused(tmp_path, capsys, command, field, config, grid,
                                            got):
    # A nonzero grid or switch time below 2**-1022 in tau, also under a
    # normal gamma, keeps only a few digits: refused, naming its field.
    # A time of 0 passes.
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    assert esdsim.cli.main([command, "--config", str(path), "--grid", grid]) == 2
    assert capsys.readouterr() == ("", f"error: config field '{field}': too small: a nonzero "
                                   f"time below 2.2250738585072014e-308 in tau is subnormal "
                                   f"and keeps few digits, got {got!r}\n")


def test_critical_physical_times_scale_with_gamma():
    base = run_cli("critical")
    double = run_cli("critical", "--gamma", "2.0")
    for line_b, line_d in zip(
        base.stdout.strip().split("\n")[1:], double.stdout.strip().split("\n")[1:]
    ):
        cols_b, cols_d = line_b.split(","), line_d.split(",")
        assert cols_b[2] == cols_d[2]  # dimensionless times unchanged
        if cols_b[3]:
            assert float(cols_d[3]) == pytest.approx(float(cols_b[3]) / 2.0, rel=1e-9)


def test_critical_never_entangled_state(tmp_path):
    path = tmp_path / "separable.json"
    path.write_text(json.dumps({"a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0, "z_inner": 0.0}))
    out = run_cli("critical", "--config", str(path))
    lines = out.stdout.strip().split("\n")
    table = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert table["baseline_end"][1] == "never_entangled"
    assert table["min_end_time_both"][1] == "undefined"


# -- error handling ----------------------------------------------------------------

def test_bad_config_file_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a": 2.0, "b": 1.0, "c": 1.0, "d": 0.0}))
    result = run_cli("critical", "--config", str(path), expect_code=2)
    assert "sum to 3" in result.stderr


def test_missing_config_file_is_reported():
    result = run_cli("evolve", "--config", "/nonexistent.json", expect_code=2)
    assert "config file" in result.stderr


def test_malformed_grid_flag_is_reported():
    result = run_cli("evolve", "--grid", "0:1", expect_code=2)
    assert "START:STOP:COUNT" in result.stderr


@pytest.mark.parametrize("command", ["evolve", "sweep", "critical"])
def test_an_out_file_that_cannot_be_opened_is_reported(tmp_path, capsys, command):
    # A missing directory and a directory: a clean error, and nothing on stdout.
    argv = [command, "--switch", "both", "--t-sw", "0.2", "--grid", "0:0.53:5"]
    for out, reason in ((tmp_path / "missing" / "x.csv", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        assert esdsim.cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: out file {str(out)!r}: {reason}\n")


def test_time_unit_physical_rescales_inputs(tmp_path):
    # With gamma = 2 and physical times, a switch at t = 0.1115 matches the
    # dimensionless switch at tau = 0.223.
    path = tmp_path / "physical.json"
    path.write_text(
        json.dumps(
            {
                "gamma": 2.0,
                "time_unit": "physical",
                "switch": "both",
                "t_sw": 0.1115,
                "grid": {"start": 0.0, "stop": 0.6, "count": 13},
            }
        )
    )
    physical = run_cli("evolve", "--config", str(path))
    dimensionless = run_cli(
        "evolve", "--switch", "both", "--t-sw", "0.223", "--grid", "0:1.2:13"
    )
    assert physical.stdout == dimensionless.stdout


# -- whole-CLI property ------------------------------------------------------------

# Values that no field takes: bools, integers past any float, NaN as a JSON
# literal and as strings, null, lists and objects, and finite floats whose
# square overflows.
JUNK = st.one_of(
    st.booleans(), st.sampled_from([10**400, -(10**400), math.nan, None]),
    st.sampled_from([1e155, 1e300, -1e308]),
    st.sampled_from(["NaN", "nan", "inf", "", "1.0", "both"]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from("xy"), st.integers()),
)
SWITCHES = ["both", "alice", "bob"]


@st.composite
def cli_states(draw):
    """A valid X state as config fields: occupations summing to 3, one coherence."""
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    weights[0] += 1e-3
    a, b, c, d = (3.0 * w / sum(weights) for w in weights)
    z = {"z_inner": 0.0, "z_corner": 0.0}
    slot = draw(st.sampled_from(sorted(z)))
    z[slot] = draw(st.floats(-1.0, 1.0)) * math.sqrt(b * c if slot == "z_inner" else a * d)
    return {"a": a, "b": b, "c": c, "d": d, **z}


@st.composite
def cli_grids(draw, clean):
    """A small grid; unless clean, maybe with a missing, extra or ill-typed key."""
    start = draw(st.floats(0.0, 0.3))
    grid = {"start": start, "stop": start + draw(st.floats(0.0, 0.5)),
            "count": draw(st.integers(1, 40))}
    bad = None if clean else draw(st.sampled_from(["start", "stop", "count", "drop", "extra"]))
    if bad == "drop":
        del grid[draw(st.sampled_from(sorted(grid)))]
    elif bad == "extra":
        grid["step"] = 0.1
    elif bad is not None:
        grid[bad] = draw(JUNK | st.sampled_from([-1.0, 0, 10**7 + 1]))
    return grid


@st.composite
def cli_schedules(draw, clean):
    """A schedule list; unless clean, entries may miss keys, repeat times or hold junk."""
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        entry = {"time": draw(st.floats(0.0, 0.6) | st.just(0.1)),
                 "switch": draw(st.sampled_from(SWITCHES))}
        bad = None if clean else draw(st.sampled_from([None, "time", "switch", "drop"]))
        if bad == "drop":
            del entry["switch"]
        elif bad is not None:
            entry[bad] = draw(JUNK | st.sampled_from([-0.5, "charlie"]))
        entries.append(entry)
    if clean:  # distinct, increasing times
        entries = list({e["time"]: e for e in entries}.values())
    return sorted(entries, key=lambda e: str(e.get("time")))


@st.composite
def cli_configs(draw):
    """Whole config objects: a sweep's (a state, a switch kind, a grid or
    none), or any fields, each absent or valid in a clean config, and in
    the others some junk and maybe an unknown field."""
    if draw(st.integers(0, 2)) == 0:
        data = {**(draw(cli_states()) if draw(st.booleans()) else {}),
                "switch": draw(st.sampled_from(SWITCHES))}
        if draw(st.booleans()):
            start = draw(st.floats(0.0, 0.2))
            data["grid"] = {"start": start, "stop": start + draw(st.floats(1e-3, 0.1)),
                            "count": draw(st.integers(2, 60))}
        return data
    clean = draw(st.booleans())
    fields = {
        "gamma": st.floats(0.1, 10.0),
        "time_unit": st.sampled_from(["tau", "physical"]),
        "switch": st.sampled_from([*SWITCHES, "none"]),
        "t_sw": st.floats(0.0, 1.0),
        "schedule": cli_schedules(clean),
        "grid": cli_grids(clean),
    }
    data = draw(cli_states()) if draw(st.booleans()) else {}
    for name, valid in fields.items():
        choice = draw(st.sampled_from(["absent", "valid"] + ([] if clean else ["junk"])))
        if choice != "absent":
            data[name] = draw(valid if choice == "valid" else JUNK)
    if not clean and draw(st.booleans()):
        name = draw(st.sampled_from(["a", "d", "z_inner", "z_corner", "tol"]))
        data[name] = draw(JUNK | st.floats(-1.0, 4.0))
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["evolve", "sweep", "critical"]), cli_configs())
@example("evolve", {"a": 1, "b": 1, "c": 1, "d": 0, "z_inner": 1e300})
@example("evolve", {"schedule": [{"time": 0.1, "switch": "both"},
                                 {"time": 10**30, "switch": "both"},
                                 {"time": 10**300, "switch": "alice"}]})
def test_any_config_exits_cleanly_and_sweeps_as_end_times(command, data):
    # Every run either succeeds or exits 2 with an error that names the
    # config; none ends in a traceback.  A sweep that succeeds writes each
    # row as end_times decides it, and a critical table holds the library's
    # values on the same grid, as text.
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = esdsim.cli.main([command, "--config", path])
    assert (code, err.getvalue()) == (0, "") or (
        code == 2 and err.getvalue().startswith("error: config")), (code, err.getvalue())
    if command == "sweep" and code == 0:
        cfg = config_from_dict(data)
        state, kind = cfg.initial_state(), Switch(cfg.switch)
        taus = sweep_switch_times(state, kind, esdsim.cli._grid_taus(cfg, sweep=True)).tau_sw
        rows = reference_csv((taus, *end_times(state, kind, taus)))
        assert out.getvalue().startswith("tau_sw,fate,tau_end\n" + rows)
    if command == "critical" and code == 0:
        assert out.getvalue() == library_critical_table(config_from_dict(data))


def library_critical_table(cfg):
    """The critical table from the library: the sweep on the config's grid
    in tau when the unswitched evolution dies, else the a = d crossing alone."""
    state = cfg.initial_state()
    kind = Switch(cfg.switch) if cfg.switch != "none" else Switch.BOTH
    baseline = find_end_time(state)
    if baseline.fate is Fate.FINITE_END:
        grid = None if cfg.grid is None else cfg.to_tau(cfg.grid.points())
        curve = sweep_switch_times(state, kind, grid)
        taus = (curve.baseline_end, curve.ad_crossing, curve.aversion_threshold,
                curve.min_tau_sw, curve.min_tau_end)
    else:
        try:
            crossing = find_ad_crossing(state)
        except NoCrossingError:
            crossing = None
        taus = (None, crossing, None, None, None)
    names = ("baseline_end", "ad_crossing", f"aversion_threshold_{kind.value}",
             f"min_end_switch_time_{kind.value}", f"min_end_time_{kind.value}")
    fate = {Fate.FINITE_END: "finite", Fate.AVERTED: "averted",
            Fate.NEVER_ENTANGLED: "never_entangled"}[baseline.fate]
    lines = ["quantity,status,tau,time"]
    for name, tau in zip(names, taus):
        status = fate if name == "baseline_end" else "undefined" if tau is None else "found"
        cells = ",," if tau is None else f",{tau:.11e},{tau / cfg.gamma:.11e}"
        lines.append(f"{name},{status}{cells}")
    return "\n".join(lines) + "\n"


# -- standard outputs ----------------------------------------------------------

def test_standard_outputs_keep_their_committed_digests():
    # scripts/output_digest.md5 holds the md5 of every standard CLI output
    # that scripts/output_digest.py lists; any byte that moves shows here.
    # A change that means to move one regenerates the listing and says why.
    spec = importlib.util.spec_from_file_location(
        "output_digest", SCRIPTS / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    with digest.scenario_dir():
        lines = [f"{digest.digest(argv)}  esdsim {' '.join(argv)}" for argv in digest.runs()]
    assert len(lines) == 22
    assert lines == (SCRIPTS / "output_digest.md5").read_text().splitlines()
