"""scripts/bench_pairs.py's aggregation, on canned benchmark output (no run),
and its interleaved mode, on stub children."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "pass_ref_s", "unit": "ref_s", "better": "lower", "bound": 0.25},
    {"name": "points_per_ref_s", "unit": "1/ref_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def canned(pass_ref_s, peak_rss_mb, passes, failed=0):
    """What benchmarks/run.py prints for one run, cut to the lines read."""
    metrics = {"pass_ref_s": {"value": pass_ref_s, "unit": "ref_s"},
               "points_per_ref_s": {"value": 9216 / pass_ref_s, "unit": "1/ref_s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    return "\n".join([
        "# workload phase_map, seed 1, 30.0 s, trace 0",
        '# env {"machine": "x86_64 test", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}',
        f"# {passes} timed passes of 9216 points and 10240 operations in 30.1 s of wall time",
        f"{'pass_ref_s':<36} {pass_ref_s:<14.6g} ref_s",
        json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


PARENT = [(0.22, 57.0, 80), (0.23, 56.5, 76), (0.21, 58.0, 84), (0.20, 58.5, 88)]
CHANGE = [(0.18, 60.0, 100), (0.17, 61.0, 104), (0.21, 58.0, 84), (0.175, 60.5, 102)]


def test_parse_run_reads_the_json_line_passes_and_env():
    run = bench_pairs.parse_run(canned(0.2, 57.25, 81, failed=2))
    assert run["metrics"]["pass_ref_s"] == 0.2
    assert run["metrics"]["peak_rss_mb"] == 57.25
    assert (run["timed_passes"], run["failed"], run["correct"]) == (81, 2, False)
    assert run["env"]["machine"] == "x86_64 test"


def test_aggregate_gives_medians_quartiles_wins_and_runs():
    runs = {side: [bench_pairs.parse_run(canned(*r)) for r in rows]
            for side, rows in (("parent", PARENT), ("change", CHANGE))}
    entry = bench_pairs.aggregate(runs, METRICS, [1601, 1602, 1603, 1604])
    assert (entry["seeds"], entry["pairs"], entry["all_correct"]) == ("1601-1604", 4, True)
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["timed_passes"] == {"parent": [80, 76, 84, 88], "change": [100, 104, 84, 102]}
    assert entry["per_run"]["change"] == {"pass_ref_s": [0.18, 0.17, 0.21, 0.175],
                                          "peak_rss_mb": [60.0, 61.0, 58.0, 60.5]}
    for name, column in (("pass_ref_s", 0), ("peak_rss_mb", 1)):
        for side, rows in (("parent", PARENT), ("change", CHANGE)):
            values = [r[column] for r in rows]
            got = entry["metrics"][name][side]
            assert got["median"] == pytest.approx(np.median(values), abs=1e-6)
            assert got["q1"] == pytest.approx(np.percentile(values, 25), abs=1e-6)
            assert got["q3"] == pytest.approx(np.percentile(values, 75), abs=1e-6)
    # The third pair is a tie: it counts for neither side.
    assert entry["metrics"]["pass_ref_s"]["change_wins"] == "3/4"
    assert entry["metrics"]["points_per_ref_s"]["change_wins"] == "3/4"  # higher is better
    assert entry["metrics"]["peak_rss_mb"]["change_wins"] == "0/4"
    assert entry["metrics"]["pass_ref_s"]["change_over_parent"] == round(0.1775 / 0.215, 4)
    assert entry["metrics"]["peak_rss_mb"]["bound"] == 0.1


def test_rss_is_listed_against_timed_passes():
    runs = {side: [bench_pairs.parse_run(canned(*r)) for r in rows]
            for side, rows in (("parent", PARENT), ("change", CHANGE))}
    entry = bench_pairs.aggregate(runs, METRICS, [1601, 1602, 1603, 1604])
    text = bench_pairs.rss_against_passes("phase_map", entry)
    passes = [r[2] for r in PARENT + CHANGE]
    rss = [r[1] for r in PARENT + CHANGE]
    slope = np.polyfit(passes, rss, 1)[0]
    assert f"slope {slope:.4f} MB per timed pass" in text
    assert "medians 82 -> 101 passes" in text
    assert "    80    57.000 MB |    100    60.000 MB" in text


def entry_of(parent, change):
    runs = {side: [bench_pairs.parse_run(canned(*r)) for r in rows]
            for side, rows in (("parent", parent), ("change", change))}
    return bench_pairs.aggregate(runs, METRICS, list(range(1601, 1601 + len(parent))))


def test_each_metric_is_held_to_its_bound():
    entry = entry_of(PARENT, CHANGE)
    pass_ref_s, rate, rss = (entry["metrics"][name] for name in
                             ("pass_ref_s", "points_per_ref_s", "peak_rss_mb"))
    assert pass_ref_s["worse_by"] == round(0.1775 / 0.215 - 1.0, 4)
    assert rate["worse_by"] < 0.0 and not rate["beyond_bound"]  # higher is better
    assert rss["worse_by"] == round(60.25 / 57.5 - 1.0, 4) and not rss["beyond_bound"]
    # 10% more memory is within the bound; 10.5% more is beyond it.
    for factor, beyond in ((1.1, False), (1.105, True)):
        heavier = [(t, m * factor, n) for t, m, n in PARENT]
        assert entry_of(PARENT, heavier)["metrics"]["peak_rss_mb"]["beyond_bound"] is beyond
    # Relative to the parent's median: 1.3x the time is 30% worse, but its
    # rate is only 23% worse; 1.4x the time is 29% worse in rate.
    for factor, rate_beyond in ((1.3, False), (1.4, True)):
        slower = entry_of(PARENT, [(t * factor, m, n) for t, m, n in PARENT])["metrics"]
        assert slower["pass_ref_s"]["beyond_bound"]
        assert slower["points_per_ref_s"]["beyond_bound"] is rate_beyond


def test_the_rss_line_gives_the_passes_at_the_bound():
    entry = entry_of(PARENT, CHANGE)
    passes = [r[2] for r in PARENT + CHANGE]
    rss = [r[1] for r in PARENT + CHANGE]
    slope, intercept = np.polyfit(passes, rss, 1)
    limit = 1.1 * np.median([r[1] for r in PARENT])
    fit = entry["rss_fit"]
    assert fit["limit_mb"] == round(limit, 4)
    assert fit["passes_at_limit"] == pytest.approx((limit - intercept) / slope, abs=0.05)
    flat = entry_of(*([(t, m, 80) for t, m, _ in rows] for rows in (PARENT, CHANGE)))
    assert flat["rss_fit"]["passes_at_limit"] is None


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    parent = [(0.20 + 0.001 * i, 57.0, 80) for i in range(10)]
    won = [(0.18 + 0.001 * i, 57.0, 80) for i in range(10)]
    verdict = bench_pairs.claim_verdict(entry_of(parent, won), "pass_ref_s")
    assert verdict["holds"] and verdict["change_wins"] == "10/10"
    assert verdict["median_gap"] == pytest.approx(0.02) and verdict["wins_needed"] == 9
    # Nine of ten pairs still hold; eight do not.
    for lost, holds in ((1, True), (2, False)):
        rows = [(0.3, 57.0, 80)] * lost + won[lost:]
        assert bench_pairs.claim_verdict(entry_of(parent, rows), "pass_ref_s")["holds"] is holds
    # Every pair won, by less than the parent's interquartile range (0.0045).
    close = [(t - 0.004, m, n) for t, m, n in parent]
    verdict = bench_pairs.claim_verdict(entry_of(parent, close), "pass_ref_s")
    assert verdict["change_wins"] == "10/10" and not verdict["holds"]
    assert verdict["parent_iqr"] == pytest.approx(0.0045)


def test_the_verdict_is_printed():
    report = {"workloads": {"phase_map": entry_of(PARENT, CHANGE)},
              "claimed": {"workload": "phase_map", "metric": "pass_ref_s", "target": "1.1x"}}
    report["claimed"]["verdict"] = bench_pairs.claim_verdict(
        report["workloads"]["phase_map"], "pass_ref_s")
    lines = bench_pairs.verdict_lines(report)
    assert "phase_map pass_ref_s: 0.1775 vs 0.215 ref_s, worse by -17.44% (bound 25%): ok" in lines
    assert "phase_map peak_rss_mb: 60.25 vs 57.5 MB, worse by +4.78% (bound 10%): ok" in lines
    assert "phase_map RSS line reaches 63.25 MB at 119.8 timed passes" in lines
    assert lines[-1] == ("claim phase_map pass_ref_s: wins 3/4 (needs 4), median gap 0.0375"
                         " against parent q3 - q1 0.015: NOT MET")


# A stand-in for one side's child: writes its first line (the outputs' digest
# and the count of failed operations), then for each line read logs its side
# and writes a fixed pass time.
STUB = """
import sys
side, seconds, digest, log = sys.argv[1:]
print(digest, flush=True)
for _ in sys.stdin:
    with open(log, "a") as f:
        f.write(side + "\\n")
    print(seconds, flush=True)
"""


def stub_commands(tmp_path, parent=("0.5", "d1 0"), change=("0.4", "d1 0")):
    log = tmp_path / "order.log"
    return log, {side: [sys.executable, "-c", STUB, side, seconds, digest, str(log)]
                 for side, (seconds, digest) in (("parent", parent), ("change", change))}


def test_interleaved_sides_take_turns_and_give_per_round_ratios(tmp_path):
    log, commands = stub_commands(tmp_path)
    result = bench_pairs.interleave(commands, rounds=4)
    assert result["digest"] == "d1" and not result["outputs_differ"]
    assert result["times"] == {"parent": [0.5] * 4, "change": [0.4] * 4}
    assert result["ratios"] == pytest.approx([0.8] * 4)
    # The parent goes first in even rounds, the change in odd ones.
    assert log.read_text().split() == ["parent", "change", "change", "parent"] * 2
    line = bench_pairs.ratio_line("phase_map", result)
    assert line == ("phase_map: change/parent CPU time per pass, median 0.8000 (q1 0.8000,"
                    " q3 0.8000) over 4 rounds; medians 0.500000 s -> 0.400000 s")


@pytest.mark.parametrize("parent, change, message", [
    (("0.5", "d1 0"), ("0.4", "d2 3"), "the change side failed 3 operations or their check"),
    (("0.5", "d1 1"), ("0.4", "d1 0"), "the parent side failed 1 operations or their check"),
    (("0.5", ""), ("0.4", ""), "the parent side gave no output"),
    (("0.5", "d1 0"), ("0.4", ""), "the change side gave no output"),
], ids=["change_fails", "parent_fails", "no_outputs", "no_change_output"])
def test_interleaved_sides_must_pass_their_checks_before_any_pass_is_timed(
        tmp_path, parent, change, message):
    log, commands = stub_commands(tmp_path, parent, change)
    with pytest.raises(bench_pairs.SideFailed, match=f"^{message}$"):
        bench_pairs.interleave(commands, rounds=4)
    assert not log.exists()


def test_interleaved_times_sides_whose_outputs_differ_and_says_so(tmp_path):
    # A change may alter an output on purpose; both sides passed their
    # checks, so the passes are timed and the line says the outputs differ.
    log, commands = stub_commands(tmp_path, ("0.5", "d1 0"), ("0.4", "d2 0"))
    result = bench_pairs.interleave(commands, rounds=2)
    assert result["digest"] == "d1" and result["outputs_differ"]
    assert log.read_text().split() == ["parent", "change", "change", "parent"]
    assert bench_pairs.ratio_line("phase_map", result) == (
        "phase_map: change/parent CPU time per pass, median 0.8000 (q1 0.8000, q3 0.8000)"
        " over 2 rounds; medians 0.500000 s -> 0.400000 s; the sides' outputs differ")


def test_interleaved_copies_the_trees_once_and_gives_a_line_per_workload(
        tmp_path, monkeypatch, capsys):
    copies = []

    def copy_sides(parent, into):
        copies.append(parent)
        return {side: into / side for side in bench_pairs.SIDES}

    seconds = {("parent", "evolve_dense"): "0.5", ("change", "evolve_dense"): "0.4",
               ("parent", "phase_map"): "0.2", ("change", "phase_map"): "0.3"}

    def child_command(folder, workload, seed):
        assert seed == 7
        side = folder.name
        return [sys.executable, "-c", STUB, side, seconds[side, workload], "d1 0",
                str(tmp_path / f"{workload}.log")]

    monkeypatch.setattr(bench_pairs, "copy_sides", copy_sides)
    monkeypatch.setattr(bench_pairs, "child_command", child_command)
    monkeypatch.setattr(bench_pairs, "ROUNDS", 2)
    assert bench_pairs.interleaved("abc123", ["evolve_dense", "phase_map"], 7) == 0
    assert copies == ["abc123"]
    assert capsys.readouterr().out.splitlines() == [
        "evolve_dense: change/parent CPU time per pass, median 0.8000 (q1 0.8000,"
        " q3 0.8000) over 2 rounds; medians 0.500000 s -> 0.400000 s",
        "phase_map: change/parent CPU time per pass, median 1.5000 (q1 1.5000,"
        " q3 1.5000) over 2 rounds; medians 0.200000 s -> 0.300000 s"]
    for workload in ("evolve_dense", "phase_map"):
        assert (tmp_path / f"{workload}.log").read_text().split() == [
            "parent", "change", "change", "parent"]


def test_interleaved_takes_one_or_more_known_workloads(capsys):
    for argv, message in ((["--interleaved"], "expected at least one argument"),
                          (["--interleaved", "phase_map", "nope"], "invalid choice: 'nope'")):
        with pytest.raises(SystemExit):
            bench_pairs.main(argv)
        assert message in capsys.readouterr().err
