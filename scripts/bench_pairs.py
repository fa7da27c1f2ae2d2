"""Benchmark a parent commit against the working tree in alternating pairs.

Copies the parent (``git archive``) and the working tree's files (tracked
and untracked, not ignored) into a temporary directory, then for each of 10
seeds and each workload runs ``benchmarks/run.py`` for 30 s once on each
side, the parent first on odd seeds and the change first on even ones,
each run pinned to the lowest CPU the script may use (the run alone: the
script itself is not pinned).
Writes one JSON file in the layout of the committed ``BENCH_<n>.json``
files: per workload and end-to-end metric (``BENCHMARK.json``'s list) each
side's median and quartiles (inclusive, as numpy's linear percentiles), the
pairs the change wins (ties count for neither) and the ratio of medians,
each run's ``pass_ref_s`` and ``peak_rss_mb``, and its count of timed
passes.  The harness keeps every timed pass's latencies, so a faster pass
reads as more memory; the script prints each run's peak RSS beside its
timed passes, and the least-squares line of one over the other, so that
artifact shows in the listing.

It also writes and prints the verdict the comparison applies:
- per workload and metric, whether the change's median is worse than the
  parent's, relative to the parent's, by more than the metric's bound;
- with ``--claim``, whether the claim holds: the change wins at least nine
  tenths of the pairs, and its median beats the parent's by more than the
  parent's interquartile range (q3 - q1);
- per workload, the timed-pass count at which the fitted RSS line reaches
  (1 + bound) times the parent's median ``peak_rss_mb``.
Run from the repository root:

    python scripts/bench_pairs.py --parent HEAD --seed 1601 \\
        --out BENCH_16.json --change "what the change does"

``--interleaved WORKLOAD [WORKLOAD ...]`` instead times the two sides pass
by pass in one session, for gains too small for the runs above to resolve.
The two trees are copied once; for each workload in turn, two child
interpreters, one per side, each import their own copy's
``benchmarks/workloads.py`` and ``esdsim``, build the workload (seed
``--seed``) on one CPU, and run one untimed pass, which the workload's own
``check`` judges, as ``benchmarks/run.py`` judges its reference pass; the
mode exits 1 if either side fails an operation or its check, or gives no
output.  Then, for each of 40 rounds, each side runs one pass, the parent
first in even rounds and the change first in odd ones, and reports the
pass's process CPU time.  Prints one line per workload: the median and
quartiles of the per-round ratio, change over parent, and whether the two
sides' outputs differ (a change may alter them on purpose):

    python scripts/bench_pairs.py --interleaved evolve_dense sweep_critical phase_map
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_critical", "phase_map", "evolve_dense")
PAIRS = 10  # per workload, one seed each
SECONDS = 30
ROUNDS = 40  # of --interleaved
PASSES = re.compile(r"^# (\d+) timed passes", re.M)
SIDES = ("parent", "change")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_run(stdout: str) -> dict:
    """One run's result: the last line's JSON, its timed passes and its env."""
    result = json.loads(stdout.rstrip().splitlines()[-1])
    passes = PASSES.search(stdout)
    env = next((json.loads(line[len("# env "):]) for line in stdout.splitlines()
                if line.startswith("# env ")), {})
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "timed_passes": int(passes.group(1)) if passes else None, "env": env}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def aggregate(runs: dict, metrics: list[dict], seeds: list[int]) -> dict:
    """One workload's entry from its runs: ``runs[side]`` lists each seed's
    ``parse_run`` result, in seed order, for sides "parent" and "change"."""
    parent, change = runs["parent"], runs["change"]
    entry = {
        "seeds": f"{seeds[0]}-{seeds[-1]}" if len(seeds) > 1 else str(seeds[0]),
        "pairs": len(seeds),
        "all_correct": all(r["correct"] for r in parent + change),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "timed_passes": {side: [r["timed_passes"] for r in runs[side]] for side in runs},
        "metrics": {},
        "per_run": {side: {name: [round(r["metrics"][name], 6) for r in runs[side]]
                           for name in ("pass_ref_s", "peak_rss_mb")}
                    for side in runs},
    }
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        wins = sum(sign * (b - a) < 0.0 for a, b in zip(p, c))
        p_median, c_median = statistics.median(p), statistics.median(c)
        worse_by = sign * (c_median - p_median) / p_median
        entry["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": summarize(p), "change": summarize(c),
            "change_wins": f"{wins}/{len(p)}",
            "change_over_parent": round(c_median / p_median, 4),
            "worse_by": round(worse_by, 4),
            "beyond_bound": worse_by > spec["bound"],
        }
        if name == "peak_rss_mb":
            entry["rss_fit"] = rss_fit(entry, (1.0 + spec["bound"]) * p_median)
    return entry


def rss_fit(entry: dict, limit: float) -> dict:
    """The least-squares line of peak RSS over timed passes, both sides
    together, and the timed-pass count where it reaches ``limit`` MB (None
    where the line does not rise)."""
    rss, passes = entry["per_run"], entry["timed_passes"]
    xs = passes["parent"] + passes["change"]
    ys = rss["parent"]["peak_rss_mb"] + rss["change"]["peak_rss_mb"]
    if len(set(xs)) > 1:
        slope, intercept = statistics.linear_regression(xs, ys)
    else:
        slope, intercept = 0.0, statistics.mean(ys)
    at = (limit - intercept) / slope if slope > 0.0 else None
    return {"slope_mb_per_pass": round(slope, 6), "intercept_mb": round(intercept, 4),
            "limit_mb": round(limit, 4),
            "passes_at_limit": None if at is None else round(at, 1)}


def claim_verdict(entry: dict, metric: str) -> dict:
    """Whether a claimed gain on ``metric`` holds in ``entry``: the change
    wins at least nine tenths of the pairs (ties count for neither), and
    its median beats the parent's by more than the parent's q3 - q1."""
    m = entry["metrics"][metric]
    wins, pairs = map(int, m["change_wins"].split("/"))
    sign = 1.0 if m["better"] == "lower" else -1.0
    gap = sign * (m["parent"]["median"] - m["change"]["median"])
    spread = m["parent"]["q3"] - m["parent"]["q1"]
    return {"change_wins": m["change_wins"], "wins_needed": -(-9 * pairs // 10),
            "median_gap": round(gap, 6), "parent_iqr": round(spread, 6),
            "holds": 10 * wins >= 9 * pairs and gap > spread}


def verdict_lines(report: dict) -> list[str]:
    """The verdict, as printed: each workload's metrics against their
    bounds, its RSS line's pass count at the limit, and the claim."""
    lines = []
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            lines.append(f"{workload} {name}: {m['change']['median']:g} vs "
                         f"{m['parent']['median']:g} {m['unit']}, worse by "
                         f"{m['worse_by']:+.2%} (bound {m['bound']:.0%}): "
                         f"{'BEYOND BOUND' if m['beyond_bound'] else 'ok'}")
        if (fit := entry.get("rss_fit")) is not None:
            at = fit["passes_at_limit"]
            lines.append(f"{workload} RSS line reaches {fit['limit_mb']:g} MB at "
                         + ("no pass count (it does not rise)" if at is None
                            else f"{at:g} timed passes"))
    if (claim := report.get("claimed")) is not None:
        v = claim["verdict"]
        lines.append(f"claim {claim['workload']} {claim['metric']}: wins {v['change_wins']}"
                     f" (needs {v['wins_needed']}), median gap {v['median_gap']:g} against"
                     f" parent q3 - q1 {v['parent_iqr']:g}: "
                     f"{'holds' if v['holds'] else 'NOT MET'}")
    return lines


def rss_against_passes(name: str, entry: dict) -> str:
    """Each run's peak RSS beside its timed passes, and the least-squares
    slope of RSS over passes on both sides together."""
    lines = [f"{name}: peak_rss_mb against timed passes (parent | change)"]
    rss, passes = entry["per_run"], entry["timed_passes"]
    for i in range(entry["pairs"]):
        lines.append(f"  {passes['parent'][i]:>6} {rss['parent']['peak_rss_mb'][i]:9.3f} MB"
                     f" | {passes['change'][i]:>6} {rss['change']['peak_rss_mb'][i]:9.3f} MB")
    slope = entry["rss_fit"]["slope_mb_per_pass"]
    lines.append(f"  slope {slope:.4f} MB per timed pass; medians"
                 f" {statistics.median(passes['parent']):g}"
                 f" -> {statistics.median(passes['change']):g} passes")
    return "\n".join(lines)


def copy_sides(parent: str, into: Path) -> dict:
    """The parent's files (git archive) and the working tree's, in two folders."""
    sides = {"parent": into / "parent", "change": into / "change"}
    for path in sides.values():
        path.mkdir()
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            target = sides["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return sides


def run_pass(ops) -> tuple[list, dict]:
    """Every operation's output, None where it raised, and the failures: the
    type and text of each exception by operation index, as in run.py."""
    outputs, failures = [], {}
    for i, op in enumerate(ops):
        try:
            outputs.append(op.call())
        except Exception as exc:  # a failed operation is an outcome too
            outputs.append(None)
            failures[i] = f"{type(exc).__name__}: {exc}"
    return outputs, failures


def pin_to_one_cpu() -> None:
    """Pin the calling process to the lowest CPU it may use, where the
    platform allows.  On separate CPUs, identical trees read up to 7% apart
    on a 2-vCPU host, and at most 0.4% on one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child(folder: Path, workload: str, seed: int) -> int:
    """One side of ``--interleaved``: the workload from ``folder``'s copy.

    Writes the sha256 of its untimed pass's outputs and the number of
    operations that failed or that the workload's ``check`` failed, then for
    each line read, runs one pass and writes its process CPU time in
    seconds.  Both sides run on the lowest CPU they may use
    (``pin_to_one_cpu``).
    """
    pin_to_one_cpu()
    for var in THREAD_VARS:  # before numpy is first imported, as run.py does
        os.environ[var] = "1"
    sys.path[:0] = [str(folder / "src"), str(folder / "benchmarks")]
    import workloads

    work = workloads.WORKLOADS[workload](seed)
    ops = work.ops
    outputs, failures = run_pass(ops)
    bad = failures.keys() | work.check(outputs).bad.keys()
    digest = hashlib.sha256(repr((outputs, failures)).encode()).hexdigest()
    print(digest, len(bad), flush=True)
    for _ in sys.stdin:
        gc.collect()
        start = time.process_time()
        run_pass(ops)
        print(repr(time.process_time() - start), flush=True)
    return 0


class SideFailed(RuntimeError):
    """A side failed an operation or its workload's check, or gave no output."""


def interleave(commands: dict, rounds: int) -> dict:
    """Start ``commands[side]`` for each side, check their first lines (the
    outputs' digest and the count of failed operations), then time
    ``rounds`` rounds of one pass per side, the parent first in even
    rounds.  Returns the parent's digest, whether the change's differs,
    each side's times and the per-round ratios, change over parent."""
    children = {side: subprocess.Popen(commands[side], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
                for side in SIDES}
    try:
        digests = {}
        for side in SIDES:
            first = children[side].stdout.readline().split()
            if len(first) != 2:
                raise SideFailed(f"the {side} side gave no output")
            if first[1] != "0":
                raise SideFailed(f"the {side} side failed {first[1]} operations or their check")
            digests[side] = first[0]
        times = {side: [] for side in SIDES}
        for r in range(rounds):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                children[side].stdin.write("\n")
                children[side].stdin.flush()
                times[side].append(float(children[side].stdout.readline()))
    finally:
        for process in children.values():
            process.stdin.close()
            process.wait()
            process.stdout.close()
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {"digest": digests["parent"], "outputs_differ": digests["parent"] != digests["change"],
            "times": times, "ratios": ratios}


def ratio_line(workload: str, result: dict) -> str:
    """The per-round ratio's median and quartiles, each side's median, and
    whether the sides' outputs differ."""
    q1, median, q3 = statistics.quantiles(result["ratios"], n=4, method="inclusive")
    parent, change = (statistics.median(result["times"][side]) for side in SIDES)
    return (f"{workload}: change/parent CPU time per pass, median {median:.4f} "
            f"(q1 {q1:.4f}, q3 {q3:.4f}) over {len(result['ratios'])} rounds; "
            f"medians {parent:.6f} s -> {change:.6f} s"
            + ("; the sides' outputs differ" if result["outputs_differ"] else ""))


def child_command(folder: Path, workload: str, seed: int) -> list[str]:
    """The command line of one side's ``--interleaved`` child."""
    return [sys.executable, __file__, "--child", str(folder), workload, str(seed)]


def interleaved(parent: str, workloads: list[str], seed: int) -> int:
    """``--interleaved``: copy the two trees once, then time each workload in
    turn and print its ratio line; exit 1 at the first where a side fails."""
    with tempfile.TemporaryDirectory() as folder:
        sides = copy_sides(parent, Path(folder))
        for workload in workloads:
            commands = {side: child_command(sides[side], workload, seed) for side in SIDES}
            try:
                result = interleave(commands, ROUNDS)
            except SideFailed as exc:
                print(f"error: {workload}: {exc}", file=sys.stderr)
                return 1
            print(ratio_line(workload, result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seed", type=int, default=1, help="first seed; one seed per pair")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "TARGET"))
    parser.add_argument("--interleaved", nargs="+", choices=WORKLOADS, metavar="WORKLOAD")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(Path(args.child[0]), args.child[1], int(args.child[2]))

    parent = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    if args.interleaved:
        return interleaved(parent, args.interleaved, args.seed)
    if args.out is None:
        parser.error("--out is required unless --interleaved is given")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = [args.seed + i for i in range(PAIRS)]
    runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as folder:
        sides = copy_sides(parent, Path(folder))
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in WORKLOADS:
                for side in order:
                    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
                    out = subprocess.run(cmd, cwd=sides[side], check=True, capture_output=True,
                                         text=True, preexec_fn=pin_to_one_cpu).stdout
                    run = parse_run(out)
                    runs[workload][side].append(run)
                    print(f"seed {seed} {workload:<14} {side:<6} pass_ref_s "
                          f"{run['metrics']['pass_ref_s']:.6f} peak_rss_mb "
                          f"{run['metrics']['peak_rss_mb']:.3f} passes {run['timed_passes']}",
                          flush=True)

    env = runs[WORKLOADS[0]]["parent"][0]["env"]
    report = {
        "change": args.change,
        "parent_commit": parent,
        "machine": env.get("machine"),
        "nproc": env.get("nproc"),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "command": f"python3 benchmarks/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "method": (
            f"{PAIRS} pairs per workload, seeds {seeds[0]}-{seeds[-1]}, parent and "
            f"change alternating which runs first (odd seeds parent first); per seed the "
            f"workloads ran in the order {', '.join(WORKLOADS)}; each run pinned to one CPU "
            f"(os.sched_setaffinity in the child before exec, the lowest CPU allowed; "
            f"run.py's set-up interpreters inherit it); each side run from a "
            f"copy holding only its files (git archive of the parent; the working tree's "
            f"tracked and untracked files), by scripts/bench_pairs.py; medians and quartiles "
            f"(linear percentiles) over the runs; change_wins counts pairs where the change "
            f"is better, ties counting for neither; timed_passes lists each run's count of "
            f"timed passes (the '# N timed passes' line) and per_run each run's pass_ref_s "
            f"and peak_rss_mb, in seed order"),
    }
    if args.claim:
        report["claimed"] = dict(zip(("workload", "metric", "target"), args.claim))
    report["workloads"] = {w: aggregate(runs[w], metrics, seeds) for w in WORKLOADS}
    if args.claim:
        report["claimed"]["verdict"] = claim_verdict(
            report["workloads"][args.claim[0]], args.claim[1])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        print(rss_against_passes(workload, entry))
    print("\n".join(verdict_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
