"""Layered benchmark for esdsim: one workload per run, one process, one thread.

    python3 benchmarks/run.py --workload evolve_dense --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout; nothing needs installing.  A run measures set-up (fresh
interpreters importing ``esdsim.cli``), makes one untimed pass whose outputs
become the reference, then repeats whole passes for ``--seconds``.  Every
operation is timed on its own, under a timeout, and every output is
compared with the reference, which the oracle checks in ``oracle.py``
verify outside the timed region.  Timings are divided by the time of a
fixed reference loop run beside them (see ``REF_S``), because the host's
speed drifts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
alternates untraced passes with passes that record spans around each
module's public functions (``tracer.py``) and reports the per-layer
metrics; the spans of one traced pass are written to ``.bench_out/``.  Human-readable lines come
first; the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60.0
# Per-operation timeouts.  The workloads use the CLI default tol, so no
# operation should come near them; the known hang for tol below the float
# spacing at the root is a correctness defect that belongs to a regression
# test, not to a workload here.
TIMEOUT_S = {"evolve_dense": 60.0, "sweep_critical": 60.0, "phase_map": 5.0}
# op_ref_ms_tail is the highest of these percentiles of the operations'
# median latencies with at least ten operations beyond it, else the slowest
# operation (p100): p99 of the 9216 phase_map queries, the slowest command of
# the CLI workloads.  Each operation's latency is its median over the passes;
# pooled over the passes, the p99 of a 0.1 ms query is set by spells of a
# slow host, not by the query, and spread by 14% (IQR / median) over ten runs.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0)
# Timings other than setup_s are process CPU time in reference time, and
# setup_s is wall time in reference time, still written in s, the unit the
# benchmark format requires of it.  CPU time leaves out the spells in which
# the process waits for the processor.
# The host's speed also drifts, by tens of percent within a second and
# between minutes (README.md, "Reference time"), so a timed pass runs in
# segments of at least SEGMENT_S, with a fixed loop that does not touch esdsim
# (reference_loop) timed before the first segment and after each one.  A
# segment's CPU time divided by the mean of the two reference times around
# it, times REF_S, is its time in ref_s: CPU seconds of a host on which the
# loop takes REF_S, about its time in the quiet spells of the host this was
# tuned on.
CLOCK = time.process_time
REF_SIZE = 60  # reference_loop work
REF_S = 0.008
SEGMENT_S = 0.1
END_TO_END = (
    ("setup_s", "s"), ("pass_ref_s", "ref_s"), ("points_per_ref_s", "1/ref_s"),
    ("op_ref_ms_p50", "ref_ms"), ("op_ref_ms_tail", "ref_ms"), ("peak_rss_mb", "MB"),
)


class OpTimeout(Exception):
    """An operation ran past its timeout."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation timed out")


def environment() -> dict:
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in open("/proc/cpuinfo", encoding="utf-8")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    import numpy
    return {
        "machine": f"{platform.machine()} {cpu}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing esdsim.cli (first is warm-up).

    Returned as seconds and in reference time: the reference loop runs before
    the first interpreter and after each one, as around the segments of a
    pass.  The timeout comes from the interval timer, not
    ``subprocess.run(timeout=)``, whose polling wait would round the times up
    to its sleep steps.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-c", "import esdsim.cli"]
    times, scaled = [], []
    reference_loop()  # warm-up: its first call loads numpy's LAPACK
    before = time_reference()
    for _ in range(SETUP_SAMPLES + 1):
        signal.setitimer(signal.ITIMER_REAL, SETUP_TIMEOUT_S)
        try:
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        after = time_reference()
        scaled.append(times[-1] * REF_S / ((before + after) / 2.0))
        before = after
    return times[1:], scaled[1:]


def reference_loop() -> float:
    """A fixed mix of the work esdsim does, without calling esdsim.

    Scalar math in a Python loop (root finding), 4x4 ``eigvalsh`` and
    ``kron`` (the matrix measures) and float formatting (the CSV).  Its
    time tracks the host's speed; no change to the package moves it.
    """
    import numpy as np
    acc, x = 0.0, 0.3
    for i in range(REF_SIZE * 100):
        x = math.exp(-x) * 0.5 + math.sqrt(x + 1.0) * 0.25
        acc += x if i & 1 else -x
    eye = np.eye(4)
    m = np.array([[0.4, 0, 0, 0.1], [0, 0.1, 0, 0], [0, 0, 0.1, 0], [0.1, 0, 0, 0.4]])
    for i in range(REF_SIZE * 3):
        w = np.linalg.eigvalsh(m + (i * 1e-4) * eye)
        acc += float(w[0]) + float(np.kron(m[:2, :2], m[2:, 2:])[0, 0])
    text = ",".join(f"{acc * k:.10g}" for k in range(REF_SIZE * 30))
    return acc + len(text)


def time_reference() -> float:
    t0 = CLOCK()
    reference_loop()
    return CLOCK() - t0


class Pass:
    """Timings and failures of one run of every operation.

    Without a ``reference`` the outputs are kept (this pass becomes the
    reference); with one, each output is compared with it as soon as the
    operation returns and then dropped, so memory does not grow with the
    number of passes.

    With ``segment_s`` the operations are timed in segments of at least that
    many seconds, and the reference loop runs before the first segment and
    after each one.  A segment's times are converted to reference time with
    the mean of the two reference times around it: ``ref_elapsed`` and
    ``ref_latencies`` are ``elapsed`` and ``latencies`` in ref_s.  All times
    are process CPU time (``CLOCK``); the timeout runs on wall time.
    """

    def __init__(self, ops, timeout: float, reference=None, tracer=None,
                 segment_s: float | None = None) -> None:
        self.outputs: list = []
        # Doubles, not lists of floats: a run keeps every pass's latencies,
        # and boxed floats would add several MB to peak_rss_mb that grow
        # with the number of passes, which is set by the host's speed.
        self.latencies = array.array("d")
        self.failures: dict[int, str] = {}
        self.mismatched: set[int] = set()
        self.bytes_out = 0
        self.elapsed = 0.0
        self.ref_elapsed = 0.0
        self.ref_latencies = array.array("d")
        self.refs: list[float] = []
        if segment_s is not None:
            self.refs.append(time_reference())
        segment = 0  # index into latencies where the current segment starts
        start = CLOCK()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            try:
                signal.setitimer(signal.ITIMER_REAL, timeout)
                try:
                    t0 = CLOCK()
                    out = op.call()
                finally:
                    t1 = CLOCK()
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
            except Exception as exc:  # counted as a failed operation
                out = None
                self.failures[i] = f"{type(exc).__name__}: {exc}"
                if tracer is not None:
                    tracer.stack.clear()
            if op.latency:
                self.latencies.append(t1 - t0)
            if isinstance(out, str):
                self.bytes_out += len(out)  # the CSV is ASCII
            if reference is None:
                self.outputs.append(out)
            elif out != reference.outputs[i]:
                self.mismatched.add(i)
            now = CLOCK()
            if segment_s is None or (now - start < segment_s and i + 1 < len(ops)):
                continue
            self.refs.append(time_reference())
            scale = REF_S / ((self.refs[-2] + self.refs[-1]) / 2.0)
            self.elapsed += now - start
            self.ref_elapsed += (now - start) * scale
            self.ref_latencies.extend(x * scale for x in self.latencies[segment:])
            segment = len(self.latencies)
            start = CLOCK()
        if segment_s is None:
            self.elapsed = CLOCK() - start


def repeat_passes(ops, timeout: float, seconds: float, reference: Pass) -> list[Pass]:
    """Whole passes, timed in segments, until ``seconds`` have gone by; at least one."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        passes.append(Pass(ops, timeout, reference, segment_s=SEGMENT_S))
        if time.perf_counter() >= deadline:
            return passes


def tail_percentile(samples) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, else the maximum."""
    import numpy
    n = len(samples)
    pct = max([p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0], default=100.0)
    return pct, float(numpy.percentile(samples, pct))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    if not (SRC / "esdsim" / "__init__.py").is_file():
        print(f"error: no esdsim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment()
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("# env " + json.dumps(env))
    setup, setup_ref = ([], []) if args.trace else measure_setup()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"# inputs: {workload.inputs}")
    ops, timeout = workload.ops, TIMEOUT_S[args.workload]

    reference = Pass(ops, timeout)
    check = workload.check(reference.outputs)
    bad = set(reference.failures) | set(check.bad)
    if args.trace:
        # Untraced and traced passes alternate, so that both see the same
        # spells of a noisy host and their ratio is the tracing overhead.
        tracer = tracing.Tracer()
        plain, traced_passes, layers, first_spans = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while not traced_passes or time.perf_counter() < deadline:
            gc.collect()
            plain.append(Pass(ops, timeout, reference))
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                traced_passes.append(Pass(ops, timeout, reference, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracing.layer_metrics(
                tracer.spans, tracer.eig_calls, workload.points, traced_passes[-1].bytes_out))
            if not first_spans:
                first_spans.extend(tracer.spans)
        passes = plain + traced_passes
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
        tracing.write_spans(spans_file, first_spans)
    else:
        wall = time.perf_counter()
        passes = repeat_passes(ops, timeout, args.seconds, reference)
        wall = time.perf_counter() - wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(ops) * (1 + len(passes))
    failed = len(bad)
    failures = dict(reference.failures)
    for p in passes:
        failures.update(p.failures)
        failed += len(bad | set(p.failures) | p.mismatched)
    max_abs_err = max(check.errors.values(), default=0.0)

    for line in check.notes:
        print(f"# {line}")
    for group, err in sorted(check.errors.items()):
        print(f"# oracle: {group}: max abs err {err:.3e}")
    for i, reason in sorted({**check.bad, **failures}.items())[:5]:
        print(f"# failed op {i}: {reason}")

    metrics = {}
    if args.trace:
        counts_repeat = all(
            {k: v for k, v in m.items() if not isinstance(v, float)}
            == {k: v for k, v in layers[0].items() if not isinstance(v, float)}
            for m in layers)
        if not counts_repeat:
            print("# traced counts differ between passes")
        untraced = statistics.median(p.elapsed for p in plain)
        traced = statistics.median(p.elapsed for p in traced_passes)
        for name, unit in tracing.LAYER_METRICS:
            if name == "trace.overhead_ratio":
                value = traced / untraced
            elif isinstance(layers[0][name], float):
                value = statistics.median(m[name] for m in layers)
            else:
                value = layers[0][name]
            metrics[name] = metric(value, unit)
        print(f"# {len(plain)} untraced and {len(traced_passes)} traced passes; "
              f"spans of the first traced pass: {spans_file.relative_to(ROOT)}")
    else:
        counts_repeat = True
        import numpy
        # Each operation's median latency over the passes, in CPU and in
        # reference time; p50 and tail are taken over operations.
        cpu_ms = numpy.median([p.latencies for p in passes], axis=0) * 1e3
        ref_ms = numpy.median([p.ref_latencies for p in passes], axis=0) * 1e3
        pct, tail = tail_percentile(ref_ms)
        pass_ref_s = statistics.median(p.ref_elapsed for p in passes)
        values = {
            "setup_s": statistics.median(setup_ref),
            "pass_ref_s": pass_ref_s,
            "points_per_ref_s": workload.points / pass_ref_s,
            "op_ref_ms_p50": float(numpy.median(ref_ms)),
            "op_ref_ms_tail": tail,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
        refs = [r for p in passes for r in p.refs]
        pass_cpu_s = statistics.median(p.elapsed for p in passes)
        print(f"# {len(passes)} timed passes of {workload.points} points and {len(ops)} "
              f"operations in {wall:.1f} s of wall time, reference loops included; "
              f"op_ref_ms_tail is p{pct:g} of {len(ref_ms)} operations")
        print(f"# reference loop: median {statistics.median(refs) * 1e3:.3f} ms, "
              f"{min(refs) * 1e3:.3f} to {max(refs) * 1e3:.3f} ms over {len(refs)} "
              f"segment ends (REF_S {REF_S * 1e3:g} ms)")
        print(f"# in CPU time: pass {pass_cpu_s:.6g} s, {workload.points / pass_cpu_s:.6g} "
              f"points/s, op p50 {numpy.median(cpu_ms):.6g} ms, op "
              f"p{pct:g} {tail_percentile(cpu_ms)[1]:.6g} ms")
        print(f"# set-up wall time: median {statistics.median(setup):.4f} s, samples "
              f"{', '.join(f'{t:.4f}' for t in setup)}")
        for i, argv in enumerate(getattr(workload, "argvs", [])):
            print(f"# op median {cpu_ms[i]:9.3f} ms, {ref_ms[i]:9.3f} ref_ms: "
                  f"esdsim {' '.join(argv)}")
        print(f"{'failed_share':<36} {failed / attempted:<14.6g} 1")
        print(f"{'max_abs_err':<36} {max_abs_err:<14.3e} tau")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:<14.6g} {m['unit']}")

    correct = failed == 0 and counts_repeat
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    names = ("evolve_dense", "sweep_critical", "phase_map")
    parser = argparse.ArgumentParser(description="esdsim layered benchmark")
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    # Every workload in its own process, so that peak memory stays separate.
    code = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
