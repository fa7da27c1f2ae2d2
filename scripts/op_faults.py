"""Print the CPU time and the minor page faults of each standard CLI output.

Runs every command of ``output_digest.runs()`` in-process, with stdout
captured in memory as the benchmark's CLI operations capture it, ``N`` times
after one warm-up run, and prints per command the median CPU ms per run and
the median minor page faults per run (``resource.getrusage``).  Faults that
recur on every run are pages the program maps in afresh for its own
temporaries; a steady state reads 0.  Run it on two checkouts and compare:

    PYTHONPATH=src python scripts/op_faults.py [N]
"""

import contextlib
import io
import resource
import statistics
import sys
import time

from esdsim.cli import main
from output_digest import runs, scenario_dir


def measure(argv: tuple[str, ...], repeats: int) -> tuple[float, float]:
    cpu, faults = [], []
    for _ in range(repeats + 1):  # the first run warms up and is dropped
        out = io.StringIO()
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        t1, f1 = time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if code != 0:
            raise SystemExit(f"esdsim {' '.join(argv)} exited with {code}")
        cpu.append(1e3 * (t1 - t0))
        faults.append(f1 - f0)
    return statistics.median(cpu[1:]), statistics.median(faults[1:])


if __name__ == "__main__":
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    print(f"{'cpu_ms':>8}  {'faults':>6}  command ({repeats} runs each, medians)")
    with scenario_dir():
        for argv in runs():
            ms, faults = measure(argv, repeats)
            print(f"{ms:8.2f}  {faults:6.0f}  esdsim {' '.join(argv)}")
