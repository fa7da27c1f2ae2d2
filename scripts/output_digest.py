"""Print one md5 per standard CLI output, to compare two versions byte for byte.

Covers ``sweep`` and ``critical`` for each switch kind, on the default grid
and on ``0:0.53:4001``, and ``evolve`` for each switch kind at
``--t-sw 0.223``.  Each line is ``<md5>  esdsim <arguments>``; run it on two
checkouts and diff the listings:

    PYTHONPATH=src python scripts/output_digest.py
"""

import contextlib
import hashlib
import io

from esdsim.cli import main

KINDS = ("both", "alice", "bob")
SWEEP_GRIDS = ((), ("--grid", "0:0.53:4001"))


def runs():
    for command in ("sweep", "critical"):
        for kind in KINDS:
            for grid in SWEEP_GRIDS:
                yield (command, "--switch", kind, *grid)
    for kind in KINDS:
        yield ("evolve", "--switch", kind, "--t-sw", "0.223")


def digest(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"esdsim {' '.join(argv)} exited with {code}")
    return hashlib.md5(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    for argv in runs():
        print(f"{digest(argv)}  esdsim {' '.join(argv)}")
