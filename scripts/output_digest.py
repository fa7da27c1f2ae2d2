"""Print one md5 per standard CLI output, to compare two versions byte for byte.

Covers ``sweep`` and ``critical`` for each switch kind, on the default grid
and on ``0:0.53:4001``, and ``evolve`` for each switch kind at
``--t-sw 0.223``.  Two more cases reach cells the canonical state never
writes: ``evolve`` out to tau = 800, where coefficients turn subnormal and
then 0 (and the entropy 0), and ``evolve`` and ``sweep`` from a
corner-coherence state with a negative ``z_corner`` (``corner.json``).  A
physical-units scenario (``physical.json``: ``gamma`` 2, ``time_unit``
"physical", a two-entry ``schedule`` and a ``grid``) runs ``evolve``, and
``sweep`` and ``critical`` for ``alice`` on that grid, so the conversion of
times to tau is compared too.  Last, ``evolve`` runs a schedule whose switch
times are JSON ints with gaps past int64 (``bigint.json``: 0.1, 10**30 and
10**300), which ``SwitchEvent`` stores as floats.  The script writes the
configs to a temporary directory and runs from there.  Each line is
``<md5>  esdsim <arguments>``; run it on two checkouts and diff the listings,
or diff it with the committed listing ``output_digest.md5``, which
``tests/test_cli.py`` checks:

    PYTHONPATH=src python scripts/output_digest.py | diff scripts/output_digest.md5 -
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from esdsim.cli import main

KINDS = ("both", "alice", "bob")
SWEEP_GRIDS = ((), ("--grid", "0:0.53:4001"))
CORNER = {"a": 0.9, "b": 0.6, "c": 0.3, "d": 1.2, "z_inner": 0.0, "z_corner": -0.95}
# Times in t = tau / 2: switches at tau = 0.1 and 0.3, switch times up to
# tau = 0.52, below the unswitched end at tau = 0.534.
PHYSICAL = {
    "gamma": 2.0,
    "time_unit": "physical",
    "schedule": [{"time": 0.05, "switch": "both"}, {"time": 0.15, "switch": "alice"}],
    "grid": {"start": 0.0, "stop": 0.26, "count": 2001},
}
BIGINT = {"schedule": [{"time": 0.1, "switch": "both"}, {"time": 10**30, "switch": "both"},
                       {"time": 10**300, "switch": "alice"}]}
CONFIGS = {"corner.json": CORNER, "physical.json": PHYSICAL, "bigint.json": BIGINT}


def runs():
    for command in ("sweep", "critical"):
        for kind in KINDS:
            for grid in SWEEP_GRIDS:
                yield (command, "--switch", kind, *grid)
    for kind in KINDS:
        yield ("evolve", "--switch", kind, "--t-sw", "0.223")
    yield ("evolve", "--switch", "both", "--t-sw", "0.223", "--grid", "0:800:4001")
    yield ("evolve", "--config", "corner.json", "--switch", "both", "--t-sw", "0.3")
    yield ("sweep", "--config", "corner.json", "--switch", "alice")
    yield ("evolve", "--config", "physical.json")
    for command in ("sweep", "critical"):
        yield (command, "--config", "physical.json", "--switch", "alice")
    yield ("evolve", "--config", "bigint.json")


@contextlib.contextmanager
def scenario_dir():
    """Run from a temporary directory that holds the ``CONFIGS`` files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def digest(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"esdsim {' '.join(argv)} exited with {code}")
    return hashlib.md5(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    with scenario_dir():
        for argv in runs():
            print(f"{digest(argv)}  esdsim {' '.join(argv)}")
