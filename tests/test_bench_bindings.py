"""The benchmark's bindings to the package: its modules import, its workloads
build, and its tracer wraps every traced name (no benchmark pass is run); and
the matrix route defines no name that neither the package nor the benchmark
binds."""

import ast
from pathlib import Path

import esdsim
import esdsim.cli
from esdsim import deathclock

from conftest import BENCHMARKS


def test_every_workload_builds(bench):
    workloads = bench["workloads"].WORKLOADS
    assert sorted(workloads) == ["evolve_dense", "phase_map", "sweep_critical"]
    for name, workload in workloads.items():
        built = workload(1)
        assert built.ops and built.points > 0, name


def test_tracer_wraps_every_traced_name_and_puts_it_back(bench):
    tracing = bench["tracer"]
    originals = {name: getattr(*tracing._resolve(*where))
                 for name, where in tracing.TRACED.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, where in tracing.TRACED.items():
            assert getattr(*tracing._resolve(*where)) is not originals[name], name
        assert esdsim.cli.find_end_time is deathclock.find_end_time is not (
            originals["deathclock.find_end_time"])
        esdsim.find_end_time(esdsim.XState(1.0, 1.0, 1.0, 0.0, z_inner=1.0))
        assert "deathclock.find_end_time" in [span[0] for span in tracer.spans]
    finally:
        tracer.uninstall()
    for name, where in tracing.TRACED.items():
        assert getattr(*tracing._resolve(*where)) is originals[name], name
    assert esdsim.cli.find_end_time is originals["deathclock.find_end_time"]


def imports_from(path, module):
    """The names the file ``path`` imports from ``esdsim.<module>``,
    absolutely or relatively."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.module, node.level) in ((f"esdsim.{module}", 0), (module, 1))
            for alias in node.names}


def defined_names(path):
    """The names the module at ``path`` defines at its top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_matrix_route_is_what_its_callers_bind(bench):
    # Each public name defined in channel, intervention and qstate is in
    # esdsim.__all__, imported by another module of the package, imported
    # by the benchmark's oracle or workloads, or traced by its tracer.  A
    # helper that only its own module (or only the tests) calls belongs
    # inside its caller.
    package = Path(esdsim.__file__).parent
    for module in ("channel", "intervention", "qstate"):
        path = package / f"{module}.py"
        bound = set(esdsim.__all__)
        bound |= {name for other in package.glob("*.py") if other != path
                  for name in imports_from(other, module)}
        bound |= {name for script in ("oracle.py", "workloads.py")
                  for name in imports_from(BENCHMARKS / script, module)}
        bound |= {attr.split(".")[0] for where, attr in bench["tracer"].TRACED.values()
                  if where == f"esdsim.{module}"}
        public = {name for name in defined_names(path) if not name.startswith("_")}
        assert sorted(public - bound) == [], module
