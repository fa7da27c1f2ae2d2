"""The benchmark's bindings to the package: its modules import, its workloads
build, and its tracer wraps every traced name (no benchmark pass is run)."""

import importlib.util
import sys
from pathlib import Path

import pytest

import esdsim
import esdsim.cli
from esdsim import deathclock

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    """benchmarks/oracle.py, workloads.py and tracer.py, loaded by path.

    ``workloads`` imports ``oracle`` by name, so each module is registered
    under its own name for the test's duration.
    """
    modules = {}
    for name in ("oracle", "workloads", "tracer"):
        spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules


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
