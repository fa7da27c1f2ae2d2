"""Shared samplers and helpers for randomized batteries (all seeded by the
caller), and the benchmark's modules as a fixture."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from esdsim import XState

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def random_xstate(rng: np.random.Generator, slot: str = "inner") -> XState:
    """A random valid X state; coherence in the requested slot (or none)."""
    a, b, c, d = (3.0 * w for w in rng.dirichlet(np.ones(4)))
    if slot == "inner":
        z = rng.uniform(-1.0, 1.0) * np.sqrt(b * c)
        return XState(a, b, c, d, z_inner=float(z))
    if slot == "corner":
        z = rng.uniform(-1.0, 1.0) * np.sqrt(a * d)
        return XState(a, b, c, d, z_corner=float(z))
    return XState(a, b, c, d)


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A random full-rank two-qubit density matrix (Ginibre construction)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / m.trace().real


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def outcome(build, *args):
    """What ``build(*args)`` does: "ok", or the exception's type and text.

    Overflow counts as an outcome too, so that a test can assert that a
    check never overflows.
    """
    try:
        build(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return "ok"


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
