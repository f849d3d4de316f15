import math
import os
from pathlib import Path

import numpy as np
import pytest

import fconc.verify
from fconc import cli, probe

SRC = Path(__file__).resolve().parents[1] / "src"

# kappas of the reference table plus two below 1
PROBE_KAPPAS = (0.5, 0.9, 1.0, 1.00005, 1.001, 1.005, 1.05, 1.5, 3.0, 3.005, 3.05, math.pi, 4.0, 6.0, 8.0, 16.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tight_oracle(monkeypatch):
    """The tanh-sinh oracle held to a log tolerance of 2.5e-13 within 5
    refinement levels, which large shapes cannot meet: a forced
    QuadratureError."""
    monkeypatch.setattr(fconc.verify, "_LOG_TOLERANCE", 2.5e-13)
    monkeypatch.setattr(fconc.verify, "_MAX_LEVEL", 5)


def seeded_triples(seed, n, lo, hi):
    """(x, a, b) triples with x ~ U(0,1) and a, b log-uniform on [lo, hi]."""
    g = np.random.default_rng(seed)
    x = g.uniform(0.0, 1.0, n)
    a = np.exp(g.uniform(np.log(lo), np.log(hi), n))
    b = np.exp(g.uniform(np.log(lo), np.log(hi), n))
    return np.column_stack([x, a, b])


def child_env():
    """os.environ with this checkout's src first on PYTHONPATH, so a child
    process imports the fconc under test, installed or not."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def patch_infimum(monkeypatch, grid_min, limit_min):
    """Make cli.infimum, which table, inf and sweep all call, report these
    minima, at (d1, d2) = (3, 7) and a = 2.0, as a numerics bug would: no
    real probe value reaches 1/2 above kappa = 1, so this is the only way
    into the counterexample path."""

    def fake(kappa, grid, a_grid=None, workers=None):
        return probe.ProbeResult(kappa=kappa, grid_min=grid_min, argmin_d1=3, argmin_d2=7, grid=grid,
                                 limit_min=limit_min, limit_argmin_a=2.0, flags=(probe.FLAG_CONJECTURE_REGIME,))

    monkeypatch.setattr(cli, "infimum", fake)
