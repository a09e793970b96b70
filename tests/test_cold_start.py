"""No run loads scipy: a sigma = 1 run, a sigma != 1 endpoint certificate, the
sigma != 1 interior level, a sigma = 2 minimize-mu run and z0_root run on numpy alone.
Nor does a CLI run load importlib.metadata and the email package it pulls in: the
manifest's version is the constant gdnls.__version__."""

import os
import subprocess
import sys
from pathlib import Path

from gdnls import Params, mu_reference

SRC = str(Path(__file__).resolve().parents[1] / "src")

INTERIOR = Params(2.0, 1.0, 0.5)

SCRIPT = f"""
import sys, tempfile

import numpy as np

import gdnls, gdnls.cli
from gdnls import (Field, Grid, Params, SchemeConfig, SearchConfig, certify_global,
                   corollary15_data, integrate, mu_reference, z0_root)

with tempfile.TemporaryDirectory() as tmp:
    assert gdnls.cli.main(["certify", "--grid.N", "512", "--out", tmp]) == 0
g = Grid(40.0, 256)
u0 = Field(g, np.exp(-g.x**2).astype(complex))
traj = integrate(u0, SchemeConfig(1e-3, 5e-3), Params(1.0, 1.0, 0.0))
assert not traj.blowup and traj.times[-1] == 5e-3
mu_reference(Params(2.0, 0.25, 1.0))
# acceptance 6's modulated sigma = 2 datum hits on the endpoint route
g2 = Grid(20 * np.pi, 1024)
psi = Field(g2, (1.2 * np.exp(-(g2.x**2) / 4)).astype(complex))
hit = certify_global(corollary15_data(psi, 12.8), SearchConfig(2.0, "modulation"))
assert hit.strategy == "modulation", hit
print(repr(mu_reference({INTERIOR!r})))
with tempfile.TemporaryDirectory() as tmp:
    assert gdnls.cli.main(["minimize-mu", "--params.sigma", "2", "--params.c", "0.5",
                           "--params.beta", "-0.5", "--grid.L", "62.83", "--grid.N", "512",
                           "--out", tmp]) == 0
z0_root(1.5)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded[:5]
unwanted = sorted(m for m in sys.modules if m == "email" or m.startswith(("email.", "importlib.metadata")))
assert not unwanted, unwanted[:5]
"""


def test_no_run_loads_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # the interior level is the same in a process that never loaded scipy
    assert float(out.stdout.strip().splitlines()[-1]) == mu_reference(INTERIOR)
