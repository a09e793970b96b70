"""scipy loads on first use: a sigma = 1 run never imports it, and the sigma != 1
interior level loads scipy.special alone."""

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
from gdnls import Field, Grid, Params, SchemeConfig, integrate, mu_reference

with tempfile.TemporaryDirectory() as tmp:
    assert gdnls.cli.main(["certify", "--grid.N", "512", "--out", tmp]) == 0
g = Grid(40.0, 256)
u0 = Field(g, np.exp(-g.x**2).astype(complex))
traj = integrate(u0, SchemeConfig(1e-3, 5e-3), Params(1.0, 1.0, 0.0))
assert not traj.blowup and traj.times[-1] == 5e-3
mu_reference(Params(2.0, 0.25, 1.0))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded[:5]
print(repr(mu_reference({INTERIOR!r})))
assert "scipy.special" in sys.modules
assert "scipy.integrate" not in sys.modules
"""


def test_sigma_one_runs_never_load_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # scipy was deferred, not removed: the interior level loads it and agrees exactly
    assert float(out.stdout.strip().splitlines()[-1]) == mu_reference(INTERIOR)
