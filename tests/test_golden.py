"""Golden numbers against tests/golden.json: certificates, levels, roots and trajectories.

A change that moves any of these numbers shows in the diff of golden.json.  The
file's first keys name the certify_global outcomes on a fixed corpus: hit or miss,
tag, tried and params must match exactly; action, level, virial and margin to
1e-12 relative, with inf and NaN matched exactly.  Then come sections that
each hold one function at fixed arguments (see SCALARS): estimate_mu's level on
(20 pi, 512) to 1e-10 relative, and mu_reference, F_sigma and z0_root to 1e-13.  Iteration counts
are not pinned; at the roundoff floor they hang on rounding.  The last section,
"integrate", holds three runs of the stepper (see _runs): every record column to
1e-12 relative, the final field to 1e-12 absolute, blowup and the end time exactly.
The last, "cli", holds nine command-line runs at small N (see CLI_RUNS): the exit
code, every cell of every CSV and of certificate.json or notfound.json, and the
manifest's check names, values and pass flags.  A number compares to 1e-12
relative, or to 1e-14 absolute where it is a roundoff residual below 1e-12; text
compares exactly.  Rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --rewrite

and say what moved and why.
"""

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from gdnls import (DiagnosticsRecord, F_sigma, Field, Grid, Params, SchemeConfig,
                   SearchConfig, SolitonSpec, certify_global, corollary15_data, estimate_mu,
                   integrate, mu_reference, profile_phi, z0_root)
from gdnls.cli import main
from helpers import gaussian_with_mass

GOLDEN = Path(__file__).with_name("golden.json")
REL = 1e-12
ROUNDED = ("action", "level", "virial", "margin")


def _corpus() -> dict:
    """name -> (data, search): the data of tests/test_criterion.py's PINNED among them."""
    g1, g2 = Grid(60.0, 1024), Grid(20 * math.pi, 1024)
    sigma1, hinted = SearchConfig(sigma=1.0), SearchConfig(sigma=2.0, strategy_hint="modulation")
    bump = np.exp(-(g1.x**2))
    out = {}
    # small, borderline and supercritical mass on either side of Wu's 4 pi
    for m in (3.0, 3.5, 3.9, 3.99, 4.0, 4.01, 4.5, 5.0):
        out[f"mass-{m}pi"] = (gaussian_with_mass(g1, m), sigma1)
    # borderline mass boosted by q = 2 pi k / L: k > 0 gives negative momentum
    for k in (-3, -1, 1, 3, 5, 6):
        out[f"mass-4pi-boost-{k}"] = (gaussian_with_mass(g1, 4.0, 2 * math.pi * k / 60.0), sigma1)
    # sigma = 2 plane-wave dressed data at box-periodic speeds 0.2 m
    psi = Field(g2, (1.2 * np.exp(-(g2.x**2) / 4)).astype(complex))
    for m in (32, 64, 80):
        out[f"modulated-sigma2-m{m}"] = (corollary15_data(psi, 0.2 * m), hinted)
    # interior-route hits, with and without a hint, and other powers
    out["interior-sigma2"] = (Field(g1, 1.5 * bump), SearchConfig(sigma=2.0))
    out["interior-sigma2-hinted"] = (Field(g1, 1.5 * bump), hinted)
    for s in (1.5, 3.0):
        for a in (0.8, 1.2, 2.0):
            out[f"amplitude-{a}-sigma{s}"] = (Field(g1, a * bump), SearchConfig(sigma=s))
    # moments that overflow, and boxes too small for all speeds but one, or any
    for a in (1e80, 1e100):
        out[f"amplitude-{a:g}"] = (Field(g1, a * bump), sigma1)
    for L in (1e-160, 1e-9):
        g = Grid(L, 1024)
        out[f"box-{L:g}"] = (Field(g, np.exp(-(g.x**2))), sigma1)
    return out


def _outcomes() -> dict:
    out = {}
    for name, (u, search) in _corpus().items():
        res = certify_global(u, search)
        out[name] = {"kind": type(res).__name__, **dataclasses.asdict(res)}
    return out


def _descent_level(*params: float) -> float:
    return estimate_mu(Params(*params), Grid(20 * math.pi, 512)).mu


# section -> (function, relative tolerance, argument tuples); each entry pins one value.
# The descent points converge in 10-17 iterations, clear of the roundoff floor.
SCALARS = {
    "estimate_mu": (_descent_level, 1e-10, [
        (1.0, 1.0, 0.0, 1.0, 0.0), (1.0, 0.9, 0.4, 1.0, -0.3),
        (2.0, 0.95, -0.3, 1.0, 0.2), (1.5, 1.0, 0.3, 1.0, -0.2)]),
    # interior points with either sign of c, and the endpoint omega = c^2/4
    "mu_reference": (lambda *a: mu_reference(Params(*a)), 1e-13, [
        (s, w, c) for s in (1.0, 1.5, 2.0, 3.0) for w, c in ((1.0, 0.5), (1.0, -1.2), (0.25, 1.0))]),
    "F_sigma": (F_sigma, 1e-13, [(-0.9, 1.0), (0.3, 1.2), (-0.5, 1.5), (0.5, 1.5), (0.9, 1.8),
                                  (0.0, 2.0)]),
    "z0_root": (z0_root, 1e-13, [(1.2,), (1.5,), (1.8,)]),
}


def _scalars() -> dict:
    return {name: [{"args": list(args), "value": fn(*args)} for args in points]
            for name, (fn, _, points) in SCALARS.items()}


def _runs() -> dict:
    """name -> (u0, scheme, params, sample_every); params pick sigma and the record frame.

    The frames sit off the data's own speeds, so no column is a roundoff-sized zero.
    """
    g = Grid(60.0, 256)
    boosted = gaussian_with_mass(g, 1.5, boost=2 * math.pi * 5 / 60.0)
    return {
        # 200 fixed steps of a sigma = 1 wave
        "soliton-sigma1": (profile_phi(SolitonSpec(1.0, 1.0, 0.5), g), SchemeConfig(1e-3, 0.2),
                           Params(1.0, 2.0, 1.0, 1.0, -0.5), 20),
        # the amplitude CFL cap sets the steps
        "gaussian-sigma2-adaptive": (boosted, SchemeConfig(0.02, 0.5, adaptive=True),
                                     Params(2.0, 1.0, 0.0, 1.0, 0.0), 4),
        # a step instability: the second step leaves the finite range, so the run ends at t = 1e-3
        "gaussian-sigma3-blowup": (boosted.with_values(3.0 / np.max(np.abs(boosted.values)) * boosted.values),
                                   SchemeConfig(1e-3, 0.2), Params(3.0, 1.0, 0.0, 1.0, 0.0), 10),
    }


def _trajectories() -> dict:
    out = {}
    for name, (u0, scheme, p, every) in _runs().items():
        traj = integrate(u0, scheme, p, sample_every=every)
        out[name] = {
            "blowup": traj.blowup,
            "end_t": traj.times[-1],
            "records": {f.name: [getattr(r, f.name) for r in traj.records]
                        for f in dataclasses.fields(DiagnosticsRecord)},
            "final": {"re": traj.final.values.real.tolist(), "im": traj.final.values.imag.tolist()},
        }
    return out


# name -> argv of one command-line run; each writes into its own directory
CLI_RUNS = {
    "soliton-sigma1": ["soliton", "--grid.N", "1024"],
    "soliton-sigma2": ["soliton", "--grid.N", "1024", "--params.sigma", "2.0", "--params.c", "0.5"],
    "verify": ["verify", "--grid.N", "256"],
    "certify-hit": ["certify", "--grid.N", "256", "--data.mass_pi", "3.9"],
    "certify-miss-tiny-box": ["certify", "--grid.L", "1e-160", "--grid.N", "256"],
    "minimize-mu": ["minimize-mu", "--grid.L", "62.83", "--grid.N", "256"],
    "simulate-soliton": ["simulate", "--data.family", "soliton", "--grid.N", "1024",
                         "--scheme.T", "0.1", "--sample_every", "10"],
    "simulate-blowup": ["simulate", "--grid.N", "256", "--data.amplitude", "50",
                        "--scheme.dt", "0.05", "--scheme.T", "1"],
    "zroot-missed-sigma": ["zroot", "--zroot.sigmas", "[1.0001, 1.5]"],
}


def _cli_runs(root: Path) -> dict:
    """name -> exit code, pinned files and manifest checks of each of CLI_RUNS, run under root.

    A CSV is its rows of cells as text; profile.csv, the sampled soliton, and the field
    files are left out.
    """
    out = {}
    for name, argv in CLI_RUNS.items():
        where = root / name
        code = main([*argv, "--out", str(where)])
        man = json.loads((where / "manifest.json").read_text())
        files = {}
        for file in man["outputs"]:
            text = (where / file).read_text()
            if file.endswith(".csv") and file != "profile.csv":
                files[file] = [line.split(",") for line in text.splitlines()]
            elif file in ("certificate.json", "notfound.json"):
                files[file] = json.loads(text)
        out[name] = {"exit": code, "files": files,
                     "checks": [[c["name"], c["value"], c["passed"]] for c in man["checks"]]}
    return out


def _close(got: float, want: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= REL * abs(want)


def test_certificates_match_golden():
    want = {k: v for k, v in json.loads(GOLDEN.read_text()).items()
            if k not in SCALARS and k not in ("integrate", "cli")}
    got = _outcomes()
    assert got.keys() == want.keys()
    for name, doc in want.items():
        assert got[name].keys() == doc.keys(), name
        for key, val in doc.items():
            ok = _close(got[name][key], val) if key in ROUNDED else got[name][key] == val
            assert ok, (name, key, got[name][key], val)


def test_levels_and_roots_match_golden():
    want = json.loads(GOLDEN.read_text())
    for name, (fn, rel, points) in SCALARS.items():
        assert [entry["args"] for entry in want[name]] == [list(args) for args in points], name
        for entry in want[name]:
            got = fn(*entry["args"])
            assert abs(got - entry["value"]) <= rel * abs(entry["value"]), (name, entry, got)


def test_trajectories_match_golden():
    want = json.loads(GOLDEN.read_text())["integrate"]
    got = _trajectories()
    assert got.keys() == want.keys()
    for name, doc in want.items():
        run = got[name]
        assert (run["blowup"], run["end_t"]) == (doc["blowup"], doc["end_t"]), name
        assert run["records"].keys() == doc["records"].keys(), name
        for col, vals in doc["records"].items():
            assert len(run["records"][col]) == len(vals), (name, col)
            assert all(map(_close, run["records"][col], vals)), (name, col, run["records"][col], vals)
        for part, vals in doc["final"].items():
            err = np.max(np.abs(np.subtract(run["final"][part], vals)))
            assert err <= 1e-12, (name, part, err)


def _same_output(got, want) -> bool:
    """want's structure, with each number (or CSV cell that reads as one) within tolerance."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same_output(got[key], val) for key, val in want.items())
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_same_output, got, want)))
    if isinstance(want, str):
        try:
            got_num, want_num = float(got), float(want)
        except ValueError:
            return got == want
    elif isinstance(want, float):
        got_num, want_num = got, want
    else:  # an int, a bool or null: a count, a flag, or a non-finite value written as null
        return got == want and type(got) is type(want)
    return _close(got_num, want_num) or abs(want_num) < 1e-12 and abs(got_num - want_num) <= 1e-14


def test_cli_outputs_match_golden(tmp_path):
    want = json.loads(GOLDEN.read_text())["cli"]
    got = _cli_runs(tmp_path)
    assert got.keys() == want.keys()
    for name, doc in want.items():
        assert got[name]["exit"] == doc["exit"], name
        for part in ("files", "checks"):
            assert _same_output(got[name][part], doc[part]), (name, part, got[name][part])


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**_outcomes(), **_scalars(), "integrate": _trajectories(), "cli": _cli_runs(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
