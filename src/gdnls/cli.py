"""Command-line interface: subcommands over the library with reproducible outputs.

Configuration is one JSON document; any key can be overridden on the command
line with --section.key value pairs, and every value must have the kind of its
default (see _checked).  Every run writes a manifest next to its outputs with the resolved
config, wall clock, metrics, and per-check pass/fail, so a run can be replayed
and audited.  Exit codes: 0 all checks passed, 1 a check failed, 2 bad config or
input, 3 an unexpected error (a program bug; its traceback is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .core import (Field, Grid, Params, load_field, modulate, require_admissible, save_field, write_table,
                   write_text)
from .criterion import Certificate, SearchConfig, certify_global, membership
from .errors import (BadExponents, IncompatibleModulation, NoBracket, NotAdmissible, SigmaUnsupported,
                     ZeroField)
from .evolve import SchemeConfig, integrate, write_trajectory_csv
# action_S, energy and momentum are unused here; bench/tracer.py patches them by name
from .functionals import action_S, energy, gn1_ratio, identity_suite, mass, moments, momentum  # noqa: F401
from .variational import MinimizeConfig, estimate_mu, mu_reference
from .waves import (
    F_sigma,
    SolitonSpec,
    closed_form_invariants,
    elliptic_residual,
    profile_Phi,
    profile_phi,
    traveling_wave,
    z0_root,
)

__all__ = ["main"]


class ConfigError(Exception):
    pass


DEFAULTS: dict = {
    "out": "gdnls-out",
    "sample_every": 10,
    "grid": {"L": 60.0, "N": 4096},
    "params": {"sigma": 1.0, "omega": 1.0, "c": 0.0, "alpha": 1.0, "beta": 0.0},
    "scheme": {"dt": 1e-3, "T": 5.0, "adaptive": False},
    "data": {
        "family": "gaussian",  # gaussian | soliton | modulated | file
        "amplitude": 1.0,
        "width": 1.0,
        "x0": 0.0,
        "mass_pi": None,  # rescale so total mass = mass_pi * pi
        "speed": 0.0,  # plane-wave factor e^(i*speed*x/2); must be box-periodic
        "file": None,
    },
    "minimize": {"grad_tol": 1e-5},
    "verify": {"fields": 30},
    "zroot": {"sigmas": [1.2, 1.5, 1.8]},
}


# the kind of each key whose default is null; these keys also take null
_NULLABLE = {"data.mass_pi": 0.0, "data.file": ""}


def _checked(where: str, base, val, token: bool):
    """val as the kind of base, the value it replaces, or a ConfigError naming the key.

    A float key takes a finite number, a count (an int default) a whole number >= 1, a switch
    a boolean, zroot.sigmas a non-empty list of finite numbers, a string key text.  A
    command-line token is read as JSON (NaN and Infinity included, and refused), except for
    a string key, which takes the token as it is.
    """
    kind = _NULLABLE.get(where, base)
    if token and isinstance(val, str) and not isinstance(kind, str):
        with contextlib.suppress(ValueError):  # a bare word stays text
            val = json.loads(val)
    if val is None and where in _NULLABLE:
        return None
    # a finite float, or an int (not a bool) that converts to one without overflow
    number = lambda v: (isinstance(v, float) and math.isfinite(v)
                        or type(v) is int and abs(v) <= sys.float_info.max)
    if isinstance(kind, bool):
        ok, want = isinstance(val, bool), "true or false"
    elif isinstance(kind, str):
        ok, want = isinstance(val, str), "text"
    elif isinstance(kind, int):
        ok, want = number(val) and val >= 1 and val % 1 == 0, "a whole number of at least 1"
    elif isinstance(kind, float):
        ok, want = number(val), "a finite number"
    else:  # zroot.sigmas
        ok = isinstance(val, list) and val and all(map(number, val))
        want = "a non-empty list of finite numbers"
    if not ok:
        raise ConfigError(f"{where} must be {want}, got {val!r}")
    return [float(v) for v in val] if isinstance(kind, list) else type(kind)(val)


def _overlay(base: dict, over, token: bool, path: str = "") -> dict:
    """A copy of base with over laid on top, each value checked by _checked; a key base lacks is an error."""
    if not isinstance(over, dict):
        raise ConfigError(f"expected an object at {path or 'top level'}")
    out = copy.deepcopy(base)
    for key, val in over.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        out[key] = (_overlay(base[key], val, token, where) if isinstance(base[key], dict)
                    else _checked(where, base[key], val, token))
    return out


def _parse_overrides(tokens: list[str]) -> dict:
    """--section.key value pairs as a nested dict of the raw value tokens."""
    cfg: dict = {}
    for i in range(0, len(tokens), 2):
        if not tokens[i].startswith("--"):
            raise ConfigError(f"expected --key, got {tokens[i]!r}")
        if i + 1 == len(tokens):
            raise ConfigError(f"missing value for {tokens[i]!r}")
        *parents, leaf = tokens[i][2:].split(".")
        node = cfg
        for depth, part in enumerate(parents):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                section = ".".join(parents[: depth + 1])
                raise ConfigError(f"{tokens[i]!r} sets a key of {section!r}, which was given a value")
        node[leaf] = tokens[i + 1]
    return cfg


def resolve_config(config_path: str | None, overrides: list[str]) -> dict:
    cfg = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path!r} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return _overlay(_overlay(DEFAULTS, cfg, False), _parse_overrides(overrides), True)


@contextlib.contextmanager
def _config_input():
    """Report a TypeError or ValueError raised while reading the config as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


@_config_input()
def _grid(cfg: dict) -> Grid:
    return Grid(**cfg["grid"])


@_config_input()
def _params(cfg: dict) -> Params:
    out = Params(**cfg["params"])
    require_admissible(out.sigma, out.omega, out.c)
    return out


@_config_input()
def _soliton_spec(cfg: dict) -> SolitonSpec:
    p = cfg["params"]
    return SolitonSpec(p["sigma"], p["omega"], p["c"], x0=cfg["data"]["x0"])


@_config_input()
def _initial_data(cfg: dict, grid: Grid) -> Field:
    d = cfg["data"]
    family = d["family"]
    if family in ("file", "soliton"):
        for key in ("mass_pi", "speed"):
            if d[key] != DEFAULTS["data"][key]:
                raise ConfigError(f"data.{key} does not apply to data.family {family!r}")
    if family == "file":
        if not d["file"]:
            raise ConfigError("data.family 'file' needs data.file")
        try:
            u = load_field(d["file"])
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot read data.file {d['file']!r}: {exc!r}") from exc
        if u.grid != grid:
            raise ConfigError(f"field file {d['file']!r} is on L={u.grid.L}, N={u.grid.N}: set grid.L and grid.N")
        return u
    if family == "soliton":
        return profile_phi(_soliton_spec(cfg), grid)
    if family not in ("gaussian", "modulated"):
        raise ConfigError(f"unknown data.family {d['family']!r}")
    x = grid.x
    with np.errstate(divide="ignore", invalid="ignore"):  # width 0: Field refuses the NaN samples
        vals = d["amplitude"] * np.exp(-(((x - d["x0"]) / d["width"]) ** 2))
    u = Field(grid, vals)
    if d["speed"]:
        try:
            u = modulate(u, d["speed"])
        except IncompatibleModulation as exc:
            raise ConfigError(f"data.speed {d['speed']} is not periodic: {exc}") from exc
    if d["mass_pi"] is not None:
        if not (m := mass(u)):
            raise ConfigError("data.mass_pi cannot rescale zero data")
        u = u.with_values(u.values * math.sqrt(d["mass_pi"] * math.pi / m))
    return u


def _strict_json(doc) -> str:
    """doc as strict JSON text: a NaN or infinite float, at any depth, is null."""
    def finite(val):
        if isinstance(val, dict):
            return {key: finite(v) for key, v in val.items()}
        if isinstance(val, (list, tuple)):
            return [finite(v) for v in val]
        return None if isinstance(val, float) and not math.isfinite(val) else val
    return json.dumps(finite(doc), indent=2, allow_nan=False)


class Run:
    """One command's outputs, metrics and checks; every file is written atomically."""

    def __init__(self, command: str, cfg: dict):
        self.command = command
        self.cfg = cfg
        self.out_dir = cfg["out"]
        self.t0 = time.perf_counter()
        self.metrics: dict = {}
        self.checks: list[dict] = []
        self.outputs: list[str] = []

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)  # at the first output: a refused run leaves none
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def table(self, name: str, header: str, rows) -> None:
        write_table(self.path(name), header, rows)

    def json(self, name: str, doc) -> None:
        write_text(self.path(name), _strict_json(doc))

    def check(self, name: str, value: float, threshold: float, passed: bool) -> None:
        self.checks.append({"name": name, "value": value, "threshold": threshold, "passed": bool(passed)})

    def finish(self) -> int:
        """Write the manifest, which the outputs do not list; the exit code: 0 if every check passed, else 1."""
        manifest = {
            "version": __version__,
            "command": self.command,
            "config": self.cfg,
            "wall_clock_s": round(time.perf_counter() - self.t0, 3),
            "metrics": self.metrics,
            "checks": self.checks,
            "outputs": self.outputs,
        }
        write_text(os.path.join(self.out_dir, "manifest.json"), _strict_json(manifest))
        return 0 if all(c["passed"] for c in self.checks) else 1


def cmd_soliton(run: Run, cfg: dict) -> None:
    grid = _grid(cfg)
    p = _params(cfg)
    spec = _soliton_spec(cfg)
    phi = profile_phi(spec, grid)
    run.table("profile.csv", "x,re,im,abs",
              ((x, v.real, v.imag, abs(v)) for x, v in zip(grid.x, phi.values)))
    run.metrics["slow_decay"] = spec.massless

    mom = moments(phi, p.sigma)
    numeric = {"M": mom.mass, "P": mom.momentum, "E": mom.energy(), "S": mom.action(p)}
    # sigma = 1 has all four closed forms; otherwise only the action has a reference, the level
    refs = (dict(zip("MPES", closed_form_invariants(p.omega, p.c))) if p.sigma == 1.0
            else {"S": mu_reference(p)})
    rows = []
    for name, num in numeric.items():
        if name not in refs:
            rows.append((name, num, "", ""))
            continue
        rel = abs(num - refs[name]) / max(abs(refs[name]), 1.0)
        rows.append((name, num, refs[name], rel))
        if not spec.massless:
            run.check(f"invariant_{name}", rel, 1e-6, rel < 1e-6)
    run.table("invariants.csv", "quantity,numeric,closed,relerr", rows)

    res = elliptic_residual(profile_Phi(spec, grid), p)
    run.metrics["elliptic_residual"] = res
    if not spec.massless:
        run.check("elliptic_residual", res, 1e-8, res < 1e-8)


def cmd_verify(run: Run, cfg: dict) -> None:
    grid = _grid(cfg)
    rng, modes = np.random.default_rng(0), 24  # one fixed corpus, spectra on |m| <= 24
    if grid.N < 64:  # the smallest power of two with room for 2 * modes + 1 distinct modes
        raise ConfigError(f"verify needs grid.N >= 64 for its {2 * modes + 1}-mode corpus, got {grid.N}")
    param_pool = [
        Params(1.0, 1.0, 0.0, 1.0, 0.0),
        Params(1.0, 1.0, 1.0, 1.0, -1.0),
        Params(2.0, 1.0, -0.5, 1.0, 0.5),
        Params(1.5, 2.0, 1.5, 2.0, -2.0),
        Params(3.0, 1.0, 0.0, 1.0, 1.0),
    ]
    worst = 0.0
    for i in range(cfg["verify"]["fields"]):
        coef = np.zeros(grid.N, complex)
        idx = np.concatenate([np.arange(1, modes + 1), np.arange(grid.N - modes, grid.N)])
        coef[idx] = rng.standard_normal(2 * modes) + 1j * rng.standard_normal(2 * modes)
        coef[0] = rng.standard_normal() + 1j * rng.standard_normal()
        u = Field(grid, np.fft.ifft(coef) * grid.N / math.sqrt(2 * modes + 1))
        rep = identity_suite(u, param_pool[i % len(param_pool)])
        worst = max(worst, rep.max_relative())
    rows = [("identity_suite_worst_rel", worst, 1e-9)]

    Q = profile_Phi(SolitonSpec(1.0, 1.0, 0.0), grid)
    rows.append(("gn1_ratio_at_Q_minus_1", abs(gn1_ratio(Q) - 1.0), 1e-6))
    rows.append(("Q_mass_rel_err", abs(mass(Q) - 2 * math.pi) / (2 * math.pi), 1e-6))
    for z in (-0.9, 0.0, 0.9):
        rows.append((f"F1_at_{z}_plus_1", abs(F_sigma(z, 1.0) + 1.0), 1e-10))

    for name, value, threshold in rows:
        run.check(name, value, threshold, value < threshold)
    run.table("checks.csv", "check,value,threshold,status",
              ((c["name"], c["value"], c["threshold"], "pass" if c["passed"] else "fail") for c in run.checks))


def cmd_certify(run: Run, cfg: dict) -> None:
    grid = _grid(cfg)
    u0 = _initial_data(cfg, grid)
    with _config_input():
        hint = "modulation" if cfg["data"]["family"] == "modulated" else None
        search = SearchConfig(cfg["params"]["sigma"], hint)
    result = certify_global(u0, search)

    found = isinstance(result, Certificate)
    run.json("certificate.json" if found else "notfound.json", dataclasses.asdict(result))
    run.metrics["found"] = found
    run.check("certificate_found", float(found), 1.0, found)
    if found:
        run.metrics["strategy"] = result.strategy
        kind = membership(u0, result.params).kind
        run.check("membership_recheck", 1.0 if kind == "KPlus" else 0.0, 1.0, kind == "KPlus")
    else:
        run.metrics["best_margin"] = result.margin


def cmd_minimize_mu(run: Run, cfg: dict) -> None:
    p = _params(cfg)
    with _config_input():
        mc = MinimizeConfig(grad_tol=cfg["minimize"]["grad_tol"], grid=_grid(cfg))
    est = estimate_mu(p, mc)
    ref = mu_reference(p)
    rel = abs(est.mu - ref) / abs(ref)
    run.table("mu.csv", "mu,reference,rel_err,iterations,converged",
              [(est.mu, ref, rel, est.iterations, int(est.converged))])
    run.metrics.update({"mu": est.mu, "reference": ref, "rel_err": rel,
                        "iterations": est.iterations, "trials": est.trials,
                        "backtracks": est.trials - (len(est.history) - 1),
                        "grad_norm": est.grad_norms[-1]})
    run.check("converged", 1.0 if est.converged else 0.0, 1.0, est.converged)
    run.check("mu_matches_reference", rel, 1e-3, rel < 1e-3)


def cmd_simulate(run: Run, cfg: dict) -> None:
    grid = _grid(cfg)
    p = _params(cfg)
    with _config_input():
        scheme = SchemeConfig(**cfg["scheme"])
    u0 = _initial_data(cfg, grid)
    traj = integrate(u0, scheme, p, sample_every=cfg["sample_every"])
    write_trajectory_csv(traj, run.path("trajectory.csv"))
    save_field(u0, run.path("initial_field.json"))
    save_field(traj.final, run.path("final_field.json"), t=traj.times[-1])

    r0 = traj.records[0]
    # np.max, unlike the builtin, lets a NaN record (a blown-up run) through
    drift = lambda get: float(np.max([abs(get(r) - get(r0)) for r in traj.records])) / max(
        abs(get(r0)), 1.0)
    dM, dE, dP = drift(lambda r: r.mass), drift(lambda r: r.energy), drift(lambda r: r.momentum)
    summary = {"final_t": traj.times[-1], "blowup": int(traj.blowup),
               "drift_M": dM, "drift_E": dE, "drift_P": dP}
    # every family: the run neither blew up nor stopped short of T, and kept
    # the mass, which the equation conserves for any data
    run.check("no_blowup", int(traj.blowup), 0, not traj.blowup)
    gap = abs(traj.times[-1] - scheme.T)
    run.check("reached_T", gap, 1e-12 * scheme.T, gap <= 1e-12 * scheme.T)
    run.check("drift_M", dM, 1e-8, dM < 1e-8)
    if cfg["data"]["family"] == "soliton" and not traj.blowup:
        exact = traveling_wave(_soliton_spec(cfg), grid, traj.times[-1])
        linf = float(np.max(np.abs(traj.final.values - exact.values)))
        summary["final_linf_error"] = linf
        run.check("soliton_linf_error", linf, 1e-4, linf < 1e-4)
        for name, val in (("E", dE), ("P", dP)):
            run.check(f"drift_{name}", val, 1e-8, val < 1e-8)
    run.metrics.update(summary)
    run.table("summary.csv", ",".join(summary), [summary.values()])


def cmd_zroot(run: Run, cfg: dict) -> None:
    rows = []
    for s in cfg["zroot"]["sigmas"]:
        try:
            root = z0_root(s)
            resid = abs(F_sigma(root, s))
        except NoBracket:  # a valid sigma whose root the bracket scan misses: a failed check
            root = resid = math.nan
        rows.append((s, root, resid))
        run.check(f"zroot_residual_sigma_{s}", resid, 1e-6, resid < 1e-6)
    run.table("zroot.csv", "sigma,z0,absF", rows)


_COMMANDS = {
    "soliton": cmd_soliton,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "minimize-mu": cmd_minimize_mu,
    "simulate": cmd_simulate,
    "zroot": cmd_zroot,
}


# one parser per process: main may run many times in it
_PARSER = argparse.ArgumentParser(
    prog="gdnls",
    description="Solitary waves, variational levels, and certified global "
                "evolution for the derivative nonlinear Schrodinger family.",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("config", nargs="?", default=None,
                     help="JSON config file; omit to run on defaults")
_PARSER.add_argument("overrides", nargs=argparse.REMAINDER,
                     help="--section.key value pairs; values parsed as JSON")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = resolve_config(args.config, args.overrides)
        run = Run(args.command, cfg)
        _COMMANDS[args.command](run, cfg)
        return run.finish()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotAdmissible, BadExponents, SigmaUnsupported, ZeroField) as exc:  # bad input, not a run
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
