"""Command-line interface: subcommands over the library with reproducible outputs.

Configuration is one JSON document; any key can be overridden on the command
line with --section.key value pairs (values parsed as JSON, bare words as
strings).  Every run writes a manifest next to its outputs with the resolved
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
from importlib.metadata import PackageNotFoundError, version

import numpy as np

from .core import (Field, Grid, Params, load_field, modulate, require_admissible, require_finite,
                   save_field)
from .criterion import Certificate, SearchConfig, certify_global, corollary15_data, membership
from .errors import GdnlsError, IncompatibleModulation
from .evolve import SchemeConfig, integrate, write_trajectory_csv
from .functionals import action_S, energy, gn1_ratio, identity_suite, mass, momentum
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

try:
    _VERSION = version("gdnls")
except PackageNotFoundError:
    _VERSION = "0.0.0"


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
        "boost": 0.0,  # plane-wave factor e^(i*boost*x); must be box-periodic
        "speed": 0.0,  # modulation speed for the modulated family
        "file": None,
    },
    "minimize": {"grad_tol": 1e-5},
    "verify": {"fields": 30},
    "zroot": {"sigmas": [1.2, 1.5, 1.8]},
}


def _overlay(base: dict, over, path: str = "") -> dict:
    """A copy of base with over laid on top; a key base lacks is an error, a section recurses."""
    if not isinstance(over, dict):
        raise ConfigError(f"expected an object at {path or 'top level'}")
    out = copy.deepcopy(base)
    for key, val in over.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        out[key] = _overlay(base[key], val, where) if isinstance(base[key], dict) else val
    return out


def _parse_overrides(tokens: list[str]) -> dict:
    cfg: dict = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key, got {tok!r}")
        if i + 1 >= len(tokens):
            raise ConfigError(f"missing value for {tok!r}")
        raw = tokens[i + 1]
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = cfg
        *parents, leaf = tok[2:].split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = val
        i += 2
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
    resolved = _overlay(_overlay(DEFAULTS, cfg), _parse_overrides(overrides))
    env_out = os.environ.get("GDNLS_OUT")
    if env_out:
        resolved["out"] = env_out
    return resolved


@contextlib.contextmanager
def _config_input():
    """Report a TypeError or ValueError raised while reading the config as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


@_config_input()
def _count(value, key: str) -> int:
    """A whole number of at least 1; a fraction is refused, not truncated."""
    n = float(value)
    if not (n.is_integer() and n >= 1):
        raise ValueError(f"{key} must be a whole number of at least 1, got {value!r}")
    return int(n)


@_config_input()
def _grid(cfg: dict) -> Grid:
    return Grid(float(cfg["grid"]["L"]), _count(cfg["grid"]["N"], "grid.N"))


@_config_input()
def _params(cfg: dict) -> Params:
    p = cfg["params"]
    out = Params(float(p["sigma"]), float(p["omega"]), float(p["c"]),
                 float(p["alpha"]), float(p["beta"]))
    require_admissible(out.sigma, out.omega, out.c)
    return out


@_config_input()
def _scheme(cfg: dict) -> SchemeConfig:
    s = cfg["scheme"]
    if not isinstance(s["adaptive"], bool):  # bool("no") would be True
        raise ValueError(f"scheme.adaptive must be true or false, got {s['adaptive']!r}")
    return SchemeConfig(dt=float(s["dt"]), T=float(s["T"]), adaptive=s["adaptive"])


@_config_input()
def _soliton_spec(cfg: dict) -> SolitonSpec:
    p = cfg["params"]
    return SolitonSpec(float(p["sigma"]), float(p["omega"]), float(p["c"]), x0=float(cfg["data"]["x0"]))


@_config_input()
def _initial_data(cfg: dict, grid: Grid) -> Field:
    d = cfg["data"]
    family = d["family"]
    if family == "file":
        if not d["file"]:
            raise ConfigError("data.family 'file' needs data.file")
        try:
            return load_field(d["file"])
        except (OSError, KeyError) as exc:
            raise ConfigError(f"cannot read field file {d['file']!r}: {exc!r}") from exc
    if family == "soliton":
        return profile_phi(_soliton_spec(cfg), grid)
    if family not in ("gaussian", "modulated"):
        raise ConfigError(f"unknown data.family {d['family']!r}")
    x = grid.x
    with np.errstate(divide="ignore", invalid="ignore"):  # width 0: require_finite reports it
        vals = float(d["amplitude"]) * np.exp(-(((x - float(d["x0"])) / float(d["width"])) ** 2))
    u = Field(grid, vals)
    if boost := float(d["boost"]):
        try:
            u = modulate(u, 2 * boost)
        except IncompatibleModulation as exc:
            raise ConfigError(f"data.boost {boost} is not periodic: {exc}") from exc
    if d["mass_pi"] is not None:
        if not (m := mass(u)):
            raise ConfigError("data.mass_pi cannot rescale zero data")
        u = u.with_values(u.values * math.sqrt(float(d["mass_pi"]) * math.pi / m))
    if family == "modulated":
        try:
            u = corollary15_data(u, float(d["speed"]))
        except IncompatibleModulation as exc:
            raise ConfigError(f"data.speed {d['speed']} is not periodic: {exc}") from exc
    return require_finite(u, "initial data")


class Run:
    """Collects outputs, metrics, and checks; writes the manifest atomically."""

    def __init__(self, command: str, cfg: dict):
        self.command = command
        self.cfg = cfg
        self.out_dir = cfg["out"]
        os.makedirs(self.out_dir, exist_ok=True)
        self.t0 = time.perf_counter()
        self.metrics: dict = {}
        self.checks: list[dict] = []
        self.outputs: list[str] = []

    def path(self, name: str) -> str:
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def check(self, name: str, value: float, threshold: float, passed: bool) -> bool:
        self.checks.append({"name": name, "value": value, "threshold": threshold, "passed": bool(passed)})
        return passed

    def finish(self) -> int:
        manifest = {
            "version": _VERSION,
            "command": self.command,
            "config": self.cfg,
            "wall_clock_s": round(time.perf_counter() - self.t0, 3),
            "metrics": self.metrics,
            "checks": self.checks,
            "outputs": self.outputs,
        }
        final = os.path.join(self.out_dir, "manifest.json")
        tmp = f"{final}.tmp-{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2)
        os.replace(tmp, final)
        return 0 if all(c["passed"] for c in self.checks) else 1


def _write_csv(path: str, header: str, rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(item) for item in row) + "\n")


def cmd_soliton(cfg: dict) -> int:
    run = Run("soliton", cfg)
    grid = _grid(cfg)
    p = _params(cfg)
    spec = _soliton_spec(cfg)
    phi = profile_phi(spec, grid)
    _write_csv(run.path("profile.csv"), "x,re,im,abs",
               [(repr(x), repr(v.real), repr(v.imag), repr(abs(v)))
                for x, v in zip(grid.x, phi.values)])
    run.metrics["slow_decay"] = spec.massless

    numeric = {"M": mass(phi), "P": momentum(phi), "E": energy(phi, p.sigma),
               "S": action_S(phi, p)}
    # sigma = 1 has all four closed forms; otherwise only the action has a reference, the level
    refs = (dict(zip("MPES", closed_form_invariants(p.omega, p.c))) if p.sigma == 1.0
            else {"S": mu_reference(p)})
    rows = []
    for name, num in numeric.items():
        if name not in refs:
            rows.append((name, repr(num), "", ""))
            continue
        rel = abs(num - refs[name]) / max(abs(refs[name]), 1.0)
        rows.append((name, repr(num), repr(refs[name]), repr(rel)))
        if not spec.massless:
            run.check(f"invariant_{name}", rel, 1e-6, rel < 1e-6)
    _write_csv(run.path("invariants.csv"), "quantity,numeric,closed,relerr", rows)

    res = elliptic_residual(profile_Phi(spec, grid), p)
    run.metrics["elliptic_residual"] = res
    if not spec.massless:
        run.check("elliptic_residual", res, 1e-8, res < 1e-8)
    return run.finish()


def cmd_verify(cfg: dict) -> int:
    run = Run("verify", cfg)
    grid = _grid(cfg)
    rng, modes = np.random.default_rng(0), 24  # one fixed corpus, spectra on |m| <= 24
    n_fields = _count(cfg["verify"]["fields"], "verify.fields")
    param_pool = [
        Params(1.0, 1.0, 0.0, 1.0, 0.0),
        Params(1.0, 1.0, 1.0, 1.0, -1.0),
        Params(2.0, 1.0, -0.5, 1.0, 0.5),
        Params(1.5, 2.0, 1.5, 2.0, -2.0),
        Params(3.0, 1.0, 0.0, 1.0, 1.0),
    ]
    worst = 0.0
    for i in range(n_fields):
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

    table = []
    for name, value, threshold in rows:
        passed = run.check(name, value, threshold, value < threshold)
        table.append((name, repr(value), repr(threshold), "pass" if passed else "fail"))
    _write_csv(run.path("checks.csv"), "check,value,threshold,status", table)
    return run.finish()


def cmd_certify(cfg: dict) -> int:
    run = Run("certify", cfg)
    grid = _grid(cfg)
    u0 = _initial_data(cfg, grid)
    with _config_input():
        hint = "modulation" if cfg["data"]["family"] == "modulated" else None
        search = SearchConfig(cfg["params"]["sigma"], hint)
    result = certify_global(u0, search)

    found = isinstance(result, Certificate)
    with open(run.path("certificate.json" if found else "notfound.json"), "w") as fh:
        json.dump(dataclasses.asdict(result), fh, indent=2)
    run.metrics["found"] = found
    run.check("certificate_found", float(found), 1.0, found)
    if found:
        run.metrics["strategy"] = result.strategy
        kind = membership(u0, result.params).kind
        run.check("membership_recheck", 1.0 if kind == "KPlus" else 0.0, 1.0, kind == "KPlus")
    else:
        run.metrics["best_margin"] = result.margin
    return run.finish()


def cmd_minimize_mu(cfg: dict) -> int:
    run = Run("minimize-mu", cfg)
    p = _params(cfg)
    with _config_input():
        mc = MinimizeConfig(grad_tol=float(cfg["minimize"]["grad_tol"]), grid=_grid(cfg))
    est = estimate_mu(p, mc)
    ref = mu_reference(p)
    rel = abs(est.mu - ref) / abs(ref)
    _write_csv(run.path("mu.csv"), "mu,reference,rel_err,iterations,converged",
               [(repr(est.mu), repr(ref), repr(rel), est.iterations, int(est.converged))])
    run.metrics.update({"mu": est.mu, "reference": ref, "rel_err": rel,
                        "iterations": est.iterations, "trials": est.trials,
                        "backtracks": est.trials - (len(est.history) - 1),
                        "grad_norm": est.grad_norms[-1]})
    run.check("converged", 1.0 if est.converged else 0.0, 1.0, est.converged)
    run.check("mu_matches_reference", rel, 1e-3, rel < 1e-3)
    return run.finish()


def cmd_simulate(cfg: dict) -> int:
    run = Run("simulate", cfg)
    grid = _grid(cfg)
    p = _params(cfg)
    scheme = _scheme(cfg)
    u0 = _initial_data(cfg, grid)
    every = _count(cfg["sample_every"], "sample_every")
    traj = integrate(u0, scheme, p, sample_every=every)
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
    run.metrics.update(summary)
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
        run.metrics["final_linf_error"] = linf
        run.check("soliton_linf_error", linf, 1e-4, linf < 1e-4)
        for name, val in (("E", dE), ("P", dP)):
            run.check(f"drift_{name}", val, 1e-8, val < 1e-8)
    _write_csv(run.path("summary.csv"), ",".join(summary),
               [tuple(repr(v) for v in summary.values())])
    return run.finish()


def cmd_zroot(cfg: dict) -> int:
    run = Run("zroot", cfg)
    with _config_input():
        sigmas = [float(s) for s in cfg["zroot"]["sigmas"]]
        if not sigmas:
            raise ValueError("zroot.sigmas must list at least one sigma")
    rows = []
    for s in sigmas:
        root = z0_root(s)
        resid = abs(F_sigma(root, s))
        rows.append((s, repr(root), repr(resid)))
        run.check(f"zroot_residual_sigma_{s}", resid, 1e-6, resid < 1e-6)
    _write_csv(run.path("zroot.csv"), "sigma,z0,absF", rows)
    return run.finish()


_COMMANDS = {
    "soliton": cmd_soliton,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "minimize-mu": cmd_minimize_mu,
    "simulate": cmd_simulate,
    "zroot": cmd_zroot,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gdnls",
        description="Solitary waves, variational levels, and certified global "
                    "evolution for the derivative nonlinear Schrodinger family.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", nargs="?", default=None,
                        help="JSON config file; omit to run on defaults")
    parser.add_argument("overrides", nargs=argparse.REMAINDER,
                        help="--section.key value pairs; values parsed as JSON")
    args = parser.parse_args(argv)

    try:
        cfg = resolve_config(args.config, args.overrides)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GdnlsError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
