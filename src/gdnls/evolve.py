"""Pseudo-spectral time integration with conservation and invariance diagnostics.

The linear dispersion is solved exactly in Fourier space and the derivative
nonlinearity -|u|^(2s) u_x is treated explicitly inside a fourth-order
integrating-factor Runge-Kutta step, with the 2/3 rule applied to every
nonlinear evaluation.  Diagnostics track the conserved quantities, both
gradient norms, and the virial sign that the certified good set preserves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import Field, Params, require_finite, spectral_derivative, validate_params
from .criterion import Certificate
from .errors import Overflow
# energy, mass, momentum and virial_K are unused here; bench/tracer.py patches them by name
from .functionals import action_S, energy, mass, moments, momentum, virial_K  # noqa: F401

__all__ = [
    "SchemeConfig",
    "DiagnosticsRecord",
    "Trajectory",
    "InvarianceReport",
    "integrate",
    "invariance_check",
    "write_trajectory_csv",
]

_AMPLITUDE_CAP = 1e6  # growth factor over the initial sup norm that we call blow-up


@dataclass(frozen=True)
class SchemeConfig:
    dt: float
    T: float
    dealias: bool = True
    cfl_safety: float = 0.5
    adaptive: bool = False

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    energy: float
    momentum: float
    h1_seminorm: float
    shifted_h1: float
    virial: float
    blowup: bool


@dataclass(frozen=True)
class Trajectory:
    times: list[float]
    fields: list[Field]
    records: list[DiagnosticsRecord]

    @property
    def blowup(self) -> bool:
        return any(r.blowup for r in self.records)

    @property
    def final(self) -> Field:
        return self.fields[-1]


@dataclass(frozen=True)
class InvarianceReport:
    min_virial: float
    action_drift: float
    drift_scale: float
    virial_ok: bool
    h1_max: float
    h1_bound: float
    h1_ok: bool

    @property
    def ok(self) -> bool:
        return self.virial_ok and self.h1_ok


class _Stepper:
    """Precomputed spectral machinery for one (grid, sigma, dt) combination."""

    def __init__(self, grid, sigma: float, dt: float, dealias: bool):
        self.grid = grid
        self.sigma = sigma
        self.mask = (np.abs(np.fft.fftfreq(grid.N, 1 / grid.N)) < grid.N / 3) if dealias else 1.0
        self.set_dt(dt)

    def set_dt(self, dt: float) -> None:
        self.dt = dt
        k2 = self.grid.k**2
        self.E1 = np.exp(-0.5j * k2 * dt)
        self.E2 = self.E1**2

    def _nl(self, uh: np.ndarray) -> tuple[np.ndarray, float]:
        u = np.fft.ifft(uh)
        ux = spectral_derivative(self.grid, uh)
        amp = float(np.max(np.abs(u)))
        return self.mask * np.fft.fft(-np.abs(u) ** (2 * self.sigma) * ux), amp

    def advance(self, uh: np.ndarray) -> tuple[np.ndarray, float]:
        """One step; returns the new spectrum and the sup norm seen at stage 1."""
        dt, E1, E2 = self.dt, self.E1, self.E2
        with np.errstate(over="ignore", invalid="ignore"):
            n1, amp = self._nl(uh)
            n2, _ = self._nl(E1 * (uh + 0.5 * dt * n1))
            n3, _ = self._nl(E1 * uh + 0.5 * dt * n2)
            n4, _ = self._nl(E2 * uh + dt * E1 * n3)
            out = E2 * uh + dt / 6 * (E2 * n1 + 2 * E1 * (n2 + n3) + n4)
        if not np.all(np.isfinite(out.view(np.float64))):
            raise Overflow(f"non-finite spectrum after step dt={dt:.3e}")
        return out, amp


def _diagnostics(u: Field, t: float, p: Params, diag_p: Params, blowup: bool) -> DiagnosticsRecord:
    if blowup:
        # amplitudes near the cap overflow in the higher powers below; the
        # record keeps whatever is representable (inf is fine in a last row)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return replace(_diagnostics(u, t, p, diag_p, False), blowup=True)
    mom = moments(u, p.sigma)
    # ||u_x - (ic/2) u||^2 = ||u_x||^2 + c P + c^2 M / 4
    shifted_sq = mom.grad_sq + diag_p.c * mom.momentum + 0.25 * diag_p.c**2 * mom.mass
    return DiagnosticsRecord(
        t=t, mass=mom.mass, energy=mom.energy(), momentum=mom.momentum,
        h1_seminorm=math.sqrt(mom.grad_sq), shifted_h1=math.sqrt(max(shifted_sq, 0.0)),
        virial=mom.virial(diag_p), blowup=blowup,
    )


def integrate(
    u0: Field,
    cfg: SchemeConfig,
    p: Params,
    sample_every: int = 10,
    cert: Certificate | None = None,
) -> Trajectory:
    """March to cfg.T, sampling diagnostics every sample_every steps.

    The virial column uses the certificate's parameters when one is attached,
    otherwise p; a certificate for another sigma is refused.  A fixed-step run
    shortens its last step to end at T.  Blow-up (overflow, non-finite values,
    or sup-norm growth beyond 1e6 of the initial) truncates the trajectory:
    the last good field is kept and the final record carries the blowup flag.
    """
    validate_params(p)
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    require_finite(u0, "initial data")
    if cert is not None and cert.params.sigma != p.sigma:
        raise ValueError(f"certificate sigma={cert.params.sigma} differs from sigma={p.sigma}")
    diag_p = cert.params if cert is not None else p
    stepper = _Stepper(u0.grid, p.sigma, cfg.dt, cfg.dealias)
    amp0 = float(np.max(np.abs(u0.values)))

    times = [0.0]
    fields = [u0]
    records = [_diagnostics(u0, 0.0, p, diag_p, False)]
    if amp0 == 0.0:
        amp0 = 1.0  # zero data never trips the growth cap

    n_steps = max(1, round(cfg.T / cfg.dt))
    last_dt = cfg.dt
    if not cfg.adaptive and abs(n_steps * cfg.dt - cfg.T) > 1e-12 * cfg.T:
        n_steps = math.ceil(cfg.T / cfg.dt)
        last_dt = cfg.T - (n_steps - 1) * cfg.dt
    # Adaptive runs march by time; a step budget keeps a collapsing dt from
    # spinning forever (clean truncation, not an error).
    budget = 20 * n_steps if cfg.adaptive else n_steps
    uh = np.fft.fft(u0.values)
    t = 0.0
    n = 0
    while n < budget:
        if cfg.adaptive:
            if t >= cfg.T * (1 - 1e-12):
                break
            amp_now = float(np.max(np.abs(np.fft.ifft(uh))))
            cap = cfg.cfl_safety * u0.grid.dx / max(1.0, amp_now ** (2 * p.sigma))
            dt_new = min(cfg.dt, cap, cfg.T - t)
        else:
            dt_new = last_dt if n == n_steps - 1 else cfg.dt
        if dt_new != stepper.dt:
            stepper.set_dt(dt_new)
        try:
            uh, amp = stepper.advance(uh)
        except Overflow:
            # uh still holds the last finite state; keep it as the terminal sample
            u = Field(u0.grid, np.fft.ifft(uh))
            rec = _diagnostics(u, t, p, diag_p, True)
            if times[-1] == t:
                records[-1] = rec
            else:
                times.append(t)
                fields.append(u)
                records.append(rec)
            return Trajectory(times, fields, records)
        n += 1
        t = t + stepper.dt if cfg.adaptive else min(n * cfg.dt, cfg.T)
        if amp > _AMPLITUDE_CAP * amp0:
            u = Field(u0.grid, np.fft.ifft(uh))
            times.append(t)
            fields.append(u)
            records.append(_diagnostics(u, t, p, diag_p, True))
            return Trajectory(times, fields, records)
        if n % sample_every == 0:
            u = Field(u0.grid, np.fft.ifft(uh))
            times.append(t)
            fields.append(u)
            records.append(_diagnostics(u, t, p, diag_p, False))
    if times[-1] != t:
        u = Field(u0.grid, np.fft.ifft(uh))
        times.append(t)
        fields.append(u)
        records.append(_diagnostics(u, t, p, diag_p, False))
    return Trajectory(times, fields, records)


def invariance_check(traj: Trajectory, cert: Certificate) -> InvarianceReport:
    """Check the certified trajectory against what the good set guarantees.

    The virial may dip below zero only by the conservation drift scale, taken
    as the observed action drift (with a roundoff floor).  The gradient bound
    is assembled from the action split: inside the good set every term of
    a(2s+2) S except the shifted-gradient one is nonnegative, so

        ||u_x - (ic/2) u|| <= sqrt(2 a (2s+2) S(u0) / (2 s a + b)),

    and the plain gradient picks up (|c|/2) ||u0|| on top.
    """
    p = cert.params
    s0 = action_S(traj.fields[0], p)
    drift = max(abs(action_S(u, p) - s0) for u in traj.fields)
    scale = max(drift, 1e-12 * (abs(s0) + 1.0))
    min_k = min(r.virial for r in traj.records)

    denom = 2 * p.sigma * p.alpha + p.beta
    C = math.sqrt(2 * p.alpha * (2 * p.sigma + 2) * max(s0, 0.0) / denom)
    bound = C + abs(p.c) / 2 * math.sqrt(traj.records[0].mass)
    h1_max = max(r.h1_seminorm for r in traj.records)
    return InvarianceReport(
        min_virial=min_k,
        action_drift=drift,
        drift_scale=scale,
        virial_ok=min_k >= -scale,
        h1_max=h1_max,
        h1_bound=bound,
        h1_ok=h1_max <= bound,
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,M,E,P,H1seminorm,shiftedH1,K,blowup\n")
        for r in traj.records:
            fh.write(
                f"{r.t!r},{r.mass!r},{r.energy!r},{r.momentum!r},"
                f"{r.h1_seminorm!r},{r.shifted_h1!r},{r.virial!r},{int(r.blowup)}\n"
            )
