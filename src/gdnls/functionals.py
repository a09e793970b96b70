"""Conserved quantities, action/virial functionals, and sharp-constant checks.

Sign conventions: with N(u) = Re int i |u|^(2s) conj(u) u_x,

    E(u) = ||u_x||^2 / 2 - N(u)/(2s+2),   M(u) = ||u||^2,   P(u) = Re int i u_x conj(u),

and the action at speeds (omega, c) is S = E + (omega/2) M + (c/2) P.  The
"tilde" family evaluates the same objects after removing the plane-wave factor
exp(i c x / 2); all shifted quantities below use the operator d/dx - i c/2
directly so no modulation is ever sampled on the grid.

Energy, action, virial and the tilde family are scalar algebra over one
`Moments` evaluation: one FFT pair from a field, none from samples of u and
u_x.  Mass, momentum, nonlinear_N and identity_suite stay direct, so the
identities compare two independent paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Field, Params, cumulative_integral, spectral_derivative
from .errors import ZeroField

__all__ = [
    "mass",
    "momentum",
    "nonlinear_N",
    "energy",
    "action_S",
    "virial_K",
    "I_functional",
    "Moments",
    "moments",
    "sample_moments",
    "TildeValues",
    "tilde_functionals",
    "IdentityReport",
    "identity_suite",
    "gauge_to_w",
    "gauge_from_w",
    "calE",
    "calP",
    "gw_momentum_floor",
    "agmon_ratio",
    "gn1_ratio",
    "gn2_ratio",
    "GNReport",
    "gn_checks",
]


def _l2sq(u: Field, v: np.ndarray) -> float:
    return u.grid.dx * float(np.sum(np.abs(v) ** 2))


def _grad_sq(u: Field) -> float:
    """||u_x||^2."""
    return _l2sq(u, spectral_derivative(u.grid, np.fft.fft(u.values)))


def _lpp(u: Field, p: float) -> float:
    """||u||_p^p (the integral itself, no root)."""
    return u.grid.dx * float(np.sum(np.abs(u.values) ** p))


def mass(u: Field) -> float:
    return _l2sq(u, u.values)


def momentum(u: Field) -> float:
    du = spectral_derivative(u.grid, np.fft.fft(u.values))
    return u.grid.dx * float(np.sum((1j * du * np.conj(u.values)).real))


def nonlinear_N(u: Field, sigma: float) -> float:
    du = spectral_derivative(u.grid, np.fft.fft(u.values))
    integrand = 1j * np.abs(u.values) ** (2 * sigma) * np.conj(u.values) * du
    return u.grid.dx * float(np.sum(integrand.real))


class Moments(NamedTuple):
    """M, P, ||u_x||^2, N and ||u||_(2s+2)^(2s+2) of one field; read only at p.sigma == sigma."""

    sigma: float
    mass: float
    momentum: float
    grad_sq: float
    nonlinear: float
    pot: float

    def energy(self) -> float:
        return 0.5 * self.grad_sq - self.nonlinear / (2 * self.sigma + 2)

    def action(self, p: Params) -> float:
        return self.energy() + 0.5 * p.omega * self.mass + 0.5 * p.c * self.momentum

    def virial(self, p: Params) -> float:
        a, b, c = p.alpha, p.beta, p.c
        return (
            0.5 * (2 * a - b) * self.grad_sq
            + (0.5 * (2 * a + b) * p.omega - 0.25 * c**2 * b) * self.mass
            + 0.5 * (2 * a - b) * c * self.momentum
            + b * c / (2 * (2 * self.sigma + 2)) * self.pot
            - a * self.nonlinear
        )

    def split(self, p: Params) -> tuple[float, float]:
        """Quadratic and superquadratic parts (A, B) of the modulation-removed virial."""
        a, b, c, q, w = p.alpha, p.beta, p.c, 2 * self.sigma + 2, p.omega - p.c**2 / 4
        A = 0.5 * (2 * a - b) * self.grad_sq + 0.5 * (2 * a + b) * w * self.mass
        return A, (q * a + b) * c / (2 * q) * self.pot - a * self.nonlinear

    def tilde(self, p: Params) -> TildeValues:
        """Action, virial, and remainder with the moments read in the modulation-removed frame."""
        A, B = self.split(p)
        a, b, c, s = p.alpha, p.beta, p.c, self.sigma
        w, q, g, m, pot = p.omega - c * c / 4, 2 * s + 2, self.grad_sq, self.mass, self.pot
        act = 0.5 * g + 0.5 * w * m + c / (2 * q) * pot - self.nonlinear / q
        res = 0.5 * (2 * s * a + b) * g + 0.5 * (2 * s * a - b) * w * m - b * c / (2 * q) * pot
        return TildeValues(act, A + B, res)

    def scaled(self, lam: float) -> "Moments":
        """The moments of lam * u for real lam."""
        l2, lq = lam * lam, abs(lam) ** (2 * self.sigma + 2)
        return Moments(self.sigma, l2 * self.mass, l2 * self.momentum, l2 * self.grad_sq,
                       lq * self.nonlinear, lq * self.pot)


def moments(u: Field, sigma: float) -> Moments:
    """All five integrals from one spectral derivative (one FFT pair)."""
    du = spectral_derivative(u.grid, np.fft.fft(u.values))
    return sample_moments(u.values, du, u.grid.dx, sigma)


def sample_moments(v: np.ndarray, du: np.ndarray, dx: float, sigma: float) -> Moments:
    """All five integrals from samples of u and u_x on a grid of spacing dx; no transform."""
    a2 = v.real**2 + v.imag**2
    cross = (np.conj(v) * du).imag  # P and N integrate Re(i z) = -Im(z)
    ws = a2**sigma
    sums = (a2, -cross, du.real**2 + du.imag**2, -ws * cross, ws * a2)
    return Moments(sigma, *(dx * float(np.sum(f)) for f in sums))


def energy(u: Field, sigma: float) -> float:
    return moments(u, sigma).energy()


def action_S(u: Field, p: Params) -> float:
    return moments(u, p.sigma).action(p)


def virial_K(u: Field, p: Params) -> float:
    """Scaling derivative of the action along e^(a*l) u(e^(-b*l) x) at l = 0."""
    return moments(u, p.sigma).virial(p)


def I_functional(u: Field, p: Params) -> float:
    """Companion virial form without the L^(2s+2) term; equals virial_K when beta = 0."""
    a, b, m = p.alpha, p.beta, moments(u, p.sigma)
    return (
        0.5 * (2 * a - b) * m.grad_sq
        + 0.5 * (2 * a + b) * p.omega * m.mass
        + p.c * a * m.momentum
        - a * m.nonlinear
    )


class TildeValues(NamedTuple):
    action: float
    virial: float
    residue: float  # the positive-coefficient remainder J


def tilde_functionals(psi: Field, p: Params) -> TildeValues:
    """Action, virial, and remainder in the frame with the c-modulation removed."""
    return moments(psi, p.sigma).tilde(p)


@dataclass(frozen=True)
class IdentityReport:
    """Absolute residuals of the structural identities, with per-identity scales.

    A residual passes at tolerance tol when residual <= tol * scale; the scale
    is the sum of magnitudes of the terms entering the identity, so the check
    is meaningful across wildly different field amplitudes.
    """

    residuals: dict[str, float]
    scales: dict[str, float]

    def max_relative(self) -> float:
        return max(
            r / s if s > 0 else 0.0
            for r, s in ((self.residuals[k], self.scales[k]) for k in self.residuals)
        )

    def ok(self, tol: float = 1e-9) -> bool:
        return self.max_relative() <= tol


def identity_suite(u: Field, p: Params) -> IdentityReport:
    """Cross-check the shift identities and both action decompositions on one field."""
    a, b, s = p.alpha, p.beta, p.sigma
    c = p.c
    w = p.omega - c * c / 4
    du = spectral_derivative(u.grid, np.fft.fft(u.values))
    shifted = du - 0.5j * c * u.values
    grad_sq = _l2sq(u, du)
    shift_sq = _l2sq(u, shifted)
    m = mass(u)
    mom = momentum(u)
    pot = _lpp(u, 2 * s + 2)
    quart = _lpp(u, 4 * s + 2)
    n = nonlinear_N(u, s)
    n_shift = u.grid.dx * float(
        np.sum((1j * np.abs(u.values) ** (2 * s) * np.conj(u.values) * shifted).real)
    )

    residuals: dict[str, float] = {}
    scales: dict[str, float] = {}

    # Momentum under modulation removal.
    lhs = c * mom
    rhs = -grad_sq - 0.25 * c * c * m + shift_sq
    residuals["momentum_shift"] = abs(lhs - rhs)
    scales["momentum_shift"] = abs(lhs) + grad_sq + 0.25 * c * c * m + shift_sq

    # Nonlinear term under modulation removal.
    lhs = n
    rhs = -0.5 * c * pot + n_shift
    residuals["nonlinear_shift"] = abs(lhs - rhs)
    scales["nonlinear_shift"] = abs(n) + 0.5 * abs(c) * pot + abs(n_shift)

    # Completed square hiding inside -N.
    half_current = _l2sq(u, du + 0.5j * np.abs(u.values) ** (2 * s) * u.values)
    lhs = -n
    rhs = -grad_sq - 0.25 * quart + half_current
    residuals["nonlinear_decomposition"] = abs(lhs - rhs)
    scales["nonlinear_decomposition"] = abs(n) + grad_sq + 0.25 * quart + half_current

    # Action split in the modulation-removed frame (field read as psi).
    act, vir, res = tilde_functionals(u, p)
    lhs = a * (2 * s + 2) * act
    rhs = vir + res
    residuals["action_split_tilde"] = abs(lhs - rhs)
    scales["action_split_tilde"] = abs(lhs) + abs(vir) + abs(res)

    # Action split in the laboratory frame.
    lhs = a * (2 * s + 2) * action_S(u, p)
    rhs = (
        virial_K(u, p)
        + 0.5 * (2 * s * a + b) * shift_sq
        + 0.5 * (2 * s * a - b) * w * m
        - b * c / (2 * (2 * s + 2)) * pot
    )
    residuals["action_split"] = abs(lhs - rhs)
    scales["action_split"] = (
        abs(lhs)
        + abs(virial_K(u, p))
        + 0.5 * abs(2 * s * a + b) * shift_sq
        + 0.5 * abs(2 * s * a - b) * abs(w) * m
        + abs(b * c) / (2 * (2 * s + 2)) * pot
    )

    return IdentityReport(residuals, scales)


# ---------------------------------------------------------------------------
# The cubic-case (sigma = 1) gauge frame.


def _gauge_phase(u: Field) -> np.ndarray:
    """(1/4) int_{left edge}^{x} |u|^2, the left box edge standing in for -infinity."""
    run = cumulative_integral(Field(u.grid, np.abs(u.values) ** 2)).values.real
    return 0.25 * (run - run[0])


def gauge_to_w(u: Field) -> Field:
    """Divide out the derivative-coupling phase (sigma = 1); |w| = |u|."""
    return u.with_values(u.values * np.exp(1j * _gauge_phase(u)))


def gauge_from_w(w: Field) -> Field:
    """Inverse of gauge_to_w; exact round trip since |w| determines the phase."""
    return w.with_values(w.values * np.exp(-1j * _gauge_phase(w)))


def calE(w: Field) -> float:
    """Energy seen in the gauge frame: ||w_x||^2/2 - ||w||_6^6/32."""
    return 0.5 * _grad_sq(w) - _lpp(w, 6.0) / 32.0


def calP(w: Field) -> float:
    """Momentum seen in the gauge frame: Re int i w_x conj(w) + ||w||_4^4/4."""
    return momentum(w) + 0.25 * _lpp(w, 4.0)


def gw_momentum_floor(w: Field) -> float:
    """Lower bound for calP(w) in terms of calE and the L^2/L^4 norms (sigma = 1)."""
    l4 = _lpp(w, 4.0)
    if l4 == 0.0:
        raise ZeroField("momentum floor undefined for the zero field")
    l2 = math.sqrt(mass(w))
    rp = math.sqrt(math.pi)
    return 0.25 * l4 * (1 - l2 / (2 * rp)) - 8 * rp * calE(w) * l2 / l4


# ---------------------------------------------------------------------------
# Sharp-constant interpolation inequality ratios (== 1 exactly at optimizers).


def _nonzero(f: Field) -> None:
    if not np.any(f.values):
        raise ZeroField("ratio undefined for the zero field")


def agmon_ratio(f: Field, p: float = 1.0) -> float:
    """||f||_inf^(2p) over 2p ||f||_(4p-2)^(2p-1) ||f_x||_2; at most 1 for decaying fields."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    _nonzero(f)
    sup = float(np.max(np.abs(f.values)))
    lq = _lpp(f, 4 * p - 2) ** (1.0 / (4 * p - 2))
    grad = math.sqrt(_grad_sq(f))
    return sup ** (2 * p) / (2 * p * lq ** (2 * p - 1) * grad)


def gn1_ratio(f: Field) -> float:
    """||f||_6^6 over (4/pi^2) ||f||_2^4 ||f_x||_2^2; equality at the c = 0 wave."""
    _nonzero(f)
    return _lpp(f, 6.0) / (4 / math.pi**2 * mass(f) ** 2 * _grad_sq(f))


def gn2_ratio(f: Field) -> float:
    """||f||_6^6 over 3 (2pi)^(-2/3) ||f||_4^(16/3) ||f_x||_2^(2/3); equality at the endpoint wave."""
    _nonzero(f)
    denom = (
        3
        * (2 * math.pi) ** (-2 / 3)
        * _lpp(f, 4.0) ** (4 / 3)
        * _grad_sq(f) ** (1 / 3)
    )
    return _lpp(f, 6.0) / denom


class GNReport(NamedTuple):
    agmon: float
    gn1: float
    gn2: float


def gn_checks(f: Field, p: float = 1.0) -> GNReport:
    return GNReport(agmon_ratio(f, p), gn1_ratio(f), gn2_ratio(f))
