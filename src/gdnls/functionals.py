"""Conserved quantities, action/virial functionals, and sharp-constant checks.

Sign conventions: with N(u) = Re int i |u|^(2s) conj(u) u_x,

    E(u) = ||u_x||^2 / 2 - N(u)/(2s+2),   M(u) = ||u||^2,   P(u) = Re int i u_x conj(u),

and the action at speeds (omega, c) is S = E + (omega/2) M + (c/2) P.  The
"tilde" family reads psi in the frame u = exp(i c x / 2) psi: it evaluates the
same objects on `Moments.modulated(c)`, the moments of u computed from those
of psi, so no modulation is ever sampled on the grid.

Every integral that needs u_x comes from one `Moments` evaluation: one FFT
pair from a field, none from samples of u and u_x.  Momentum, energy, action,
virial, the tilde family and the sharp-constant ratios are scalar algebra over
it.  Only mass, which needs no transform, stays direct, and identity_suite
compares direct integrands against the `Moments` algebra, both on one u_x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Field, Params, spectral_derivative
from .errors import ZeroField

__all__ = [
    "mass",
    "momentum",
    "energy",
    "action_S",
    "virial_K",
    "Moments",
    "moments",
    "sample_moments",
    "TildeValues",
    "tilde_functionals",
    "IdentityReport",
    "identity_suite",
    "gn1_ratio",
    "gn2_ratio",
]


def _l2sq(u: Field, v: np.ndarray) -> float:
    return u.grid.dx * float(np.sum(np.abs(v) ** 2))


def _lpp(u: Field, p: float) -> float:
    """||u||_p^p (the integral itself, no root)."""
    return u.grid.dx * float(np.sum(np.abs(u.values) ** p))


def mass(u: Field) -> float:
    return _l2sq(u, u.values)


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

    def modulated(self, c: float) -> "Moments":
        """The moments of e^(icx/2) u: P - cM/2, ||u_x||^2 - cP + c^2 M/4 and N - c Pot/2."""
        return Moments(self.sigma, self.mass, self.momentum - 0.5 * c * self.mass,
                       self.grad_sq - c * self.momentum + 0.25 * c * c * self.mass,
                       self.nonlinear - 0.5 * c * self.pot, self.pot)

    def split(self, p: Params) -> tuple[float, float]:
        """Parts (A, B) of the modulated virial at l u: l^2 A + l^(2s+2) B."""
        mod = self.modulated(p.c)
        return (Moments(self.sigma, mod.mass, mod.momentum, mod.grad_sq, 0.0, 0.0).virial(p),
                Moments(self.sigma, 0.0, 0.0, 0.0, mod.nonlinear, mod.pot).virial(p))

    def tilde(self, p: Params) -> TildeValues:
        """Action and virial of `modulated(c)`, and the remainder J of a(2s+2) S = K + J."""
        a, b, c, s = p.alpha, p.beta, p.c, self.sigma
        w, q, g, m = p.omega - c * c / 4, 2 * s + 2, self.grad_sq, self.mass
        res = 0.5 * (2 * s * a + b) * g + 0.5 * (2 * s * a - b) * w * m - b * c / (2 * q) * self.pot
        mod = self.modulated(c)
        return TildeValues(mod.action(p), mod.virial(p), res)

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
    """All five integrals from samples of u and u_x on a grid of spacing dx; no transform.

    One sum, two complex and two real dot products: P and N integrate
    Re(i conj(u) u_x) = -Im(conj(u) u_x).
    """
    a2 = v.real**2 + v.imag**2
    ws = a2**sigma
    return Moments(
        sigma,
        dx * float(np.sum(a2)),
        -dx * float(np.vdot(v, du).imag),
        dx * float(np.vdot(du, du).real),
        -dx * float(np.dot(ws, (np.conj(v) * du).imag)),
        dx * float(np.dot(ws, a2)),
    )


def momentum(u: Field) -> float:
    return moments(u, 1.0).momentum


def energy(u: Field, sigma: float) -> float:
    return moments(u, sigma).energy()


def action_S(u: Field, p: Params) -> float:
    return moments(u, p.sigma).action(p)


def virial_K(u: Field, p: Params) -> float:
    """Scaling derivative of the action along e^(a*l) u(e^(-b*l) x) at l = 0."""
    return moments(u, p.sigma).virial(p)


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
        return max(self.residuals[k] / s if s > 0 else 0.0 for k, s in self.scales.items())

    def ok(self, tol: float = 1e-9) -> bool:
        return self.max_relative() <= tol


def identity_suite(u: Field, p: Params) -> IdentityReport:
    """Cross-check the shift identities and both action decompositions on one field.

    Each identity is a tuple of terms that sums to zero; its residual is |sum| and
    its scale the sum of |term|.  One u_x feeds the direct integrands and `Moments`.
    """
    a, b, s, c = p.alpha, p.beta, p.sigma, p.c
    w = p.omega - c * c / 4
    v, dx = u.values, u.grid.dx
    du = spectral_derivative(u.grid, np.fft.fft(v))
    shifted = du - 0.5j * c * v
    weight = np.abs(v) ** (2 * s)
    grad_sq, shift_sq, m = _l2sq(u, du), _l2sq(u, shifted), _l2sq(u, v)
    mom = dx * float(np.sum((1j * du * np.conj(v)).real))
    pot, quart = _lpp(u, 2 * s + 2), _lpp(u, 4 * s + 2)
    n = dx * float(np.sum((1j * weight * np.conj(v) * du).real))
    n_shift = dx * float(np.sum((1j * weight * np.conj(v) * shifted).real))
    half_current = _l2sq(u, du + 0.5j * weight * v)
    moms = sample_moments(v, du, dx, s)
    act, vir, res = moms.tilde(p)
    lab = a * (2 * s + 2) * moms.action(p)
    terms = {
        # momentum under modulation removal
        "momentum_shift": (c * mom, grad_sq, 0.25 * c * c * m, -shift_sq),
        # nonlinear term under modulation removal
        "nonlinear_shift": (n, 0.5 * c * pot, -n_shift),
        # the completed square hiding inside -N
        "nonlinear_decomposition": (-n, grad_sq, 0.25 * quart, -half_current),
        # the action split in the modulation-removed frame (field read as psi)
        "action_split_tilde": (a * (2 * s + 2) * act, -vir, -res),
        # the action split in the laboratory frame
        "action_split": (lab, -moms.virial(p), -0.5 * (2 * s * a + b) * shift_sq,
                         -0.5 * (2 * s * a - b) * w * m, b * c / (2 * (2 * s + 2)) * pot),
    }
    return IdentityReport({k: abs(sum(t)) for k, t in terms.items()},
                          {k: sum(map(abs, t)) for k, t in terms.items()})


# ---------------------------------------------------------------------------
# Sharp-constant interpolation inequality ratios (== 1 exactly at optimizers).


def _nonzero(f: Field) -> None:
    if not np.any(f.values):
        raise ZeroField("ratio undefined for the zero field")


def gn1_ratio(f: Field) -> float:
    """||f||_6^6 over (4/pi^2) ||f||_2^4 ||f_x||_2^2; equality at the c = 0 wave."""
    _nonzero(f)
    mom = moments(f, 2.0)  # its pot is ||f||_6^6
    return mom.pot / (4 / math.pi**2 * mom.mass**2 * mom.grad_sq)


def gn2_ratio(f: Field) -> float:
    """||f||_6^6 over 3 (2pi)^(-2/3) ||f||_4^(16/3) ||f_x||_2^(2/3); equality at the endpoint wave."""
    _nonzero(f)
    mom = moments(f, 2.0)
    return mom.pot / (3 * (2 * math.pi) ** (-2 / 3) * _lpp(f, 4.0) ** (4 / 3) * mom.grad_sq ** (1 / 3))
