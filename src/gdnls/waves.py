"""Exact solitary-wave profiles, their defining equations, and scalar diagnostics.

The amplitude solves the profile equation

    -Phi'' + (omega - c^2/4) Phi + (c/2) Phi^(2s+1) - (2s+1)/(2s+2)^2 Phi^(4s+1) = 0

(s = sigma), with two branches: a cosh-based profile for omega > c^2/4 and an
algebraically decaying one at the endpoint omega = c^2/4, c > 0.  The full
complex wave attaches the phase c*x/2 - (2s+2)^{-1} * int_0^x Phi^(2s), which
has a closed form on both branches.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .core import Field, Grid, Params, require_admissible, spectral_derivative
from .errors import BoundaryProximity, NoBracket, QuadratureFailure, SigmaUnsupported

__all__ = [
    "SolitonSpec",
    "profile_Phi",
    "profile_phi",
    "traveling_wave",
    "elliptic_residual",
    "ClosedFormInvariants",
    "closed_form_invariants",
    "J_nu",
    "F_sigma",
    "z0_root",
]

# Boundary-decay thresholds for the two branches.  The endpoint profile only
# decays like |x|^(-1/sigma), so it gets a much looser warning level.
_EDGE_TOL = 1e-10
_EDGE_TOL_SLOW = 1e-6


@dataclass(frozen=True)
class SolitonSpec:
    """A single solitary wave: speeds, nonlinearity power, center, global phase."""

    sigma: float
    omega: float
    c: float
    x0: float = 0.0
    theta0: float = 0.0

    def __post_init__(self) -> None:
        require_admissible(self.sigma, self.omega, self.c)
        object.__setattr__(self, "theta0", self.theta0 % (2 * math.pi))

    @property
    def massless(self) -> bool:
        return self.omega == self.c * self.c / 4


def _amplitude_power(spec: SolitonSpec, y: np.ndarray) -> np.ndarray:
    """Phi(y)^(2*sigma) for the centered profile, vectorized in y."""
    s, w, c = spec.sigma, spec.omega, spec.c
    if spec.massless:
        return 2 * (s + 1) * c / ((s * c * y) ** 2 + 1)
    root = math.sqrt(4 * w - c * c)
    with np.errstate(over="ignore"):
        den = 2 * math.sqrt(w) * np.cosh(s * root * y) - c
    out = np.where(np.isfinite(den), (s + 1) * (4 * w - c * c) / den, 0.0)
    return out


def _amplitude(spec: SolitonSpec, y: np.ndarray) -> np.ndarray:
    return _amplitude_power(spec, y) ** (1.0 / (2 * spec.sigma))


def _warn_edge(f: Field, what: str) -> None:
    tol = _EDGE_TOL_SLOW if f.slow_decay else _EDGE_TOL
    frac = f.boundary_fraction()
    if frac > tol:
        warnings.warn(
            f"{what}: boundary magnitude {frac:.2e} of max exceeds {tol:.0e}; "
            "enlarge the box",
            BoundaryProximity,
            stacklevel=3,
        )


def profile_Phi(spec: SolitonSpec, grid: Grid) -> Field:
    """Real positive amplitude Phi, translated by x0."""
    vals = _amplitude(spec, grid.x - spec.x0)
    f = Field(grid, vals, slow_decay=spec.massless)
    _warn_edge(f, "profile_Phi")
    return f


def _phase_integral(spec: SolitonSpec, y: np.ndarray) -> np.ndarray:
    """I(y)/(2s+2) with I(y) = int_0^y Phi^(2s), in closed form on both branches.

    From int dx/(a cosh x - c) = 2/sqrt(a^2 - c^2) * arctan(sqrt((a+c)/(a-c)) tanh(x/2))
    at a = 2 sqrt(omega); the endpoint integrand is a scaled 1/(1 + x^2).
    """
    s, w, c = spec.sigma, spec.omega, spec.c
    if spec.massless:
        return np.arctan(s * c * y) / s
    r = math.sqrt(4 * w - c * c)
    q = math.sqrt((2 * math.sqrt(w) + c) / (2 * math.sqrt(w) - c))
    return np.arctan(q * np.tanh(0.5 * s * r * y)) / s


def _sampled_wave(spec: SolitonSpec, grid: Grid, shift: float, phase0: float) -> Field:
    """Phi(y) * exp(i*(c/2) y - i*I(y)/(2s+2) + i*phase0) at y = x - shift."""
    y = grid.x - shift
    phase = 0.5 * spec.c * y - _phase_integral(spec, y) + phase0
    f = Field(grid, _amplitude(spec, y) * np.exp(1j * phase), slow_decay=spec.massless)
    _warn_edge(f, "profile")
    return f


def profile_phi(spec: SolitonSpec, grid: Grid) -> Field:
    """The full complex standing profile, including translation and global phase."""
    return _sampled_wave(spec, grid, spec.x0, spec.theta0)


def traveling_wave(spec: SolitonSpec, grid: Grid, t: float) -> Field:
    """Exact solution at time t: phase rotation at rate omega riding at speed c."""
    return _sampled_wave(spec, grid, spec.x0 + spec.c * t, spec.theta0 + spec.omega * t)


def elliptic_residual(Phi: Field, p: Params) -> float:
    """L^2 norm of the profile-equation residual at the given parameters."""
    s = p.sigma
    a = Phi.values
    absa = np.abs(a)
    r = (
        -spectral_derivative(Phi.grid, np.fft.fft(a), order=2)
        + (p.omega - p.c * p.c / 4) * a
        + 0.5 * p.c * absa ** (2 * s) * a
        - (2 * s + 1) / (2 * s + 2) ** 2 * absa ** (4 * s) * a
    )
    return float(np.sqrt(Phi.grid.dx * np.sum(np.abs(r) ** 2)))


class ClosedFormInvariants(NamedTuple):
    mass: float
    momentum: float
    energy: float
    action: float


def closed_form_invariants(omega: float, c: float) -> ClosedFormInvariants:
    """Exact mass/momentum/energy/action of the sigma = 1 solitary wave."""
    if require_admissible(1.0, omega, c):
        mass = 4 * math.pi
        momentum = 0.0
        energy = 0.0
    else:
        s2 = 2 * math.sqrt(omega)
        root = math.sqrt(4 * omega - c * c)
        mass = 8 * math.atan(math.sqrt((s2 + c) / (s2 - c)))
        momentum = 2 * root
        energy = -0.5 * c * root
    action = energy + 0.5 * omega * mass + 0.5 * c * momentum
    return ClosedFormInvariants(mass, momentum, energy, action)


def J_nu(nu: float, z: float, tol: float = 1e-12) -> float:
    """J_nu(z) = int_0^inf (cosh y - z)^(-nu) dy for nu > 0 and -1 < z < 1.

    The integrand is evaluated as (2 e^-y / ((1 - e^-y)^2 + 2 (1 - z) e^-y))^nu,
    which neither cancels near y = 0 as z -> 1 nor overflows at large y.  For
    large y it approaches 2^nu e^(-nu y), so the quadrature stops at the Y where
    that tail's integral 2^nu e^(-nu Y) / nu is a thousandth of tol.
    """
    if not -1 < z < 1:
        raise ValueError(f"z must lie in (-1, 1), got {z}")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    Y = math.log(1000 * 2**nu / (nu * tol)) / nu
    gap = 1.0 - z

    def f(y: float) -> float:
        e = math.exp(-y)
        u = -math.expm1(-y)
        return (2 * e / (u * u + 2 * gap * e)) ** nu

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v, _ = quad(f, 0.0, Y, epsabs=tol, epsrel=100 * tol, limit=500)
    if not math.isfinite(v):
        raise QuadratureFailure(f"J_nu({nu}, {z}) did not evaluate to a finite value")
    return v


def F_sigma(z: float, sigma: float, tol: float = 1e-12) -> float:
    """Sign detector for the stability character of the endpoint wave family.

    F(z) = (sigma-1)^2 * I1(z)^2 - I2(z)^2 with

        I1 = int_0^inf (cosh y - z)^(-1/sigma) dy = J_{1/sigma}(z),
        I2 = int_0^inf (cosh y - z)^(-1/sigma - 1) * (z cosh y - 1) dy,

    and z cosh y - 1 = z (cosh y - z) + z^2 - 1 gives
    I2 = z J_{1/sigma}(z) + (z^2 - 1) J_{1+1/sigma}(z), so both come from the
    integrals behind mu_reference.  For sigma = 1 the first term vanishes and
    I2 = -1 exactly (the integrand is the derivative of -sinh y / (cosh y - z)).
    """
    if not 1 <= sigma <= 2:
        raise SigmaUnsupported(f"sigma must lie in [1, 2], got {sigma}")
    inv = 1.0 / sigma
    i1 = J_nu(inv, z, tol)
    i2 = z * i1 + (z * z - 1) * J_nu(inv + 1, z, tol)
    return (sigma - 1) ** 2 * i1 * i1 - i2 * i2


def z0_root(sigma: float, z_tol: float = 1e-8, quad_tol: float = 1e-12) -> float:
    """Unique zero of F_sigma on (-1, 1): a 41-point bracket scan, then brentq to z_tol."""
    if not 1 < sigma < 2:
        raise SigmaUnsupported(f"z0_root requires 1 < sigma < 2, got {sigma}")
    eps = 1e-3
    zs = np.linspace(-1 + eps, 1 - eps, 41)
    fs = [F_sigma(float(z), sigma, quad_tol) for z in zs]
    for i in range(len(zs) - 1):
        if fs[i] * fs[i + 1] <= 0:
            return brentq(F_sigma, zs[i], zs[i + 1], args=(sigma, quad_tol), xtol=z_tol / 2)
    raise NoBracket(f"no sign change of F_sigma on [{zs[0]:.3f}, {zs[-1]:.3f}]")
