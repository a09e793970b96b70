"""Exact solitary-wave profiles, their defining equations, and scalar diagnostics.

The amplitude solves the profile equation

    -Phi'' + (omega - c^2/4) Phi + (c/2) Phi^(2s+1) - (2s+1)/(2s+2)^2 Phi^(4s+1) = 0

(s = sigma), with two branches: a cosh-based profile for omega > c^2/4 and an
algebraically decaying one at the endpoint omega = c^2/4, c > 0.  The full
complex wave attaches the phase c*x/2 - (2s+2)^{-1} * int_0^x Phi^(2s), which
has a closed form on both branches.

The profile integrals J_nu behind the sigma != 1 level and F_sigma are one
Gauss hypergeometric function each, summed here from its own series (see J_nu),
and z0_root bisects F_sigma, so no run loads scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Field, Grid, Params, require_admissible, spectral_derivative
from .errors import BoundaryProximity, NoBracket, SigmaUnsupported

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


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.  Nothing here calls it: it is
    kept only because the benchmark tracer patches it by name, until that patch goes."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


@dataclass(frozen=True)
class SolitonSpec:
    """A single solitary wave: speeds, nonlinearity power, center, global phase."""

    sigma: float
    omega: float
    c: float
    x0: float = 0.0
    theta0: float = 0.0
    massless: bool = field(init=False, repr=False, compare=False)  # on the endpoint omega = c^2/4

    def __post_init__(self) -> None:
        object.__setattr__(self, "massless", require_admissible(self.sigma, self.omega, self.c))
        if not (math.isfinite(self.x0) and math.isfinite(self.theta0)):
            raise ValueError(f"x0 and theta0 must be finite, got {self.x0}, {self.theta0}")
        object.__setattr__(self, "theta0", self.theta0 % (2 * math.pi))


def _amplitude_power(spec: SolitonSpec, y: np.ndarray) -> np.ndarray:
    """Phi(y)^(2*sigma) for the centered profile, vectorized in y."""
    s, w, c = spec.sigma, spec.omega, spec.c
    if spec.massless:
        return 2 * (s + 1) * c / ((s * c * y) ** 2 + 1)
    root = math.sqrt(4 * w - c * c)
    with np.errstate(over="ignore"):
        den = 2 * math.sqrt(w) * np.cosh(s * root * y) - c
    return (s + 1) * (4 * w - c * c) / den  # far out cosh overflows to inf, and the power to 0


def _amplitude(spec: SolitonSpec, y: np.ndarray) -> np.ndarray:
    return _amplitude_power(spec, y) ** (1.0 / (2 * spec.sigma))


def _warn_edge(f: Field, spec: SolitonSpec, what: str, stacklevel: int = 3) -> None:
    """Warn when f has not decayed at the box edge, at the frame stacklevel up: the sampler's caller."""
    tol = _EDGE_TOL_SLOW if spec.massless else _EDGE_TOL
    frac = f.boundary_fraction()
    if frac > tol:
        warnings.warn(
            f"{what}: boundary magnitude {frac:.2e} of max exceeds {tol:.0e}; "
            "enlarge the box",
            BoundaryProximity,
            stacklevel=stacklevel,
        )


def profile_Phi(spec: SolitonSpec, grid: Grid) -> Field:
    """Real positive amplitude Phi, translated by x0."""
    vals = _amplitude(spec, grid.x - spec.x0)
    f = Field(grid, vals)
    _warn_edge(f, spec, "profile_Phi")
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
    f = Field(grid, _amplitude(spec, y) * np.exp(1j * phase))
    _warn_edge(f, spec, "profile", stacklevel=4)  # past profile_phi or traveling_wave
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


def _series(a: float, c: float, x: float) -> float:
    """2F1(a, a; c; x) = sum_n (a)_n^2 / ((c)_n n!) x^n for 0 <= x <= 1/2, to roundoff.

    Once c + n >= 1 the term ratio is close to x (below x when c > 2a - 1), so the
    sum stops when the geometric tail bound |term| x / (1 - x) is below 2^-53 of it.
    """
    t = s = 1.0
    tol = (2.0**-53 * (1 - x) / x) ** 2 if x else 0.0
    u, v, n = a, c, 1.0  # a + n - 1, c + n - 1 and n at term n
    while v < 1 or t * t > tol * s * s:
        t *= u * u * x / (v * n)
        s += t
        u, v, n = u + 1.0, v + 1.0, n + 1.0
    return s


def J_nu(nu: float, z: float) -> float:
    """J_nu(z) = int_0^inf (cosh y - z)^(-nu) dy for nu > 0 and -1 < z < 1, from Gauss series.

    Euler's integral and Pfaff's transformation (DLMF 15.6.1, 15.8.1) give
        J_nu(z) = (1 - z)^(1/2 - nu) B(1/2, nu) / sqrt(2) 2F1(1/2, 1/2; nu + 1/2; (1 + z)/2),
    summed by one of three series, each of ratio at most 1/4: for |z| <= 1/2 the Taylor
    series in z, whose coefficients int_0^inf cosh^(-nu-k) are B((nu + k)/2, 1/2)/2, in its
    even and odd parts; for z < -1/2 the series in x = (1 + z)/2; for z > 1/2 the connection
    to y = 1 - x (DLMF 15.8.4), with y = (1 - z)/2 taken from z, as a series times the
    singular power (2y)^(1/2 - nu) plus a regular one or, when nu - 1/2 is an integer m
    (sigma = 2 has m = 0 and 1), the logarithmic case (A&S 15.3.10-11).

    The relative error is a few 2^-53, also as z -> 1 (below 1e-15 against a quadrature at
    z = 1 - 1e-6), except in the last branch near nu = 1/2 + m, where the two connection
    terms cancel: below 2^-50 / |nu - 1/2 - m| (4.5e-10 at nu = 1/2 + 1e-6).
    """
    if not -1 < z < 1:
        raise ValueError(f"z must lie in (-1, 1), got {z}")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    rpi = math.sqrt(math.pi)
    if abs(z) <= 0.5:
        g0, g1 = math.gamma(nu / 2), math.gamma((nu + 1) / 2)
        return (rpi / 2 * g0 / g1 * _series(nu / 2, 0.5, z * z)
                + rpi * g1 / g0 * z * _series((nu + 1) / 2, 1.5, z * z))
    g = math.gamma(nu)
    if z < 0:
        beta = rpi * g / math.gamma(nu + 0.5)
        return (1 - z) ** (0.5 - nu) * beta / math.sqrt(2) * _series(0.5, nu + 0.5, (1 + z) / 2)
    y, d = (1 - z) / 2, nu - 0.5
    if d != int(d):
        return (rpi * math.gamma(d) / g * (2 * y) ** -d * _series(0.5, 1 - d, y)
                + g * math.gamma(-d) / (rpi * 2**d) * _series(nu, 1 + d, y)) / math.sqrt(2)
    m = int(d)
    # the finite part, sum_{n < m} (1/2)_n^2 / ((1 - m)_n n!) y^n, which m = 0 lacks
    head, t = float(m > 0), 1.0
    for n in range(1, m):
        t *= (n - 0.5) ** 2 / ((n - m) * n) * y
        head += t
    head = rpi * math.gamma(m) / g / (2 * y) ** m * head if m else 0.0
    # the log series: (nu)_n^2 / ((m + 1)_n n!) y^n times e_n = ln y - psi(n + 1) - psi(n + m + 1)
    # + 2 psi(n + m + 1/2), monotone from e_0 to ln y, so max(|e_0|, |ln y|) bounds the tail's
    e = math.log(y / 16) + sum(4 / (2 * k - 1) - 1 / k for k in range(1, m + 1))
    big, b, s, n = max(abs(e), -math.log(y)), 1.0, 0.0, 0
    while True:
        s += b * e
        if b * big * y <= 2.0**-53 * abs(s) * (1 - y):
            break
        b *= (n + nu) ** 2 / ((n + 1 + m) * (n + 1)) * y
        e += 2 / (n + m + 0.5) - 1 / (n + 1) - 1 / (n + m + 1)
        n += 1
    return (head - (-1) ** m * g / (rpi * 2**m * math.factorial(m)) * s) / math.sqrt(2)


def F_sigma(z: float, sigma: float) -> float:
    """Sign detector for the stability character of the endpoint wave family.

    F(z) = (sigma-1)^2 * I1(z)^2 - I2(z)^2 with

        I1 = int_0^inf (cosh y - z)^(-1/sigma) dy = J_{1/sigma}(z),
        I2 = int_0^inf (cosh y - z)^(-1/sigma - 1) * (z cosh y - 1) dy,

    and z cosh y - 1 = z (cosh y - z) + z^2 - 1 gives
    I2 = z J_{1/sigma}(z) + (z^2 - 1) J_{1+1/sigma}(z), so both come from the
    J_nu behind mu_reference.  For sigma = 1 the first term vanishes and
    I2 = -1 exactly (the integrand is the derivative of -sinh y / (cosh y - z)).
    """
    if not 1 <= sigma <= 2:
        raise SigmaUnsupported(f"sigma must lie in [1, 2], got {sigma}")
    inv = 1.0 / sigma
    i1 = J_nu(inv, z)
    i2 = z * i1 + (z * z - 1) * J_nu(inv + 1, z)
    return (sigma - 1) ** 2 * i1 * i1 - i2 * i2


def z0_root(sigma: float) -> float:
    """Unique zero of F_sigma on (-1, 1): a 41-point bracket scan, then bisection to
    xtol 5e-9, the midpoint of a bracket no wider than 1e-8."""
    if not 1 < sigma < 2:
        raise SigmaUnsupported(f"z0_root requires 1 < sigma < 2, got {sigma}")
    eps = 1e-3
    zs = np.linspace(-1 + eps, 1 - eps, 41).tolist()
    fs = [F_sigma(z, sigma) for z in zs]
    for i in range(len(zs) - 1):
        if fs[i] * fs[i + 1] <= 0:
            lo, hi, f_lo = zs[i], zs[i + 1], fs[i]
            while hi - lo > 1e-8:
                mid = (lo + hi) / 2
                if f_lo * (f_mid := F_sigma(mid, sigma)) <= 0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            return (lo + hi) / 2
    raise NoBracket(f"no sign change of F_sigma on [{zs[0]:.3f}, {zs[-1]:.3f}]")
