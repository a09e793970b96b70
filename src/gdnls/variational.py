"""Estimation of the minimal action level on the zero set of the virial functional.

The level is approached by projected gradient descent: each step moves against
the H^1 (Sobolev) gradient of the modulation-removed action, that is the L^2
gradient smoothed by (1 - d_x^2)^(-1), and then rescales back onto the
constraint set, which is possible in closed form because the constraint
splits into quadratic and superquadratic parts under psi -> lambda * psi.
The smoothing removes the stiffness of the Laplacian part, so the step length
is of order 1 on any grid and the iteration count does not grow with max(k^2).
The step length is the Barzilai-Borwein quotient of the last move and the
change of gradient, measured in the H^1 metric, with a monotone line search.
The target level, the action of the solitary wave, is a closed form at
sigma = 1 and two profile integrals J_nu otherwise, each one Gauss
hypergeometric function (one Beta function at the endpoint); that gives the
reference the estimate is tested against without sampling the wave on a grid
or running a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import Field, Grid, Params, require_admissible, spectral_derivative, validate_params
from .errors import NotProjectable, ZeroField
# action_S and tilde_functionals are unused here; bench/tracer.py patches them by name
from .functionals import action_S, moments, sample_moments, tilde_functionals  # noqa: F401
from .waves import J_nu, SolitonSpec, closed_form_invariants, profile_phi

__all__ = [
    "MinimizeConfig",
    "MuEstimate",
    "homogeneity_split",
    "estimate_mu",
    "mu_reference",
]


@dataclass(frozen=True)
class MinimizeConfig:
    """Stopping rule, starting field and grid for the projected descent.

    The step is not a setting.  The first is 1, the natural scale of the H^1
    gradient step (the preconditioned Laplacian part has symbol
    k^2 / (1 + k^2) < 1 on every grid).  Each later one is the preconditioned
    Barzilai-Borwein step <s, (1 + k^2) s> / <s, y> of the last move s and
    gradient change y, or 1 when <s, y> <= 0, clipped to [1e-3, 1e3] and to
    twice the last accepted step.  Backtracking halves it until a move
    decreases the action.
    """

    max_iters: int = 60_000
    grad_tol: float = 1e-5
    initial: Field | None = None
    grid: Grid | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class MuEstimate:
    mu: float
    mu_from_residue: float  # same level read off the remainder functional
    minimizer: Field
    iterations: int
    trials: int  # projected trial steps, counting the ones backtracking rejected
    converged: bool
    constraint_residual: float
    history: list[float] = dc_field(repr=False, default_factory=list)
    grad_norms: list[float] = dc_field(repr=False, default_factory=list)  # one per iteration


def homogeneity_split(psi: Field, p: Params) -> tuple[float, float]:
    """Quadratic and superquadratic parts of the constraint: K(l*psi) = l^2 A + l^(2s+2) B."""
    if not np.any(psi.values):
        raise ZeroField("split undefined for the zero field")
    return moments(psi, p.sigma).split(p)


def _default_initial(p: Params, grid: Grid) -> Field:
    """Inflated, slightly perturbed exact minimizer with its modulation removed.

    The plane-wave factor is sampled directly: the envelope decays at the box
    edge, so periodicity of the factor itself is not required.
    """
    phi = profile_phi(SolitonSpec(p.sigma, p.omega, p.c), grid)
    x = grid.x
    psi = 1.2 * phi.values * np.exp(-0.5j * p.c * x)
    bump = 0.03 * float(np.max(np.abs(psi))) / np.cosh(x / 2)
    k5 = 2 * np.pi * 5 / grid.L
    return Field(grid, psi + bump * np.exp(1j * k5 * x))


def estimate_mu(p: Params, cfg: MinimizeConfig = MinimizeConfig()) -> MuEstimate:
    """Preconditioned projected gradient descent for the constrained action level.

    Assembles the L^2 gradient of the modulation-removed action spectrally,
    steps along its H^1 Sobolev form ifft(fft(grad) / (1 + k^2)), reprojects
    after every step, and stops once the L^2 norm of the unpreconditioned
    gradient falls below grad_tol * max(1, |action|).  The action values
    recorded in history are post-projection and non-increasing up to roundoff;
    grad_norms holds the norm tested at each iteration.

    The iterate is carried as samples, spectrum and derivative together.  All
    three move linearly along the step and scale with the projection, so a
    trial costs no transform, and an iteration costs three: the forward FFT
    of the nonlinear part of the gradient and the two inverse FFTs that bring
    the preconditioned gradient and its derivative back to x.
    """
    validate_params(p)
    if cfg.initial is not None:
        psi = cfg.initial
    else:
        psi = _default_initial(p, cfg.grid if cfg.grid is not None else Grid(20 * math.pi, 512))
    g = psi.grid
    s = p.sigma
    b = p.omega - p.c**2 / 4
    k2 = g.k**2
    h1 = 1.0 + k2  # the H^1 symbol: preconditioner and step metric
    dx = g.dx

    def project(v, vh, vx):
        """The iterate (v, its spectrum, its derivative) rescaled onto the constraint
        set, and the tilde functionals of the rescaled field, from one pass over v and vx."""
        mom = sample_moments(v, vx, dx, s)
        A, B = mom.split(p)
        if not (A > 0 and B < 0):
            raise NotProjectable(
                f"descent left the projectable region: A={A:.3e}, B={B:.3e}"
            )
        lam = (A / -B) ** (1 / (2 * s))
        return (lam * v, lam * vh, lam * vx), mom.scaled(lam).tilde(p)

    vh = np.fft.fft(psi.values)
    (v, vh, vx), vals = project(psi.values, vh, spectral_derivative(g, vh))
    history, grad_norms = [vals.action], []
    converged = False
    it = trials = 0
    eta_last = 1.0
    prev = None  # (vh, grad_h) of the previous iterate
    for it in range(1, cfg.max_iters + 1):
        w = np.abs(v) ** (2 * s)
        grad_h = (k2 + b) * vh + np.fft.fft(w * (0.5 * p.c * v - 1j * vx))
        gnorm = math.sqrt(dx / g.N * float(np.sum(np.abs(grad_h) ** 2)))
        grad_norms.append(gnorm)
        if gnorm < cfg.grad_tol * max(1.0, abs(vals.action)):
            converged = True
            break
        dh = grad_h / h1
        # Barzilai-Borwein step in the H^1 metric; see MinimizeConfig for the guards
        eta = 1.0
        if prev is not None:
            sh, yh = vh - prev[0], grad_h - prev[1]
            sy = float(np.vdot(sh, yh).real)
            if sy > 0:
                eta = float(np.vdot(sh, h1 * sh).real) / sy
            eta = min(max(eta, 1e-3), 1e3, 2 * eta_last)
        prev = (vh, grad_h)
        d, d_x = np.fft.ifft(dh), spectral_derivative(g, dh)
        # Backtracking: halve until the projected step decreases the action.
        # A step large enough to leave the projectable region counts as failed.
        accepted = False
        while eta > 1e-12:
            trials += 1
            try:
                trial, trial_vals = project(v - eta * d, vh - eta * dh, vx - eta * d_x)
            except NotProjectable:
                eta *= 0.5
                continue
            if trial_vals.action <= vals.action + 1e-12 * abs(vals.action):
                (v, vh, vx), vals, eta_last = trial, trial_vals, eta
                history.append(vals.action)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break

    return MuEstimate(
        mu=vals.action,
        mu_from_residue=vals.residue / (p.alpha * (2 * s + 2)),
        minimizer=Field(g, v),
        iterations=it,
        trials=trials,
        converged=converged,
        constraint_residual=abs(vals.virial),
        history=history,
        grad_norms=grad_norms,
    )


def mu_reference(p: Params) -> float:
    """Reference value of the constrained level: the action of the solitary wave.

    The profile equation integrated against Phi and its first integral leave
    mu = s/(s+1) [(omega - c^2/4) M + c Pot/(4s+4)] with s = sigma, M = ||Phi||^2
    and Pot = ||Phi||_{2s+2}^{2s+2}.  Inside the region Phi^(2s) = a/(cosh(s r y) - z)
    with r = sqrt(4 omega - c^2), z = c/(2 sqrt(omega)), a = (s+1) r^2/(2 sqrt(omega)),
    so M = a^(1/s) h J_{1/s}(z) and Pot = a^(1+1/s) h J_{1+1/s}(z) with h = 2/(s r),
    where J_nu is in closed form (waves.J_nu).
    At the endpoint the first term is 0 and Pot is one Beta function, giving
    mu = (2s+2)^(1/s-1) c^(1+1/s) B(1/2, 1/2+1/s), which is also ||Phi'||^2.
    sigma = 1 keeps the closed forms.
    """
    s, w, c = p.sigma, p.omega, p.c
    if s == 1.0:
        return closed_form_invariants(w, c).action
    if require_admissible(s, w, c):
        # B(1/2, 1/2 + 1/s) from math.gamma: for s >= 1 every argument lies in [1/2, 2]
        beta = math.gamma(0.5) * math.gamma(0.5 + 1 / s) / math.gamma(1 + 1 / s)
        return (2 * s + 2) ** (1 / s - 1) * c ** (1 + 1 / s) * beta
    r2, q = 4 * w - c * c, 2 * math.sqrt(w)
    a, h = (s + 1) * r2 / q, 2 / (s * math.sqrt(r2))
    mass = a ** (1 / s) * h * J_nu(1 / s, c / q)
    pot = a ** (1 + 1 / s) * h * J_nu(1 + 1 / s, c / q)
    return s / (s + 1) * (r2 / 4 * mass + c * pot / (4 * s + 4))

