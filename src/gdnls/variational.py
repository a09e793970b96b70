"""Estimation of the minimal action level on the zero set of the virial functional.

The level is approached by projected gradient descent: each step moves against
the H^1 (Sobolev) gradient of the modulation-removed action, that is the L^2
gradient smoothed by (1 - d_x^2)^(-1), and then rescales back onto the
constraint set, which is possible in closed form because the constraint
splits into quadratic and superquadratic parts under psi -> lambda * psi.
The smoothing removes the stiffness of the Laplacian part, so unit steps are
stable on any grid and the iteration count does not grow with max(k^2).
The target level is known in closed form for sigma = 1 and at the endpoint
and is computed by quadrature of the solitary profile otherwise, which gives
the reference the estimate is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import beta

from .core import Field, Grid, Params, require_admissible, spectral_derivative, validate_params
from .errors import NotProjectable, ZeroField
from .functionals import action_S, moments, tilde_functionals
from .waves import SolitonSpec, closed_form_invariants, profile_phi

__all__ = [
    "MinimizeConfig",
    "MuEstimate",
    "homogeneity_split",
    "estimate_mu",
    "mu_reference",
    "modulus_alignment_error",
]


@dataclass(frozen=True)
class MinimizeConfig:
    """Stopping rule, starting field and grid for the projected descent.

    The step is not a setting: it starts at 1, the natural scale of the H^1
    gradient step (the preconditioned Laplacian part has symbol
    k^2 / (1 + k^2) < 1 on every grid).  Backtracking halves it whenever a
    move fails to decrease the action, and the halved step carries over to
    later iterations.
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
    recorded in history are post-projection and non-increasing up to roundoff.
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
    dx = g.dx

    def project(v: np.ndarray) -> tuple[np.ndarray, float]:
        """The rescaled field and its action, both from one moment evaluation of v."""
        mom = moments(Field(g, v), s)
        A, B = mom.split(p)
        if not (A > 0 and B < 0):
            raise NotProjectable(
                f"descent left the projectable region: A={A:.3e}, B={B:.3e}"
            )
        lam = (A / -B) ** (1 / (2 * s))
        return lam * v, mom.scaled(lam).tilde(p).action

    v, s_now = project(psi.values)
    eta = 1.0
    history = [s_now]
    converged = False
    it = 0
    trials = 0
    for it in range(1, cfg.max_iters + 1):
        # The gradient is assembled and normed in Fourier space (Parseval),
        # so only the nonlinear term makes a round trip through x.
        vh = np.fft.fft(v)
        dv = spectral_derivative(g, vh)
        w = np.abs(v) ** (2 * s)
        grad_h = (k2 + b) * vh + np.fft.fft(w * (0.5 * p.c * v - 1j * dv))
        gnorm = math.sqrt(dx / g.N * float(np.sum(np.abs(grad_h) ** 2)))
        if gnorm < cfg.grad_tol * max(1.0, abs(s_now)):
            converged = True
            break
        d = np.fft.ifft(grad_h / (1.0 + k2))
        # Backtracking: halve until the projected step decreases the action.
        # A step large enough to leave the projectable region counts as failed.
        accepted = False
        while eta > 1e-12:
            trials += 1
            try:
                trial, s_trial = project(v - eta * d)
            except NotProjectable:
                eta *= 0.5
                continue
            if s_trial <= s_now + 1e-12 * abs(s_now):
                v, s_now = trial, s_trial
                history.append(s_now)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break

    minimizer = Field(g, v)
    vals = tilde_functionals(minimizer, p)
    return MuEstimate(
        mu=vals.action,
        mu_from_residue=vals.residue / (p.alpha * (2 * s + 2)),
        minimizer=minimizer,
        iterations=it,
        trials=trials,
        converged=converged,
        constraint_residual=abs(vals.virial),
        history=history,
    )


@lru_cache(maxsize=None)
def _endpoint_base_level(sigma: float) -> float:
    """Action level of the endpoint wave at c = 1; scales like c^(1 + 1/sigma).

    With a = 2s + 2 and Phi^(2s) = a / (1 + (s y)^2),

        level = ||Phi'||^2/2 - ||Phi||_{4s+2}^{4s+2} / (2 a^2) + ||Phi||_{2s+2}^{2s+2} / (2 a),

    using |psi'|^2 = (Phi')^2 + Phi^(4s+2)/a^2 and N(psi) = ||Phi||_{4s+2}^{4s+2}/a
    for the phase-dressed profile.  After z = s y each integral is a Beta
    function: the integral of (1 + z^2)^(-m) z^(2j) over the line is
    B(j + 1/2, m - j - 1/2).
    """
    s = sigma
    a = 2 * s + 2
    G = a ** (1 / s) * s * beta(1.5, 0.5 + 1 / s)
    T = a ** (1 + 1 / s) / s * beta(0.5, 0.5 + 1 / s)
    Q = a ** (2 + 1 / s) / s * beta(0.5, 1.5 + 1 / s)
    return float(0.5 * G - Q / (2 * a * a) + T / (2 * a))


def mu_reference(p: Params) -> float:
    """Reference value of the constrained level: the action of the solitary wave.

    sigma = 1 uses the closed forms; other powers use quadrature on an
    automatic exponential-decay box away from the endpoint and Beta functions
    at it.
    """
    endpoint = require_admissible(p.sigma, p.omega, p.c)
    if p.sigma == 1.0:
        return closed_form_invariants(p.omega, p.c).action
    if endpoint:
        return p.c ** (1 + 1 / p.sigma) * _endpoint_base_level(p.sigma)
    rate = math.sqrt(4 * p.omega - p.c**2)
    L = max(60.0, 100.0 / rate)
    grid = Grid(L, 4096)
    phi = profile_phi(SolitonSpec(p.sigma, p.omega, p.c), grid)
    return action_S(phi, p)


def modulus_alignment_error(psi: Field, reference: Field) -> float:
    """Sup-norm distance of |psi| to the reference after the best translation.

    Coarse alignment by circular cross-correlation, then a bounded 1-D search
    over sub-grid shifts applied spectrally to |psi|.
    """
    a = np.abs(psi.values)
    ref = reference.values.real
    g = psi.grid
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(ref))).real
    m0 = int(np.argmax(corr))
    if m0 > g.N // 2:
        m0 -= g.N
    ah = np.fft.fft(a)

    def err(shift: float) -> float:
        moved = np.fft.ifft(ah * np.exp(-1j * g.k * shift)).real
        return float(np.max(np.abs(moved - ref)))

    res = minimize_scalar(
        err, bounds=(-m0 * g.dx - g.dx, -m0 * g.dx + g.dx), method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.fun)
