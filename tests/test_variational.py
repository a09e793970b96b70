"""Constrained minimization of the shifted action: the homogeneity split, the
constraint projection, the descent itself, and the independent reference level.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, hyp2f1

from gdnls import (
    Field,
    Grid,
    NotAdmissible,
    Params,
    SolitonSpec,
    action_S,
    closed_form_invariants,
    estimate_mu,
    homogeneity_split,
    modulate,
    mu_reference,
    profile_Phi,
    profile_phi,
    tilde_functionals,
)
from helpers import band_limited, modulus_alignment_error


def test_homogeneity_split_reproduces_constraint(grid):
    """The constraint of l*psi must be l^2 A + l^(2s+2) B exactly; this pins
    both the split and the quadratic/superquadratic bookkeeping behind it."""
    rng = np.random.default_rng(17)
    psi = band_limited(grid, rng)
    p = Params(1.5, 1.2, 0.9, 1.0, -0.5)
    A, B = homogeneity_split(psi, p)
    for lam in (0.5, 1.0, 1.7):
        scaled = psi.with_values(lam * psi.values)
        k = tilde_functionals(scaled, p).virial
        assert k == pytest.approx(lam**2 * A + lam ** (2 * p.sigma + 2) * B, rel=1e-10)


def test_projection_recovers_the_wave():
    # the constraint scale (A / -B)^(1/2s) of 1.3 * psi* must undo the inflation
    g = Grid(60.0, 2048)
    c = 4 * math.pi * 5 / 60.0
    p = Params(1.0, 1.0, c)
    psi_star = modulate(profile_phi(SolitonSpec(1.0, 1.0, c), g), -c)
    A, B = homogeneity_split(psi_star, p)
    assert A > 0 > B
    assert A + B == pytest.approx(0.0, abs=1e-8 * A)
    A, B = homogeneity_split(psi_star.with_values(1.3 * psi_star.values), p)
    assert (A / -B) ** (1 / (2 * p.sigma)) == pytest.approx(1 / 1.3, abs=1e-8)


def test_estimate_mu_ground_state():
    p = Params(1.0, 1.0, 0.0)
    est = estimate_mu(p)
    assert est.converged
    # the H^1 gradient step with Barzilai-Borwein lengths needs about 15
    # iterations here; an explicit L^2 step, stable only below 1/max(k^2),
    # needs thousands
    assert est.iterations < 25
    assert est.trials >= len(est.history) - 1  # every accepted move was a trial
    # one gradient norm per iteration; only the last is below the tolerance
    assert len(est.grad_norms) == est.iterations
    tol = 1e-5 * max(1.0, abs(est.mu))  # the descent's fixed stopping rule
    assert est.grad_norms[-1] < tol <= min(est.grad_norms[:-1])
    # the carried samples, spectrum and derivative describe the returned field:
    # its moments from scratch give the same level
    assert tilde_functionals(est.minimizer, p).action == pytest.approx(est.mu, rel=1e-12)
    assert est.mu == pytest.approx(math.pi, rel=1e-3)
    # the two level readings (direct action, remainder functional) must agree
    assert est.mu_from_residue == pytest.approx(est.mu, rel=1e-6)
    assert est.mu > 0
    assert est.constraint_residual < 1e-8
    h = np.array(est.history)
    assert np.all(h[1:] <= h[:-1] + 1e-12 * np.abs(h[:-1]) + 1e-15)
    # the minimizer's modulus should be the ground profile up to translation
    ref = profile_Phi(SolitonSpec(1.0, 1.0, 0.0), est.minimizer.grid)
    assert modulus_alignment_error(est.minimizer, ref) < 1e-2


def test_estimate_mu_sigma2_negative_beta_converges():
    # a point where an (omega - c^2/4 + k^2)^(-1) preconditioner stalls; with
    # (1 + k^2)^(-1) a step that only ever halves takes 579 trials, and an
    # uncapped Barzilai-Borwein step 1,102
    p = Params(2.0, 1.0563, 0.5897, 1.0, -0.4776)
    est = estimate_mu(p)
    assert est.converged
    assert est.trials <= 200
    assert est.mu == pytest.approx(mu_reference(p), rel=1e-3)


def test_estimate_mu_zigzag_input_converges_quickly():
    # the slowest level-descent input of seeds 1-40 under a fixed unit step
    # (513 iterations): the unit step zigzags there without backtracking
    p = Params(1.0, 0.97557, 0.37795, 1.0, -0.40731)
    est = estimate_mu(p, Grid(20 * math.pi, 512))
    assert est.converged
    assert est.iterations <= 40
    assert est.mu == pytest.approx(mu_reference(p), rel=1e-3)


def test_estimate_mu_transform_count(monkeypatch):
    """Transforms are counted the way the benchmark tracer counts them, by
    wrapping numpy.fft.fft and ifft; the descent must look both up at call
    time, and a trial must not need a transform of its own."""
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    est = estimate_mu(Params(1.0, 1.0, 0.0), Grid(20 * math.pi, 512))
    assert est.converged
    assert calls["fft"] > 0 and calls["ifft"] > 0
    assert sum(calls.values()) <= 2 + 2 * est.iterations + est.trials


def test_mu_reference_closed_forms():
    assert mu_reference(Params(1.0, 1.0, 0.0)) == pytest.approx(math.pi, rel=1e-12)
    assert mu_reference(Params(1.0, 1.0, 1.0)) == pytest.approx(
        4 * math.pi / 3 + math.sqrt(3.0) / 2, rel=1e-12
    )
    # massless family: c^2 pi / 2 for sigma = 1
    assert mu_reference(Params(1.0, 1.0, 2.0, 1.0, -0.5)) == pytest.approx(
        2 * math.pi, rel=1e-12
    )


def test_mu_reference_endpoint_scaling():
    """Along the massless family the level scales like c^(1 + 1/sigma); the base
    levels are ||Phi'||^2 of the endpoint profile (2/sqrt(6) at sigma = 2 in
    closed form, the sigma = 1.5 value from a half-line quadrature)."""
    base = mu_reference(Params(2.0, 0.25, 1.0, 1.0, -0.5))
    assert base == pytest.approx(2 / math.sqrt(6), rel=1e-15)
    big = mu_reference(Params(2.0, 4.0, 4.0, 1.0, -0.5))
    assert big == pytest.approx(base * 4.0**1.5, rel=1e-12)
    mid = mu_reference(Params(1.5, 0.25, 1.0, 1.0, -0.5))
    assert mid == pytest.approx(1.0652126361518186, rel=1e-9)
    assert mu_reference(Params(1.0, 0.25, 1.0, 1.0, -0.5)) == math.pi / 2


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0, 5.0])
def test_endpoint_level_beta_from_gamma(sigma):
    """The endpoint level takes B(1/2, 1/2 + 1/s) as a ratio of math.gamma values;
    it meets scipy's Beta function to roundoff."""
    s = sigma
    for c in (0.5, 1.0, 3.0):
        ref = (2 * s + 2) ** (1 / s - 1) * c ** (1 + 1 / s) * beta(0.5, 0.5 + 1 / s)
        assert mu_reference(Params(s, c * c / 4, c, 1.0, -0.5)) == pytest.approx(ref, rel=2e-15)


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_endpoint_level_is_the_gradient_norm(sigma):
    """At the endpoint the level equals ||Phi'||^2, by direct quadrature of the
    derivative of Phi = (a / (1 + (s c y)^2))^(1/(2s)), a = 2(s+1)c."""
    s, c = sigma, 1.3
    a = 2 * (s + 1) * c

    def dphi2(y):
        q = (s * c * y) ** 2
        return ((a / (1 + q)) ** (1 / (2 * s)) * s * c * c * y / (1 + q)) ** 2

    grad2 = 2 * quad(dphi2, 0, np.inf, epsabs=0, epsrel=1e-13, limit=500)[0]
    assert mu_reference(Params(s, c * c / 4, c, 1.0, -0.5)) == pytest.approx(grad2, rel=1e-13)


def test_mu_reference_continuity_toward_endpoint():
    # interior levels just inside the boundary tend to the endpoint value
    c = 2.0
    for sigma in (1.0, 1.5, 2.0, 3.0):
        edge = mu_reference(Params(sigma, 1.0, c, 1.0, -0.5))
        gaps = [abs(mu_reference(Params(sigma, 1.0 + d, c)) - edge) / edge
                for d in (1e-5, 1e-6, 1e-7)]
        assert gaps[0] > gaps[1] > gaps[2], sigma
        assert gaps[2] < 1e-5, sigma


def _mu_by_hyp2f1(p):
    """mu_reference's interior formula with each J_nu from scipy's 2F1 (see its docstring)."""
    s, w, c = p.sigma, p.omega, p.c
    r2, q = 4 * w - c * c, 2 * math.sqrt(w)
    a, h, z = (s + 1) * r2 / q, 2 / (s * math.sqrt(r2)), c / q

    def J(nu):
        f = float(hyp2f1(0.5, 0.5, nu + 0.5, (1 + z) / 2))
        return (1 - z) ** (0.5 - nu) * beta(0.5, nu) / math.sqrt(2) * f

    mass, pot = a ** (1 / s) * h * J(1 / s), a ** (1 + 1 / s) * h * J(1 + 1 / s)
    return s / (s + 1) * (r2 / 4 * mass + c * pot / (4 * s + 4))


@pytest.mark.parametrize("sigma", [1.2, 1.5, 2.0, 3.0])
def test_mu_reference_interior_matches_scipy_hyp2f1(sigma):
    # z = c/(2 sqrt(omega)) from -0.9 to 0.9 reaches every branch of J_nu
    for w, c in ((1.0, -1.8), (1.0, -1.0), (1.0, 0.0), (0.9, 0.5), (1.0, 1.2), (4.0, 3.6)):
        p = Params(sigma, w, c)
        assert mu_reference(p) == pytest.approx(_mu_by_hyp2f1(p), rel=1e-13), (w, c)


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0, 3.0])
def test_mu_reference_scaling_law(sigma):
    # u -> lam^(1/(2 sigma)) u(lam x) maps (omega, c) to (lam^2 omega, lam c)
    for w, c in ((1.0, 0.5), (2.0, -1.5), (0.25, 1.0)):
        ab = (1.0, -0.5) if w == c * c / 4 else (1.0, 0.0)
        mu = mu_reference(Params(sigma, w, c, *ab))
        for lam in (0.1, 10.0, 100.0):
            scaled = mu_reference(Params(sigma, lam**2 * w, lam * c, *ab))
            assert scaled == pytest.approx(lam ** (1 + 1 / sigma) * mu, rel=1e-12), lam


def test_mu_reference_at_large_speed_matches_the_sampled_wave():
    """A grid-search candidate with z = c/(2 sqrt(omega)) near 1, where a fixed
    box cannot resolve the wave; the action of a finely sampled profile can."""
    c = 20.0
    p = Params(2.0, c * c / 4 + 0.5, c)
    r = math.sqrt(4 * p.omega - c * c)
    phi = profile_phi(SolitonSpec(p.sigma, p.omega, c), Grid(400 / r, 2**17))
    assert mu_reference(p) == pytest.approx(action_S(phi, p), rel=1e-12)


def test_mu_reference_near_sigma_one_meets_the_closed_forms():
    for w, c in ((1.0, 0.0), (1.0, 1.0), (2.0, -1.5), (1.0, 1.99)):
        assert mu_reference(Params(1 + 1e-9, w, c)) == pytest.approx(
            closed_form_invariants(w, c).action, rel=1e-8
        )


def test_mu_reference_outside_region():
    with pytest.raises((ValueError, NotAdmissible)):
        mu_reference(Params(1.0, 0.2, 1.0))


def test_alignment_error_detects_translation_only():
    g = Grid(60.0, 1024)
    ref = profile_Phi(SolitonSpec(1.0, 1.0, 0.0), g)
    same = modulus_alignment_error(Field(g, ref.values * np.exp(0.4j)), ref)
    assert same < 1e-10
    shifted = profile_phi(SolitonSpec(1.0, 1.0, 0.0, x0=7.3 * g.dx, theta0=1.1), g)
    assert modulus_alignment_error(shifted, ref) < 1e-6
    # a genuinely different modulus must not align
    fat = Field(g, np.exp(-((g.x / 6.0) ** 2)).astype(complex))
    assert modulus_alignment_error(fat, ref) > 0.5
