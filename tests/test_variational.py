"""Constrained minimization of the shifted action: the homogeneity split, the
constraint projection, the descent itself, and the independent reference level.
"""

import dataclasses
import math

import numpy as np
import pytest

from gdnls import (
    Field,
    Grid,
    MinimizeConfig,
    NotAdmissible,
    NotProjectable,
    Params,
    SolitonSpec,
    estimate_mu,
    homogeneity_split,
    modulate,
    modulus_alignment_error,
    mu_reference,
    profile_Phi,
    profile_phi,
    tilde_functionals,
    variational,
)
from helpers import band_limited


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


def test_projection_rejects_data_without_negative_part():
    # a real Gaussian has N = 0, so at c > 0 its superquadratic part is positive
    # and the descent cannot start (at c = 0 that part is pure roundoff)
    g = Grid(60.0, 1024)
    psi = Field(g, np.exp(-(g.x**2) / 4).astype(complex))
    for ab in ((1.0, 0.0), (1.0, -0.5)):
        with pytest.raises(NotProjectable):
            estimate_mu(Params(1.0, 1.0, 0.5, *ab), MinimizeConfig(initial=psi))


def test_minimize_config_validation():
    with pytest.raises(ValueError):
        MinimizeConfig(max_iters=0)
    with pytest.raises(ValueError):
        MinimizeConfig(grad_tol=0.0)
    assert "step" not in {f.name for f in dataclasses.fields(MinimizeConfig)}


def test_estimate_mu_ground_state():
    est = estimate_mu(Params(1.0, 1.0, 0.0))
    assert est.converged
    # the H^1 gradient step needs a few dozen iterations here; an explicit
    # L^2 step, stable only below 1/max(k^2), needs thousands
    assert est.iterations < 100
    assert est.trials >= len(est.history) - 1  # every accepted move was a trial
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
    # a point where the (omega - c^2/4 + k^2)^(-1) preconditioner stalls
    p = Params(2.0, 1.0563, 0.5897, 1.0, -0.4776)
    est = estimate_mu(p, MinimizeConfig(max_iters=2000))
    assert est.converged
    assert est.mu == pytest.approx(mu_reference(p), rel=1e-3)


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
    """Along the massless family the level scales like c^(1 + 1/sigma); the
    base levels are frozen from half-line quadratures of the closed form."""
    base = mu_reference(Params(2.0, 0.25, 1.0, 1.0, -0.5))
    assert base == pytest.approx(2.041241452319315, rel=1e-9)
    big = mu_reference(Params(2.0, 4.0, 4.0, 1.0, -0.5))
    assert big == pytest.approx(base * 4.0**1.5, rel=1e-12)
    mid = mu_reference(Params(1.5, 0.25, 1.0, 1.0, -0.5))
    assert mid == pytest.approx(1.7309705337467058, rel=1e-9)
    # the Beta-function forms reproduce the exact values at sigma = 1 and 2
    assert variational._endpoint_base_level(1.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert base == pytest.approx(5 / math.sqrt(6), rel=1e-15)


def test_mu_reference_continuity_toward_endpoint():
    # interior level just inside the boundary vs the endpoint closed form
    c = 2 * 0.999999
    ref = mu_reference(Params(1.0, 1.0, c))
    assert abs(ref - 2 * math.pi) / (2 * math.pi) < 1e-5


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
