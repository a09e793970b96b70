"""Solitary-wave profiles checked against their defining ODE, not against
themselves: the residual tests rebuild the profile equation from scratch, and
the invariant tests compare quadrature on the grid with independent closed forms.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from gdnls import (
    BoundaryProximity,
    Field,
    Grid,
    NoBracket,
    NotAdmissible,
    Params,
    SolitonSpec,
    F_sigma,
    J_nu,
    action_S,
    closed_form_invariants,
    elliptic_residual,
    energy,
    mass,
    momentum,
    profile_Phi,
    profile_phi,
    spectral_derivative,
    traveling_wave,
    z0_root,
)
from gdnls import waves


def test_spec_validation_and_phase_wrap():
    with pytest.raises(NotAdmissible):
        SolitonSpec(1.0, 0.2, 1.0)
    with pytest.raises(NotAdmissible):
        SolitonSpec(1.0, 0.25, -1.0)
    with pytest.raises(ValueError):
        SolitonSpec(0.9, 1.0, 0.0)
    # a NaN centre would sample to a NaN wave and a zero amplitude
    for bad in ({"x0": math.nan}, {"x0": math.inf}, {"theta0": math.nan}, {"theta0": -math.inf}):
        with pytest.raises(ValueError, match="finite"):
            SolitonSpec(1.0, 1.0, 0.0, **bad)
    s = SolitonSpec(1.0, 1.0, 0.0, theta0=2 * math.pi + 0.3)
    assert s.theta0 == pytest.approx(0.3)


def test_spec_endpoint_flag_stays_out_of_repr_and_equality():
    end = SolitonSpec(1.0, 0.25, 1.0)
    assert end.massless and not SolitonSpec(1.0, 1.0, 0.0).massless
    assert repr(end) == "SolitonSpec(sigma=1.0, omega=0.25, c=1.0, x0=0.0, theta0=0.0)"
    assert end == SolitonSpec(1.0, 0.25, 1.0) and hash(end) == hash(SolitonSpec(1.0, 0.25, 1.0))


def test_amplitude_peak_cosh_branch():
    g = Grid(60.0, 2048)
    f = profile_Phi(SolitonSpec(1.0, 1.0, 0.0), g)
    assert f.values[g.N // 2].real == pytest.approx(2.0, rel=1e-14)


def test_amplitude_peak_massless_branch_warns_on_small_box():
    # the algebraic tail is still a couple percent of the peak at |x| = 30
    g = Grid(60.0, 2048)
    with pytest.warns(BoundaryProximity):
        f = profile_Phi(SolitonSpec(1.0, 0.25, 1.0), g)
    assert f.values[g.N // 2].real == pytest.approx(2.0, rel=1e-14)


def test_edge_tolerance_follows_the_decay_regime():
    # the algebraic endpoint tail may reach 1e-6 of the peak at the edge
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryProximity)
        slow = profile_Phi(SolitonSpec(1.0, 0.25, 1.0), Grid(4e6, 2**16))
    assert 1e-10 < slow.boundary_fraction() < 1e-6
    # the exponential cosh tail may reach only 1e-10
    with pytest.warns(BoundaryProximity, match="exceeds 1e-10"):
        fast = profile_Phi(SolitonSpec(1.0, 1.0, 0.0), Grid(40.0, 1024))
    assert 1e-10 < fast.boundary_fraction() < 1e-6


@pytest.mark.parametrize("sample, args", [(profile_Phi, ()), (profile_phi, ()), (traveling_wave, (0.5,))],
                         ids=["profile_Phi", "profile_phi", "traveling_wave"])
def test_boundary_warning_points_at_the_caller(sample, args):
    # the default filter shows a warning once per location, so it must be the caller's line
    with pytest.warns(BoundaryProximity) as rec:
        sample(SolitonSpec(1.0, 0.25, 1.0), Grid(60.0, 1024), *args)
    assert rec[0].filename == __file__


def test_elliptic_residual_small_across_sigma():
    g = Grid(60.0, 2048)
    for s, w, c in ((1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (3.0, 1.0, 0.5), (1.5, 2.0, -1.0)):
        spec = SolitonSpec(s, w, c)
        res = elliptic_residual(profile_Phi(spec, g), Params(s, w, c))
        assert res < 1e-8, (s, w, c, res)


def test_full_wave_modulus_and_phase_slope():
    g = Grid(60.0, 4096)
    spec = SolitonSpec(1.0, 1.0, 0.0)
    phi = profile_phi(spec, g)
    Phi = profile_Phi(spec, g)
    assert np.allclose(np.abs(phi.values), Phi.values.real, atol=1e-12)
    # at the crest the amplitude is flat, so phi'/phi is purely the phase
    # slope c/2 - Phi^2/4 (sigma = 1)
    mid = g.N // 2
    slope = (spectral_derivative(g, np.fft.fft(phi.values))[mid] / phi.values[mid]).imag
    assert slope == pytest.approx(-Phi.values[mid].real ** 2 / 4, rel=1e-8)


def _phase_by_quadrature(spec, y):
    """c y / 2 - (2s+2)^(-1) int_0^y Phi^(2s), the phase integral done by adaptive quadrature."""
    I, _ = quad(lambda t: waves._amplitude(spec, np.asarray(t)) ** (2 * spec.sigma), 0.0, y,
                epsabs=1e-13, epsrel=1e-13, limit=400)
    return 0.5 * spec.c * y - I / (2 * spec.sigma + 2)


def _check_phase(f, spec, grid, shift, phase0, nodes=(64, 1024, 1900)):
    assert np.all(np.isfinite(f.values.view(float)))
    for j in nodes:
        y = float(grid.x[j]) - shift
        want = waves._amplitude(spec, np.asarray(y)) * np.exp(
            1j * (_phase_by_quadrature(spec, y) + phase0))
        assert abs(f.values[j] - want) < 1e-12, (spec, j, f.values[j], want)


def test_phase_is_closed_form_at_the_quadrature_reproducers():
    # both raised QuadratureFailure from the old phase-offset quadrature
    g = Grid(60.0, 4096)
    spec = SolitonSpec(1.0, 0.5, 1.0)
    with pytest.warns(BoundaryProximity):  # at t = 2 the slow tail reaches the box edge
        moved = traveling_wave(spec, g, 2.0)
    _check_phase(moved, spec, g, 2.0, 1.0, nodes=(128, 2048, 3800))
    spec = SolitonSpec(1.0, 1.0, 0.0, x0=2.5)
    _check_phase(profile_phi(spec, g), spec, g, 2.5, 0.0, nodes=(128, 2048, 3800))


def test_phase_sweep_over_sigma_speeds_and_centres():
    g = Grid(60.0, 2048)
    speeds = ((1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0), (1.0, -1.0), (0.25, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryProximity)  # the endpoint tail reaches the edge
        for s in (1.0, 1.5, 2.0, 3.0):
            for w, c in speeds:
                for x0 in (0.0, 1.3, -2.7):
                    spec = SolitonSpec(s, w, c, x0=x0)
                    _check_phase(profile_phi(spec, g), spec, g, x0, 0.0)


def test_phase_integral_spans_the_sigma1_mass():
    # for sigma = 1, I(inf) - I(-inf) = int Phi^2 is the closed-form mass
    for w, c in ((1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (1.0, -1.0), (0.25, 1.0)):
        ends = waves._phase_integral(SolitonSpec(1.0, w, c), np.array([np.inf, -np.inf]))
        assert 4 * (ends[0] - ends[1]) == pytest.approx(closed_form_invariants(w, c).mass,
                                                       rel=1e-14)


def test_translation_is_a_grid_roll():
    g = Grid(60.0, 2048)
    base = profile_phi(SolitonSpec(1.0, 1.0, 0.5), g)
    shifted = profile_phi(SolitonSpec(1.0, 1.0, 0.5, x0=7 * g.dx), g)
    assert np.max(np.abs(shifted.values - np.roll(base.values, 7))) < 1e-10


def test_traveling_wave_at_time_zero():
    g = Grid(60.0, 1024)
    spec = SolitonSpec(2.0, 1.0, 0.25, x0=1.0, theta0=0.7)
    assert np.array_equal(profile_phi(spec, g).values, traveling_wave(spec, g, 0.0).values)


def test_closed_form_invariants_pinned():
    inv = closed_form_invariants(1.0, 0.0)
    assert inv.mass == pytest.approx(2 * math.pi, rel=1e-14)
    assert inv.momentum == pytest.approx(4.0, rel=1e-14)
    assert inv.energy == 0.0
    assert inv.action == pytest.approx(math.pi, rel=1e-14)

    inv = closed_form_invariants(1.0, 1.0)
    assert inv.mass == pytest.approx(8 * math.pi / 3, rel=1e-14)
    assert inv.momentum == pytest.approx(2 * math.sqrt(3.0), rel=1e-14)
    assert inv.energy == pytest.approx(-math.sqrt(3.0) / 2, rel=1e-14)
    assert inv.action == pytest.approx(4 * math.pi / 3 + math.sqrt(3.0) / 2, rel=1e-14)

    m = closed_form_invariants(0.25, 1.0)
    assert (m.mass, m.momentum, m.energy) == (4 * math.pi, 0.0, 0.0)
    assert m.action == pytest.approx(math.pi / 2, rel=1e-14)


def test_closed_form_invariants_rejections():
    with pytest.raises(NotAdmissible):
        closed_form_invariants(0.2, 1.0)
    with pytest.raises(NotAdmissible):
        closed_form_invariants(0.25, -1.0)


def test_invariants_match_quadrature():
    g = Grid(60.0, 2048)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 1.0), g)
    inv = closed_form_invariants(1.0, 1.0)
    assert mass(phi) == pytest.approx(inv.mass, rel=1e-8)
    assert momentum(phi) == pytest.approx(inv.momentum, rel=1e-8)
    assert energy(phi, 1.0) == pytest.approx(inv.energy, rel=1e-8)
    assert action_S(phi, Params(1.0, 1.0, 1.0)) == pytest.approx(inv.action, rel=1e-8)


def test_F1_is_constant_minus_one():
    """For sigma = 1 the first integral term drops and the remaining integrand
    is a perfect derivative, so F must be -1 for every z."""
    for z in (-0.9, 0.0, 0.9):
        assert F_sigma(z, 1.0) == pytest.approx(-1.0, abs=1e-10)


def test_J_nu_at_one_is_the_arctan_form():
    # int_0^inf dy / (cosh y - z) = 2 / sqrt(1 - z^2) * arctan(sqrt((1 + z) / (1 - z)))
    for z in (-0.99, -0.5, 0.0, 0.5, 0.9, 0.999):
        exact = 2 / math.sqrt(1 - z * z) * math.atan(math.sqrt((1 + z) / (1 - z)))
        assert J_nu(1.0, z) == pytest.approx(exact, rel=1e-13)
    with pytest.raises(ValueError):
        J_nu(1.0, 1.0)


def _J_nu_by_quadrature(nu, z):
    """int_0^inf (cosh y - z)^(-nu) dy by adaptive quadrature, split at the width
    sqrt(2 (1 - z)) of the peak at y = 0.  The integrand is written in e^-y, so it
    neither cancels near y = 0 as z -> 1 nor overflows, and the tail beyond
    Y = 40/nu, about 2^nu e^(-40) / nu, is below 1e-16."""
    gap = 1.0 - z

    def f(y):
        e = math.exp(-y)
        u = -math.expm1(-y)
        return (2 * e / (u * u + 2 * gap * e)) ** nu

    w = math.sqrt(2 * gap)
    edges = sorted({0.0, min(w, 1.0), min(10 * w, 1.0), 1.0, 40 / nu})
    return sum(quad(f, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


def test_J_nu_matches_an_independent_quadrature():
    # y = (1 - z)/2 is exact near z = 1, so the error stays at roundoff there
    # (worst 7.8e-16); the closed form through (1 + z)/2 lost 2e-11 at z = 1 - 1e-6
    for nu in (1 / 3, 1 / 2, 2 / 3, 1.0, 4 / 3, 3 / 2, 2.0):
        for z in (-0.99, -0.5, 0.0, 0.5, 0.9, 0.999, 1 - 1e-6):
            assert J_nu(nu, z) == pytest.approx(_J_nu_by_quadrature(nu, z), rel=4e-15), (nu, z)


def _J_nu_by_hyp2f1(nu, z):
    """The closed form J_nu = (1 - z)^(1/2 - nu) B(1/2, nu) / sqrt(2) 2F1(1/2, 1/2; nu + 1/2; (1 + z)/2)
    with scipy's 2F1."""
    beta = math.gamma(0.5) * math.gamma(nu) / math.gamma(nu + 0.5)
    return (1 - z) ** (0.5 - nu) * beta / math.sqrt(2) * float(hyp2f1(0.5, 0.5, nu + 0.5, (1 + z) / 2))


def test_J_nu_matches_scipy_hyp2f1():
    # every branch: the series in z, in x = (1 + z)/2 and in y = (1 - z)/2, the last
    # with its logarithmic case at nu = 1/2 and 3/2
    for nu in (1 / 3, 1 / 2, 2 / 3, 1.0, 4 / 3, 3 / 2, 2.0):
        for z in np.linspace(-0.99, 0.99, 199).tolist():
            assert J_nu(nu, z) == pytest.approx(_J_nu_by_hyp2f1(nu, z), rel=1e-13), (nu, z)


def test_J_nu_next_to_the_logarithmic_case():
    # for z > 1/2 the two connection terms cancel near nu = 1/2 + m: the J_nu
    # docstring bounds the relative error by 2^-50 / |nu - 1/2 - m|
    for nu in (0.5 - 1e-6, 0.5 + 1e-6, 1.5 - 1e-6, 1.5 + 1e-6):
        for z in (-0.99, -0.5, 0.0, 0.5, 0.6, 0.75, 0.9, 0.999, 1 - 1e-6, 1 - 1e-8):
            assert J_nu(nu, z) == pytest.approx(_J_nu_by_quadrature(nu, z), rel=2.0**-50 / 1e-6), (nu, z)


def test_J_nu_domain_checks():
    for nu in (0.0, -0.5):
        with pytest.raises(ValueError, match="nu"):
            J_nu(nu, 0.0)
    with pytest.raises(ValueError, match="z"):
        J_nu(1.0, math.nan)


def test_F_sigma_domain_checks():
    with pytest.raises(ValueError):
        F_sigma(1.0, 1.5)
    with pytest.raises(ValueError):
        F_sigma(-1.0, 1.5)
    with pytest.raises(ValueError):
        F_sigma(0.0, 2.5)


def test_F_sigma_interior_value_pinned():
    # frozen from an independent quadrature run at tight tolerance
    assert F_sigma(0.0, 1.5) == pytest.approx(-0.14902348, abs=1e-7)


def test_z0_root_mid_sigma():
    z0 = z0_root(1.5)
    assert z0 == pytest.approx(0.06183026, abs=1e-6)
    assert abs(F_sigma(z0, 1.5)) < 1e-6


def test_z0_root_domain():
    with pytest.raises(ValueError):
        z0_root(1.0)
    with pytest.raises(ValueError):
        z0_root(2.0)


def test_z0_root_near_one_raises_no_bracket():
    # smoke check that the bracket scan raises the dedicated error when the
    # function cannot bracket; sigma extremely close to 1 keeps F < 0 everywhere
    with pytest.raises((NoBracket, ValueError)):
        z0_root(1.0 + 1e-12)
