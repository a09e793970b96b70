"""Sign conventions, the structural identities, and the sharp-constant
ratios.  Where a convention matters downstream (the momentum sign under a
plane-wave boost) it gets its own pinned check here.
"""

import math

import numpy as np
import pytest

from gdnls import (
    Field,
    Grid,
    Params,
    SolitonSpec,
    ZeroField,
    action_S,
    energy,
    gn1_ratio,
    gn2_ratio,
    identity_suite,
    mass,
    modulate,
    moments,
    momentum,
    profile_Phi,
    sample_moments,
    tilde_functionals,
    virial_K,
)
from helpers import PARAM_POOL, band_limited, count_ffts, enveloped


def test_momentum_sign_under_boost(grid):
    # P(f e^{ibx}) = -b M for real envelopes; everything downstream (the
    # negative-momentum certificate route in particular) leans on this sign
    env = np.exp(-((grid.x / 5.0) ** 2))
    b = 2 * math.pi * 3 / grid.L
    u = Field(grid, env * np.exp(1j * b * grid.x))
    assert momentum(u) == pytest.approx(-b * mass(u), rel=1e-12)


def test_nonlinear_term_under_boost(grid):
    env = np.exp(-((grid.x / 5.0) ** 2))
    b = 2 * math.pi * 2 / grid.L
    u = Field(grid, env * np.exp(1j * b * grid.x))
    for sigma in (1.0, 2.0):
        pot = grid.dx * float(np.sum(env ** (2 * sigma + 2)))
        assert moments(u, sigma).nonlinear == pytest.approx(-b * pot, rel=1e-12)


def test_action_assembly(grid):
    u = band_limited(grid, np.random.default_rng(3))
    p = Params(2.0, 1.3, -0.7)
    expected = energy(u, 2.0) + 0.65 * mass(u) - 0.35 * momentum(u)
    assert action_S(u, p) == pytest.approx(expected, rel=1e-13)


def _direct(u, p):
    """Energy, action and virial from their array formulas."""
    s, a, b, c = p.sigma, p.alpha, p.beta, p.c
    v = u.values
    du = np.fft.ifft(u.grid.ik_first * np.fft.fft(v))
    dx = u.grid.dx
    grad_sq = dx * np.sum(np.abs(du) ** 2)
    m = dx * np.sum(np.abs(v) ** 2)
    mom = dx * np.sum((1j * du * np.conj(v)).real)
    n = dx * np.sum((1j * np.abs(v) ** (2 * s) * np.conj(v) * du).real)
    pot = dx * np.sum(np.abs(v) ** (2 * s + 2))
    e = 0.5 * grad_sq - n / (2 * s + 2)
    k = (
        0.5 * (2 * a - b) * grad_sq
        + (0.5 * (2 * a + b) * p.omega - 0.25 * c**2 * b) * m
        + 0.5 * (2 * a - b) * c * mom
        + b * c / (2 * (2 * s + 2)) * pot
        - a * n
    )
    return e, e + 0.5 * p.omega * m + 0.5 * c * mom, k


def test_moments_match_direct_array_formulas(grid):
    rng = np.random.default_rng(11)
    for p in PARAM_POOL:
        u = band_limited(grid, rng, amplitude=0.5 + 1.5 * rng.random())
        got = (energy(u, p.sigma), action_S(u, p), virial_K(u, p))
        assert got == pytest.approx(_direct(u, p), rel=1e-12)


def _five_sums(v, du, dx, sigma):
    """The five moment integrals as plain sums, the reference for the dot-product form."""
    a2 = v.real**2 + v.imag**2
    cross = (np.conj(v) * du).imag
    ws = a2**sigma
    return (dx * float(np.sum(a2)), -dx * float(np.sum(cross)),
            dx * float(np.sum(du.real**2 + du.imag**2)), -dx * float(np.sum(ws * cross)),
            dx * float(np.sum(ws * a2)))


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0])
def test_sample_moments_match_the_five_sums(sigma):
    rng = np.random.default_rng(17)
    for n in (256, 1024, 4096):
        v, du = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        got = sample_moments(v, du, 0.05, sigma)
        assert got.sigma == sigma
        assert got[1:] == pytest.approx(_five_sums(v, du, 0.05, sigma), rel=1e-13, abs=0.0)
    zero = np.zeros(64, complex)
    assert sample_moments(zero, zero, 0.05, sigma)[1:] == (0.0,) * 5


def test_scaled_moments_are_the_moments_of_the_scaled_field(grid):
    u = band_limited(grid, np.random.default_rng(13))
    for sigma in (1.0, 2.5):
        got = moments(u, sigma).scaled(-1.7)
        want = moments(u.with_values(-1.7 * u.values), sigma)
        assert got == pytest.approx(want, rel=1e-12)


def test_modulated_moments_are_the_moments_of_the_modulated_field(grid):
    u = band_limited(grid, np.random.default_rng(14))
    c = -3 * 4 * math.pi / grid.L
    for sigma in (1.0, 2.5):
        got = moments(u, sigma).modulated(c)
        want = moments(modulate(u, c), sigma)
        assert got == pytest.approx(want, rel=1e-12)


def test_identity_suite_randomized(grid):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(30):
        u = band_limited(grid, rng, amplitude=0.5 + 2.0 * rng.random())
        worst = max(worst, identity_suite(u, PARAM_POOL[i % len(PARAM_POOL)]).max_relative())
    assert worst < 1e-9


def test_identity_suite_takes_one_derivative(grid, monkeypatch):
    # both sides of every identity read one u_x: one forward and one inverse transform
    u = band_limited(grid, np.random.default_rng(3))
    calls = count_ffts(monkeypatch)
    rep = identity_suite(u, PARAM_POOL[5])
    assert calls == [2, 2] and rep.ok()


def test_identity_suite_zero_field(grid):
    rep = identity_suite(Field(grid, np.zeros(grid.N)), Params(1.0, 1.0, 0.0))
    assert rep.ok()
    assert rep.max_relative() == 0.0


def test_tilde_frame_matches_modulated_lab_frame(grid):
    # evaluating the plain functionals on e^{icx/2} psi must reproduce the
    # shifted-frame formulas evaluated on psi, for box-periodic speeds
    rng = np.random.default_rng(7)
    psi = band_limited(grid, rng)
    c = 6 * 4 * math.pi / grid.L
    p = Params(1.0, c * c / 4 + 0.8, c, 1.0, -0.5)
    u = modulate(psi, c)
    t = tilde_functionals(psi, p)
    assert action_S(u, p) == pytest.approx(t.action, rel=1e-10, abs=1e-10)
    assert virial_K(u, p) == pytest.approx(t.virial, rel=1e-10, abs=1e-10)


def test_tilde_residue_nonnegative(grid):
    rng = np.random.default_rng(8)
    for i in range(6):
        psi = band_limited(grid, rng)
        t = tilde_functionals(psi, PARAM_POOL[i])
        assert t.residue > 0.0


def test_gn1_sharp_at_ground_profile():
    g = Grid(60.0, 2048)
    Q = profile_Phi(SolitonSpec(1.0, 1.0, 0.0), g)
    assert abs(gn1_ratio(Q) - 1.0) < 1e-6
    assert mass(Q) == pytest.approx(2 * math.pi, rel=1e-6)


def test_ratios_bounded_by_one_on_decaying_fields(grid):
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = enveloped(grid, rng, amplitude=0.5 + rng.random())
        for fn in (gn1_ratio, gn2_ratio):
            assert fn(u) <= 1.0 + 1e-9


def test_ratios_reject_zero_field(grid):
    z = Field(grid, np.zeros(grid.N))
    for fn in (gn1_ratio, gn2_ratio):
        with pytest.raises(ZeroField):
            fn(z)
