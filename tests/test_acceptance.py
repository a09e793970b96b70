"""Acceptance gate: nine end-to-end criteria with pinned tolerances and
runtime budgets.  Each test prints a single PASS/FAIL line (visible under
pytest -s) and then asserts, so the suite both reports and enforces.
"""

import math
import time
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from gdnls import (
    BoundaryProximity,
    Certificate,
    Field,
    Grid,
    Params,
    SchemeConfig,
    SearchConfig,
    SolitonSpec,
    action_S,
    certify_global,
    closed_form_invariants,
    corollary15_data,
    elliptic_residual,
    energy,
    estimate_mu,
    F_sigma,
    gn1_ratio,
    gn2_ratio,
    identity_suite,
    integrate,
    invariance_check,
    mass,
    membership,
    momentum,
    mu_reference,
    profile_Phi,
    profile_phi,
    traveling_wave,
    z0_root,
)
from helpers import PARAM_POOL, band_limited


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_acceptance_1_closed_form_invariants():
    t0 = time.perf_counter()
    g = Grid(60.0, 4096)
    expected = {
        (1.0, 0.0): (2 * math.pi, 4.0, 0.0, math.pi),
        (1.0, 1.0): (8 * math.pi / 3, 2 * math.sqrt(3.0), -math.sqrt(3.0) / 2,
                     4 * math.pi / 3 + math.sqrt(3.0) / 2),
    }
    worst = 0.0
    for (w, c), (m_ref, p_ref, e_ref, s_ref) in expected.items():
        phi = profile_phi(SolitonSpec(1.0, w, c), g)
        closed = closed_form_invariants(w, c)
        assert closed == (m_ref, p_ref, e_ref, s_ref) or all(
            abs(a - b) < 1e-14 * (1 + abs(b)) for a, b in zip(closed, (m_ref, p_ref, e_ref, s_ref))
        )
        vals = (mass(phi), momentum(phi), energy(phi, 1.0), action_S(phi, Params(1.0, w, c)))
        for got, ref in zip(vals, (m_ref, p_ref, e_ref, s_ref)):
            worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 1.0
    _verdict(1, ok, f"quadrature vs closed forms, worst rel {worst:.2e} (tol 1e-6), {dt:.2f}s")


def test_acceptance_2_elliptic_residual():
    t0 = time.perf_counter()
    g = Grid(60.0, 2048)
    worst = 0.0
    for s, w, c in ((1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (3.0, 1.0, 0.5)):
        res = elliptic_residual(profile_Phi(SolitonSpec(s, w, c), g), Params(s, w, c))
        worst = max(worst, res)
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 1.0
    _verdict(2, ok, f"profile equation residual, worst {worst:.2e} (tol 1e-8), {dt:.2f}s")


def test_acceptance_3_sharp_gn_constants():
    t0 = time.perf_counter()
    Q = profile_Phi(SolitonSpec(1.0, 1.0, 0.0), Grid(60.0, 2048))
    gn1_err = abs(gn1_ratio(Q) - 1.0)
    q_mass_err = abs(mass(Q) - 2 * math.pi) / (2 * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryProximity)
        W = profile_Phi(SolitonSpec(1.0, 0.25, 1.0), Grid(400.0, 2**15))
        gn2_err = abs(gn2_ratio(W) - 1.0)
        # the quartic-family mass converges only like 1/L, so the mass check
        # runs on a much longer box than the ratio check
        W_wide = profile_Phi(SolitonSpec(1.0, 0.25, 1.0), Grid(0.3 * 2**18, 2**18))
        w_mass_err = abs(mass(W_wide) - 4 * math.pi) / (4 * math.pi)
    dt = time.perf_counter() - t0
    ok = gn1_err < 1e-6 and q_mass_err < 1e-6 and gn2_err < 1e-5 and w_mass_err < 1e-4 and dt < 5.0
    _verdict(3, ok, f"gn1 off by {gn1_err:.2e}, |Q|^2 rel {q_mass_err:.2e}, "
                    f"gn2 off by {gn2_err:.2e}, |W|^2 rel {w_mass_err:.2e}, {dt:.2f}s")


def test_acceptance_4_identity_suite():
    t0 = time.perf_counter()
    g = Grid(60.0, 1024)
    rng = np.random.default_rng(7)
    n_fields = 110
    worst = 0.0
    for i in range(n_fields):
        u = band_limited(g, rng, amplitude=0.3 + 2.5 * rng.random())
        worst = max(worst, identity_suite(u, PARAM_POOL[i % len(PARAM_POOL)]).max_relative())
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 10.0
    _verdict(4, ok, f"{n_fields} fields x {len(PARAM_POOL)} params, worst rel residual "
                    f"{worst:.2e} (tol 1e-9), {dt:.2f}s")


def test_acceptance_5_mu_estimation():
    t0 = time.perf_counter()
    cases = {
        (1.0, 0.0): ((1.0, 0.0), (1.0, 0.5)),
        (1.0, 1.0): ((1.0, 0.0), (1.0, -0.5)),
    }
    worst_ref = 0.0
    worst_cross = 0.0
    for (w, c), pairs in cases.items():
        mus = []
        for a, b in pairs:
            p = Params(1.0, w, c, a, b)
            est = estimate_mu(p)
            assert est.converged, (w, c, a, b)
            ref = mu_reference(p)
            worst_ref = max(worst_ref, abs(est.mu - ref) / ref)
            mus.append(est.mu)
        worst_cross = max(worst_cross, abs(mus[0] - mus[1]) / abs(mus[0]))
    dt = time.perf_counter() - t0
    ok = worst_ref < 1e-3 and worst_cross < 2e-3 and dt < 60.0
    _verdict(5, ok, f"estimate vs reference rel {worst_ref:.2e} (tol 1e-3), "
                    f"exponent-pair agreement {worst_cross:.2e} (tol 2e-3), {dt:.2f}s")


def _scenario_small_mass():
    g = Grid(60.0, 1024)
    u = Field(g, np.exp(-(g.x**2)).astype(complex))
    u = u.with_values(u.values * math.sqrt(3.9 * math.pi / mass(u)))
    return u, SearchConfig(sigma=1.0)


def _scenario_negative_momentum():
    g = Grid(60.0, 1024)
    q = 2 * math.pi * 5 / 60.0
    u = Field(g, (np.exp(-(g.x**2)) * np.exp(1j * q * g.x)).astype(complex))
    u = u.with_values(u.values * math.sqrt(4.0 * math.pi / mass(u)))
    return u, SearchConfig(sigma=1.0)


def _scenario_modulated():
    g = Grid(20 * math.pi, 1024)
    psi = Field(g, (1.2 * np.exp(-(g.x**2) / 4)).astype(complex))
    return corollary15_data(psi, 12.8), SearchConfig(sigma=2.0, strategy_hint="modulation")


def test_acceptance_6_certificates():
    t0 = time.perf_counter()
    scenarios = (
        (_scenario_small_mass, "massless-scan"),
        (_scenario_negative_momentum, "negative-momentum"),
        (_scenario_modulated, "modulation"),
    )
    details = []
    ok = True
    for build, tag in scenarios:
        u, search = build()
        res = certify_global(u, search)
        good = isinstance(res, Certificate) and res.strategy == tag
        if good:
            good = membership(u, res.params).kind == "KPlus"
        ok = ok and good
        details.append(f"{tag}:{'ok' if good else 'FAIL'}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _verdict(6, ok, f"{', '.join(details)}, membership rechecked, {dt:.2f}s")


def test_acceptance_7_solver_accuracy():
    t0 = time.perf_counter()
    g = Grid(60.0, 1024)
    spec = SolitonSpec(1.0, 1.0, 0.0)
    phi = profile_phi(spec, g)
    p = Params(1.0, 1.0, 0.0)
    exact = traveling_wave(spec, g, 5.0)

    traj = integrate(phi, SchemeConfig(dt=1e-3, T=5.0), p, sample_every=100)
    err = float(np.max(np.abs(traj.final.values - exact.values)))
    r0 = traj.records[0]
    drift = max(
        max(abs(r.mass - r0.mass) / max(abs(r0.mass), 1.0) for r in traj.records),
        max(abs(r.energy - r0.energy) / max(abs(r0.energy), 1.0) for r in traj.records),
        max(abs(r.momentum - r0.momentum) / max(abs(r0.momentum), 1.0) for r in traj.records),
    )
    half = integrate(phi, SchemeConfig(dt=5e-4, T=5.0), p, sample_every=1000)
    err_half = float(np.max(np.abs(half.final.values - exact.values)))
    ratio = err / err_half
    dt = time.perf_counter() - t0
    ok = err < 1e-4 and drift < 1e-8 and 10.0 < ratio < 24.0 and dt < 60.0
    _verdict(7, ok, f"Linf {err:.2e} (tol 1e-4), drift {drift:.2e} (tol 1e-8), "
                    f"halving ratio {ratio:.1f} (target ~16), {dt:.1f}s")


def test_acceptance_8_flow_invariance():
    t0 = time.perf_counter()
    u, search = _scenario_small_mass()
    cert = certify_global(u, search)
    assert isinstance(cert, Certificate)
    traj = integrate(u, SchemeConfig(dt=1e-3, T=5.0), Params(1.0, 1.0, 0.0),
                     sample_every=10, cert=cert)
    rep = invariance_check(traj, cert)
    dt = time.perf_counter() - t0
    ok = rep.virial_ok and rep.h1_ok and not traj.blowup and dt < 120.0
    _verdict(8, ok, f"min K {rep.min_virial:.4g} >= -{rep.drift_scale:.2e}, "
                    f"max |u_x| {rep.h1_max:.3f} <= {rep.h1_bound:.3f}, {dt:.1f}s")


def _F_sigma_by_quadrature(z, s):
    """F_sigma from adaptive quadrature of its two defining integrals, not from J_nu;
    the integrands fall like e^(-y/s), so the tail beyond y = 80 is below 1e-18."""
    nu = 1 / s
    i1 = quad(lambda y: (math.cosh(y) - z) ** -nu, 0, 80,
              epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    i2 = quad(lambda y: (math.cosh(y) - z) ** (-nu - 1) * (z * math.cosh(y) - 1), 0, 80,
              epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return (s - 1) ** 2 * i1 * i1 - i2 * i2


def test_acceptance_9_F_sigma_and_roots():
    t0 = time.perf_counter()
    f1_worst = max(abs(F_sigma(z, 1.0) + 1.0) for z in (-0.9, 0.0, 0.9))
    resid_worst = 0.0
    shift_worst = 0.0
    for s in (1.2, 1.5, 1.8):
        z0 = z0_root(s)
        resid_worst = max(resid_worst, abs(F_sigma(z0, s)))
        z0_quad = brentq(_F_sigma_by_quadrature, -0.999, 0.999, args=(s,), xtol=1e-12)
        shift_worst = max(shift_worst, abs(z0 - z0_quad))
    dt = time.perf_counter() - t0
    ok = f1_worst < 1e-10 and resid_worst < 1e-6 and shift_worst < 1e-6 and dt < 10.0
    _verdict(9, ok, f"|F1+1| {f1_worst:.2e} (tol 1e-10), root residual {resid_worst:.2e} "
                    f"(tol 1e-6), shift from the quadrature root {shift_worst:.2e} (tol 1e-6), "
                    f"{dt:.2f}s")
