"""Membership classification, the certificate search over admissible speeds,
and the gradient bound along a borderline-mass certified flow.  The pinned
speeds below were frozen from deterministic runs of the same constructions;
they only move if the scan lattice or the data recipes change.
"""

import math
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest

from gdnls import criterion
from gdnls import (
    Certificate,
    Field,
    Grid,
    NotFound,
    Params,
    SchemeConfig,
    SearchConfig,
    SolitonSpec,
    ZeroField,
    action_S,
    certify_global,
    corollary15_data,
    integrate,
    invariance_check,
    is_grid_compatible,
    membership,
    momentum,
    profile_phi,
    tilde_functionals,
)
from helpers import best_endpoint_margin, count_ffts, gaussian_with_mass


def test_membership_of_scaled_waves():
    g = Grid(60.0, 2048)
    p = Params(1.0, 1.0, 0.0)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)

    at = membership(phi, p)
    # the wave sits exactly on the corner S = mu, K = 0; which kind the
    # exact comparisons pick is a roundoff accident, but the numbers are not
    assert abs(at.action - at.level) < 1e-8
    assert abs(at.virial) < 1e-8

    small = membership(phi.with_values(0.8 * phi.values), p)
    assert small.kind == "KPlus"
    assert small.virial > 0 and small.action < small.level

    big = membership(phi.with_values(1.2 * phi.values), p)
    assert big.kind == "KMinus"
    assert big.virial < 0 and big.action < big.level

    fat = Field(g, 2.0 * np.exp(-((g.x / 6.0) ** 2)).astype(complex))
    out = membership(fat, p)
    assert out.kind == "Neither"
    assert out.action > out.level


def test_search_config_validation():
    for sigma in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            SearchConfig(sigma=sigma)
    with pytest.raises(ValueError):
        SearchConfig(strategy_hint="whatever")
    # the speed grid and the candidate order are fixed; only these two are settings
    assert tuple(f.name for f in fields(SearchConfig)) == ("sigma", "strategy_hint")
    assert type(SearchConfig(sigma=1).sigma) is float


def test_certificate_sigma_is_a_float_in_either_call_order():
    # the candidate table is cached on sigma, where 1 and 1.0 are one key
    u = gaussian_with_mass(Grid(60.0, 1024), 3.9)
    for order in ((1, 1.0), (1.0, 1)):
        criterion._table.cache_clear()
        for sigma in order:
            res = certify_global(u, SearchConfig(sigma=sigma))
            assert isinstance(res, Certificate) and type(res.params.sigma) is float, order


def test_certify_rejects_degenerate_data():
    g = Grid(60.0, 64)
    with pytest.raises(ZeroField):
        certify_global(Field(g, np.zeros(64)), SearchConfig())
    bad = np.zeros(64, complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        certify_global(Field(g, bad), SearchConfig())


def test_certify_propagates_unexpected_validation_errors(monkeypatch):
    # only inadmissible candidates are skipped; a bug in validation must surface
    def broken(p):
        raise RuntimeError("validation bug")

    # a cached table would skip validation, so the broken validator runs on a fresh build
    criterion._table.cache_clear()
    u = gaussian_with_mass(Grid(60.0, 1024), 3.0)
    with monkeypatch.context() as patched:
        patched.setattr(criterion, "validate_params", broken)
        with pytest.raises(RuntimeError, match="validation bug"):
            certify_global(u, SearchConfig(sigma=1.0))
    # the failed build was not cached
    assert isinstance(certify_global(u, SearchConfig(sigma=1.0)), Certificate)


def test_certify_small_mass_scans_through():
    """Mass 3.9 pi sits under the borderline, so some endpoint speed accepts."""
    g = Grid(60.0, 1024)
    u = gaussian_with_mass(g, 3.9)
    res = certify_global(u, SearchConfig(sigma=1.0))
    assert isinstance(res, Certificate)
    assert res.strategy == "massless-scan"
    assert res.action <= res.level and res.virial >= 0
    # accepted speed lies on the box lattice 4 pi m / L
    m = res.params.c * g.L / (4 * math.pi)
    assert abs(m - round(m)) < 1e-9
    assert res.params.c == pytest.approx(14.451326206513048, rel=1e-9)
    assert membership(u, res.params).kind == "KPlus"


def test_certify_borderline_mass_with_negative_momentum():
    g = Grid(60.0, 1024)
    q = 2 * math.pi * 5 / 60.0
    u = gaussian_with_mass(g, 4.0, boost=q)
    assert momentum(u) < 0
    res = certify_global(u, SearchConfig(sigma=1.0))
    assert isinstance(res, Certificate)
    assert res.strategy == "negative-momentum"
    assert res.params.c == pytest.approx(7.120943348136864, rel=1e-9)
    assert membership(u, res.params).kind == "KPlus"


def test_certify_modulated_profile_route():
    """Plane-wave dressed data e^{icx/2}psi at large speed: the certificate
    appears once the level (growing like c^(1+1/sigma)) overtakes the action
    (growing like c^2 times a small mass)."""
    g = Grid(20 * math.pi, 1024)
    psi = Field(g, (1.2 * np.exp(-(g.x**2) / 4)).astype(complex))
    cstar = 12.8
    assert is_grid_compatible(g, cstar)
    u = corollary15_data(psi, cstar)
    # same-speed consistency: the lab action of the dressed data equals the
    # shifted action of the bare envelope
    p_star = Params(2.0, cstar**2 / 4, cstar, 1.0, -0.5)
    assert action_S(u, p_star) == pytest.approx(
        tilde_functionals(psi, p_star).action, rel=1e-12
    )
    res = certify_global(u, SearchConfig(sigma=2.0, strategy_hint="modulation"))
    assert isinstance(res, Certificate)
    assert res.strategy == "modulation"
    assert res.params.c == pytest.approx(8.4, rel=1e-9)
    m = membership(u, res.params)
    assert m.kind == "KPlus"
    # the sigma = 2 endpoint level is ||Phi'||^2 = (2 / sqrt(6)) c^(3/2)
    assert m.level == pytest.approx(2 / math.sqrt(6) * 8.4**1.5, rel=1e-12)
    assert m.action == pytest.approx(13.7957, abs=1e-4)


def test_certify_not_found_keeps_best_margin():
    g = Grid(60.0, 1024)
    cw = 4 * math.pi * 10 / 60.0
    with pytest.warns(UserWarning):
        phi = profile_phi(SolitonSpec(1.0, cw * cw / 4, cw), g)
    u = phi.with_values(1.05 * phi.values)  # 10 percent over critical mass
    res = certify_global(u, SearchConfig(sigma=1.0))
    assert isinstance(res, NotFound)
    assert res.tried == 280
    assert res.params is not None
    # the interior route can only lower the best miss of the endpoint route
    assert 0 < res.margin <= best_endpoint_margin(u)


def test_certify_overflowing_data_is_a_silent_miss():
    # moments that overflow score no candidate; the miss says so without a RuntimeWarning
    g = Grid(60.0, 1024)
    u = Field(g, 1e80 * np.exp(-(g.x**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = certify_global(u, SearchConfig(sigma=1.0))
        member = membership(u, Params(1.0, 1.0, 0.0))
    assert isinstance(res, NotFound) and res.tried == 280
    assert member.kind == "Neither" and math.isnan(member.virial)  # not "KMinus"
    assert res.margin == math.inf and res.params is None


def _modulated_sigma2():
    g = Grid(20 * math.pi, 1024)
    return corollary15_data(Field(g, (1.2 * np.exp(-(g.x**2) / 4)).astype(complex)), 12.8)


def _interior_sigma2():
    g = Grid(60.0, 1024)
    return Field(g, 1.5 * np.exp(-(g.x**2)))


def test_hint_tags_endpoint_hits_only():
    # this datum certifies on the interior route, whose tag the hint leaves alone
    res = certify_global(_interior_sigma2(), SearchConfig(sigma=2.0, strategy_hint="modulation"))
    assert res.strategy == "grid-search"


PINNED = [
    (lambda: gaussian_with_mass(Grid(60.0, 1024), 3.9), SearchConfig(sigma=1.0),
     (Params(1.0, 52.210207281762706, 14.451326206513048, 1.0, -0.5), "massless-scan")),
    (lambda: gaussian_with_mass(Grid(60.0, 1024), 4.0, boost=2 * math.pi * 5 / 60.0),
     SearchConfig(sigma=1.0),
     (Params(1.0, 12.676958541843662, 7.120943348136864, 1.0, -0.5), "negative-momentum")),
    (_modulated_sigma2, SearchConfig(sigma=2.0, strategy_hint="modulation"),
     (Params(2.0, 17.64, 8.4, 1.0, -0.5), "modulation")),
    (lambda: gaussian_with_mass(Grid(60.0, 1024), 4.5), SearchConfig(sigma=1.0),
     (Params(1.0, 0.2741556778080377, 1.0471975511965976, 1.0, -0.5), 280)),
    (_interior_sigma2, SearchConfig(sigma=2.0),
     (Params(2.0, 2.2741556778080376, 1.0471975511965976, 1.0, 0.0), "grid-search")),
]


@pytest.mark.parametrize("build, search, expected", PINNED)
def test_certify_outcomes_pinned(build, search, expected):
    # frozen from the search that evaluated every candidate on the arrays
    params, tag = expected
    res = certify_global(build(), search)
    assert astuple(res.params) == pytest.approx(astuple(params), rel=1e-12)
    if isinstance(tag, int):
        assert isinstance(res, NotFound) and res.tried == tag
    else:
        assert isinstance(res, Certificate) and res.strategy == tag


@pytest.mark.parametrize("build, search", [case[:2] for case in PINNED])
def test_route_pass_is_the_scalar_rule(build, search):
    """Walking the table in scan order with the scalar membership gives the same outcome."""
    u = build()
    res = certify_global(u, search)
    table = criterion._table(search.sigma, u.grid.L)
    scan = list(table.params)
    first, best = None, None
    for i, p in enumerate(scan):
        m = membership(u, p)
        if m.kind == "KPlus":
            first = i
            break
        margin = max(m.action - m.level, -m.virial)
        if best is None or margin < best[0]:
            best = (margin, p, m)
    if isinstance(res, Certificate):
        assert first is not None and scan.index(res.params) == first
        # an endpoint hit carries the hint or the endpoint tag, an interior hit "grid-search"
        assert (first < table.endpoints) == (res.strategy != "grid-search")
    else:
        assert first is None and res.tried == len(scan)
        margin, p, m = best
        assert res.params == p
        assert (res.margin, res.action, res.level, res.virial) == (margin, m.action, m.level, m.virial)


def test_table_counts_endpoint_candidates_as_validated():
    # on a 1e-9 box the one speed is 4 pi 1e9; every interior offset rounds away, so the
    # (1, -1/2) interior candidates repeat the endpoint one and (1, 0) is inadmissible
    table = criterion._table(1.0, 1e-9)
    assert table.endpoints == 1 and len(set(table.params)) == 1 and len(table.params) == 4


def test_warm_route_tables_cost_no_level_work(monkeypatch):
    real, levels = criterion.mu_reference, [0]

    def counted(p):
        levels[0] += 1
        return real(p)

    monkeypatch.setattr(criterion, "mu_reference", counted)
    criterion._table.cache_clear()
    ffts = count_ffts(monkeypatch)
    # the two box lengths of the benchmark's scan give different speed grids, so separate tables
    for L in (60.0, 20 * math.pi):
        u = gaussian_with_mass(Grid(L, 1024), 4.5)
        levels[0] = 0
        cold = certify_global(u, SearchConfig(sigma=1.0))
        assert isinstance(cold, NotFound) and levels[0] == cold.tried > 0
        levels[0] = ffts[0] = 0
        assert certify_global(u, SearchConfig(sigma=1.0)) == cold
        assert levels[0] == 0 and ffts[0] <= 2


def test_certify_miss_integrates_the_data_once(monkeypatch):
    u = gaussian_with_mass(Grid(60.0, 1024), 4.5)
    calls = count_ffts(monkeypatch)
    res = certify_global(u, SearchConfig(sigma=1.0))
    assert isinstance(res, NotFound) and res.tried == 280
    assert calls[0] <= 4


def test_negative_momentum_certificate_bounds_the_flow_gradient():
    # the paper's borderline case: mass 4 pi with P < 0 certifies, and the
    # certificate's own a priori bound on ||u_x|| holds along the flow
    g = Grid(60.0, 1024)
    q = 2 * math.pi * 5 / 60.0
    u = gaussian_with_mass(g, 4.0, boost=q)
    cert = certify_global(u, SearchConfig(sigma=1.0))
    assert isinstance(cert, Certificate) and cert.strategy == "negative-momentum"
    traj = integrate(u, SchemeConfig(dt=1e-3, T=1.0), Params(1.0, 1.0, 0.0), cert=cert)
    assert not traj.blowup and traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    rep = invariance_check(traj, cert)
    assert rep.h1_ok
    assert max(r.h1_seminorm**2 for r in traj.records) <= rep.h1_bound**2
