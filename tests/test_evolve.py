"""Time integrator checks: linear limit, temporal order, conservation on the
exact wave, blow-up handling, adaptive stepping, and the certified-invariance
report.  Order measurements compare at a final time divisible by every dt so
no endpoint mismatch pollutes the ratio.
"""

import dataclasses
import json
import math
import tracemalloc
import warnings
from collections.abc import Sequence

import numpy as np
import pytest

from gdnls import (
    Certificate,
    Field,
    Grid,
    Params,
    SchemeConfig,
    SearchConfig,
    SolitonSpec,
    action_S,
    certify_global,
    integrate,
    invariance_check,
    load_field,
    mass,
    profile_phi,
    save_field,
    spectral_derivative,
    traveling_wave,
    write_trajectory_csv,
)
from gdnls import evolve
from helpers import count_ffts


def test_scheme_config_validation():
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SchemeConfig(dt=bad, T=1.0)
        with pytest.raises(ValueError):
            SchemeConfig(dt=1e-3, T=bad)
    # a switch is a bool: "no" is truthy and took the adaptive path
    for bad in ("no", 1, None):
        with pytest.raises(ValueError, match="adaptive"):
            SchemeConfig(dt=1e-3, T=1.0, adaptive=bad)
    assert [f.name for f in dataclasses.fields(SchemeConfig)] == ["dt", "T", "adaptive"]


def test_integrate_and_grid_take_int_counts(tmp_path):
    # 2.5 recorded every 5 steps, Grid(60, 64.0) raised a TypeError from n & (n - 1),
    # and a field file's N of 64.9 or "64" was read as 64
    g = Grid(60.0, 64)
    u0 = Field(g, np.exp(-(g.x**2)))
    for bad in (0, -1, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="sample_every"):
            integrate(u0, SchemeConfig(1e-3, 1e-2), Params(1.0, 1.0, 0.0), sample_every=bad)
    for bad in (64.0, 64.5, True):
        with pytest.raises(ValueError, match="N must be"):
            Grid(60.0, bad)
    assert Grid(60.0, np.int64(64)).N == 64
    path = tmp_path / "u.json"
    save_field(u0, str(path))
    doc = json.loads(path.read_text())
    for bad in (64.9, "64"):
        path.write_text(json.dumps({**doc, "N": bad}))
        with pytest.raises(ValueError, match="N must be"):
            load_field(str(path))


def test_linear_regime_matches_free_propagator():
    # amplitude 1e-6 makes the nonlinear term O(1e-18): one hundred steps of
    # the full scheme must land on the exact free evolution
    g = Grid(60.0, 512)
    u0 = Field(g, 1e-6 * np.exp(-(g.x**2) / 2).astype(complex))
    p = Params(1.0, 1.0, 0.0)
    traj = integrate(u0, SchemeConfig(dt=1e-2, T=0.1), p, sample_every=100)
    exact = np.fft.ifft(np.exp(-1j * g.k**2 * 0.1) * np.fft.fft(u0.values))
    rel = np.max(np.abs(traj.final.values - exact)) / np.max(np.abs(exact))
    assert rel < 1e-12


def test_fourth_order_in_time():
    g = Grid(60.0, 1024)
    spec = SolitonSpec(1.0, 1.0, 0.0)
    phi = profile_phi(spec, g)
    p = Params(1.0, 1.0, 0.0)
    exact = traveling_wave(spec, g, 0.48)
    errs = []
    for dt in (6e-3, 3e-3):
        traj = integrate(phi, SchemeConfig(dt=dt, T=0.48), p, sample_every=1000)
        assert traj.times[-1] == pytest.approx(0.48, abs=1e-12)
        errs.append(float(np.max(np.abs(traj.final.values - exact.values))))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 22.0, (errs, ratio)


def test_standing_wave_conservation_short_run():
    g = Grid(60.0, 1024)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    p = Params(1.0, 1.0, 0.0)
    traj = integrate(phi, SchemeConfig(dt=1e-3, T=0.5), p, sample_every=100)
    r0 = traj.records[0]
    for r in traj.records:
        assert abs(r.mass - r0.mass) < 1e-8
        assert abs(r.energy - r0.energy) < 1e-8
        assert abs(r.momentum - r0.momentum) < 1e-8
    exact = traveling_wave(SolitonSpec(1.0, 1.0, 0.0), g, traj.times[-1])
    assert np.max(np.abs(traj.final.values - exact.values)) < 1e-7


def test_moving_soliton_tracks_exact_solution():
    g = Grid(60.0, 1024)
    spec = SolitonSpec(1.0, 1.0, 1.0)
    phi = profile_phi(spec, g)
    traj = integrate(phi, SchemeConfig(dt=1e-3, T=1.0), Params(1.0, 1.0, 1.0), sample_every=500)
    exact = traveling_wave(spec, g, 1.0)
    assert np.max(np.abs(traj.final.values - exact.values)) < 1e-5


def test_dealias_clips_generated_high_modes():
    # two modes just below the cutoff: their nonlinear product lands at 22,
    # above N/3 = 21.3, so the mask must keep that coefficient at exactly the
    # linear-evolution value (zero, since it starts empty)
    g = Grid(2 * math.pi, 64)
    u = Field(g, np.exp(20j * g.x) + np.exp(21j * g.x))
    p = Params(1.0, 1.0, 0.0)
    # the unmasked nonlinear product does reach mode 22, so the assert below bites
    ux = spectral_derivative(g, np.fft.fft(u.values))
    raw = np.fft.fft(np.abs(u.values) ** 2 * ux) / g.N
    assert abs(raw[22]) > 1.0
    traj = integrate(u, SchemeConfig(dt=1e-3, T=1e-3), p, sample_every=1)
    assert abs(np.fft.fft(traj.final.values)[22] / g.N) < 1e-14


def _csv_blowup_column(traj, tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    return [row.split(",")[7] for row in path.read_text().strip().split("\n")[1:]]


def test_overflow_flags_blowup_and_keeps_finite_state(tmp_path):
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    hot = phi.with_values(50.0 * phi.values)
    # the overflowing stages and the reload run under integrate's errstate: no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate(hot, SchemeConfig(dt=0.05, T=1.0), Params(1.0, 1.0, 0.0))
    assert traj.blowup
    assert _csv_blowup_column(traj, tmp_path) == ["0"] * (len(traj.records) - 1) + ["1"]
    assert np.all(np.isfinite(traj.final.values.view(float)))
    assert traj.times[-1] < 1.0
    # the flagged record describes the kept state
    assert traj.records[-1].t == traj.times[-1]
    assert traj.records[-1].mass == pytest.approx(mass(traj.final), rel=1e-12)


def test_overflow_on_a_sampled_step_flags_that_record(tmp_path):
    # with a record every step the overflowing step finds its state already
    # sampled: that record is the last, nothing is appended, and no warning escapes
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    hot = phi.with_values(50.0 * phi.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate(hot, SchemeConfig(dt=0.05, T=1.0), Params(1.0, 1.0, 0.0), sample_every=1)
    assert len(traj.times) == len(traj.fields) == len(traj.records)
    assert traj.blowup
    assert _csv_blowup_column(traj, tmp_path) == ["0"] * (len(traj.records) - 1) + ["1"]
    assert np.all(np.isfinite(traj.final.values.view(float)))
    assert traj.times[-1] < 1.0


def test_adaptive_run_reaches_final_time():
    g = Grid(60.0, 1024)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    p = Params(1.0, 1.0, 0.0)
    traj = integrate(phi, SchemeConfig(dt=1e-3, T=0.5, adaptive=True), p, sample_every=100)
    assert traj.times[-1] == pytest.approx(0.5, abs=1e-9)
    exact = traveling_wave(SolitonSpec(1.0, 1.0, 0.0), g, 0.5)
    assert np.max(np.abs(traj.final.values - exact.values)) < 1e-7


def test_adaptive_budget_truncates_supercritical_collapse():
    """Strongly supercritical data drives the CFL cap toward zero; the run
    must stop at its step budget with a clean partial trajectory instead of
    hanging or overflowing."""
    g = Grid(60.0, 512)
    phi = profile_phi(SolitonSpec(3.0, 1.0, 0.0), g)
    hot = phi.with_values(3.0 * phi.values)
    p = Params(3.0, 1.0, 0.0)
    traj = integrate(hot, SchemeConfig(dt=1e-3, T=0.2, adaptive=True), p, sample_every=500)
    assert traj.times[-1] < 0.2
    assert not traj.blowup
    assert all(np.all(np.isfinite(f.values.view(float))) for f in traj.fields)
    assert traj.records[-1].h1_seminorm > 10 * traj.records[0].h1_seminorm


def test_growth_cap_truncates_with_one_flagged_last_record(monkeypatch, tmp_path):
    # the collapse datum above more than doubles its sup norm well before T
    monkeypatch.setattr(evolve, "_AMPLITUDE_CAP", 2.0)
    g = Grid(60.0, 512)
    phi = profile_phi(SolitonSpec(3.0, 1.0, 0.0), g)
    hot = phi.with_values(3.0 * phi.values)
    traj = integrate(hot, SchemeConfig(dt=1e-3, T=0.2, adaptive=True), Params(3.0, 1.0, 0.0),
                     sample_every=10)
    assert traj.blowup
    flags = _csv_blowup_column(traj, tmp_path)
    assert [i for i, flag in enumerate(flags) if flag == "1"] == [len(traj.records) - 1]
    assert traj.records[-1].t == traj.times[-1] < 0.2
    assert len(traj.fields) == len(traj.records)


def test_adaptive_cap_of_an_amplitude_whose_power_overflows():
    # amp^(2s) = 1e400 is past the float range; the run returns, flagged as blown up at t = 0
    g = Grid(60.0, 256)
    u = Field(g, 1e100 * np.exp(-(g.x**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the first record's powers overflow silently
        traj = integrate(u, SchemeConfig(dt=1e-3, T=0.01, adaptive=True), Params(2.0, 1.0, 0.0))
    assert isinstance(traj, evolve.Trajectory)
    assert traj.blowup and traj.times == [0.0]


@pytest.mark.parametrize("dt", [1e-3, 3e-3])
def test_fixed_step_times_are_multiples_of_dt_clipped_at_T(dt):
    # 3e-3 does not divide T: its last step is shortened and lands on T exactly
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    traj = integrate(phi, SchemeConfig(dt=dt, T=2.0), Params(1.0, 1.0, 0.0), sample_every=1)
    assert traj.times == [min(n * dt, 2.0) for n in range(len(traj.times))]
    assert traj.times[-1] == 2.0


def test_zero_data_stays_zero():
    g = Grid(60.0, 256)
    traj = integrate(Field(g, np.zeros(256)), SchemeConfig(dt=1e-2, T=0.1), Params(1.0, 1.0, 0.0))
    assert not traj.blowup
    assert float(np.max(np.abs(traj.final.values))) == 0.0


def test_trajectory_csv_format(tmp_path):
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    traj = integrate(phi, SchemeConfig(dt=1e-2, T=0.1), Params(1.0, 1.0, 0.0), sample_every=5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,M,E,P,H1seminorm,shiftedH1,K,blowup"
    assert len(lines) == 1 + len(traj.records)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(mass(phi), rel=1e-15)
    assert first[7] == "0"


def test_invariance_report_on_certified_run():
    g = Grid(60.0, 1024)
    vals = np.exp(-(g.x**2)).astype(complex)
    u = Field(g, vals)
    u = u.with_values(u.values * math.sqrt(3.9 * math.pi / mass(u)))
    cert = certify_global(u, SearchConfig(sigma=1.0))
    assert isinstance(cert, Certificate)
    traj = integrate(u, SchemeConfig(dt=1e-3, T=0.5), Params(1.0, 1.0, 0.0),
                     sample_every=50, cert=cert)
    rep = invariance_check(traj, cert)
    assert rep.ok
    assert rep.min_virial >= -rep.drift_scale
    assert rep.h1_max <= rep.h1_bound
    assert rep.action_drift < 1e-3
    # without the certificate the records are in the frame of p, which the check refuses
    p = Params(1.0, 1.0, 0.0)
    assert cert.params != p
    plain = integrate(u, SchemeConfig(dt=1e-3, T=0.01), p, sample_every=5)
    with pytest.raises(ValueError, match="frame"):
        invariance_check(plain, cert)
    assert plain.frame == p


def test_run_ends_at_T_when_dt_does_not_divide_it():
    g = Grid(60.0, 1024)
    spec = SolitonSpec(1.0, 1.0, 0.0)
    phi = profile_phi(spec, g)
    for T in (0.0004, 0.0106):
        traj = integrate(phi, SchemeConfig(dt=1e-3, T=T), Params(1.0, 1.0, 0.0), sample_every=1)
        assert abs(traj.times[-1] - T) <= 1e-12 * T
        assert np.all(np.diff(traj.times) > 0)
        # the shortened last step is a true step of that length: the state is the wave at T
        exact = traveling_wave(spec, g, T)
        assert float(np.max(np.abs(traj.final.values - exact.values))) < 1e-8


def test_whole_number_of_steps_keeps_the_step_grid():
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    traj = integrate(phi, SchemeConfig(dt=1e-3, T=0.01), Params(1.0, 1.0, 0.0), sample_every=1)
    assert traj.times == [n * 1e-3 for n in range(11)]


def test_integrate_rejects_non_finite_data():
    g = Grid(60.0, 64)
    bad = np.exp(-(g.x**2)).astype(complex)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        integrate(Field(g, bad), SchemeConfig(dt=1e-3, T=0.01), Params(1.0, 1.0, 0.0))


def test_integrate_rejects_certificate_for_another_power():
    g = Grid(20 * math.pi, 256)
    u = Field(g, 0.5 * np.exp(-(g.x**2)).astype(complex))
    cert = Certificate(Params(2.0, 9.0, 6.0, 1.0, -0.5), 1.0, 2.0, 1.0, "modulation")
    with pytest.raises(ValueError, match="sigma"):
        integrate(u, SchemeConfig(dt=1e-3, T=0.01), Params(1.0, 1.0, 0.0), cert=cert)


def test_diagnostics_record_integrates_the_field_once(monkeypatch):
    # the record reads the stepper's samples of u and u_x and makes no transform
    g = Grid(60.0, 1024)
    u = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    diag_p = Params(1.0, 4.0, 2.0, 1.0, -0.5)
    vh = np.fft.fft(u.values)
    ux = np.fft.ifft(g.ik_first * vh)
    calls = count_ffts(monkeypatch)
    rec = evolve._diagnostics(u.values, ux, g.dx, 0.0, diag_p)
    assert calls[0] == 0
    # the shifted seminorm from the moments against its spectrum, ||(k - c/2) u^||
    shifted = math.sqrt(g.dx / g.N * float(np.sum(np.abs((g.ik_first - 1j) * vh) ** 2)))
    assert rec.shifted_h1 == pytest.approx(shifted, rel=1e-12)
    assert rec.action == pytest.approx(action_S(u, diag_p), rel=1e-12)


@pytest.mark.parametrize("adaptive", [False, True])
def test_step_costs_twelve_transforms_and_records_none(monkeypatch, adaptive):
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
    calls = count_ffts(monkeypatch)
    traj = integrate(phi, SchemeConfig(dt=1e-3, T=0.02, adaptive=adaptive),
                     Params(1.0, 1.0, 0.0), sample_every=1)
    n = len(traj.times) - 1  # one record per step
    assert n >= 20
    # the initial forward transform and the paired load of its samples: one call, three rows
    assert calls == [8 * n + 2, 12 * n + 3]


def test_advance_makes_twelve_transforms_in_eight_calls_and_a_record_none(monkeypatch):
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.5), g)
    p = Params(1.0, 1.0, 0.5)
    stepper = evolve._Stepper(g, 1.0, 1e-3)
    stepper.load(np.fft.fft(phi.values))
    calls = count_ffts(monkeypatch)
    stepper.set_dt(2e-3)
    assert stepper.advance()
    assert calls == [8, 12]
    evolve._diagnostics(stepper.u, stepper.ux, g.dx, 2e-3, p)
    assert calls == [8, 12]


def test_samples_are_views_that_never_leak_into_the_trajectory(monkeypatch):
    made = []

    class Recorded(evolve._Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(evolve, "_Stepper", Recorded)
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.5), g)
    traj, again = (integrate(phi, SchemeConfig(dt=1e-3, T=0.01), Params(1.0, 1.0, 0.5),
                             sample_every=1) for _ in range(2))
    assert len(made) == 2 and len(traj.fields) == 11
    fields = list(traj.fields)  # one replay, whose stepper joins the two runs' in made
    held = [a for st in made for a in vars(st).values() if isinstance(a, np.ndarray)]
    assert len(made) == 3
    for i, f in enumerate(fields):
        assert not any(np.shares_memory(f.values, h.values) for h in fields[i + 1:])
        assert not any(np.shares_memory(f.values, a) for a in held)
    assert traj.records == again.records
    assert all(np.array_equal(f.values, h.values) for f, h in zip(traj.fields, again.fields))


def test_load_holds_a_copy_and_its_exact_samples():
    g = Grid(60.0, 256)
    rng = np.random.default_rng(3)
    uh = np.fft.fft(rng.standard_normal(256) + 1j * rng.standard_normal(256))
    stepper = evolve._Stepper(g, 1.5, 1e-3)
    stepper.load(uh)
    expect_u, expect_ux = np.fft.ifft(uh), spectral_derivative(g, uh)
    uh[:] = 0.0  # the stepper holds its own copy
    assert stepper.uh is not uh and np.any(stepper.uh)
    assert np.array_equal(stepper.u, expect_u)
    assert np.array_equal(stepper.ux, expect_ux)
    assert np.array_equal(stepper.a2, expect_u.real**2 + expect_u.imag**2)


def test_invariance_drift_from_records_matches_the_fields():
    # acceptance 8's setup: the drift read from the records is the drift of the fields,
    # replayed in one pass (fields[0] is the initial field and costs no march)
    g = Grid(60.0, 1024)
    u = Field(g, np.exp(-(g.x**2)).astype(complex))
    u = u.with_values(u.values * math.sqrt(3.9 * math.pi / mass(u)))
    cert = certify_global(u, SearchConfig(sigma=1.0))
    assert isinstance(cert, Certificate)
    traj = integrate(u, SchemeConfig(dt=1e-3, T=5.0), Params(1.0, 1.0, 0.0),
                     sample_every=10, cert=cert)
    rep = invariance_check(traj, cert)
    s0 = action_S(traj.fields[0], cert.params)
    drift = max(abs(action_S(f, cert.params) - s0) for f in traj.fields)
    assert abs(rep.action_drift - drift) <= 1e-12 * (abs(s0) + 1.0)
    assert traj.records[0].action == s0


def test_a_long_run_holds_its_end_fields_and_records_only():
    # 2,001 records at N = 1024: a field kept per record held 32 MB
    g = Grid(60.0, 1024)
    u0 = Field(g, np.exp(-(g.x**2)).astype(complex))
    tracemalloc.start()
    try:
        traj = integrate(u0, SchemeConfig(dt=1e-3, T=2.0), Params(1.0, 1.0, 0.0), sample_every=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.records) == len(traj.fields) == 2001
    assert held < 4e6 and peak < 4e6, (held, peak)


def test_fields_view_indexes_and_slices_like_a_list():
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.5), g)
    traj = integrate(phi, SchemeConfig(dt=1e-3, T=0.01), Params(1.0, 1.0, 0.5), sample_every=1)
    fields = traj.fields
    assert isinstance(fields, Sequence) and len(fields) == 11
    assert fields[0] is fields[-11] is traj.initial is phi
    assert fields[-1] is fields[10] is traj.final
    listed = list(fields)
    assert len(listed) == 11 and listed[0] is phi and listed[-1] is traj.final
    for i in (1, 5, -2, -10):
        assert np.array_equal(fields[i].values, listed[i].values)
    for key in (slice(2, 8, 3), slice(None, None, -4), slice(5, 2), slice(-3, None), slice(None)):
        got, want = fields[key], listed[key]
        assert len(got) == len(want)
        assert all(np.array_equal(f.values, h.values) for f, h in zip(got, want))
    assert fields[-1:][0] is traj.final
    for bad in (11, -12):
        with pytest.raises(IndexError):
            fields[bad]
    with pytest.raises(TypeError):
        fields[1.0]
    with pytest.raises(TypeError):
        fields[1] = phi
    # the replay's errstate is held per sample and never reaches the reader
    before = np.geterr()
    replay = iter(fields)
    next(replay), next(replay)
    assert np.geterr() == before


def _logged_integrate(monkeypatch, *args, **kwargs):
    """integrate, with the (dt, ok) of every step of its own march."""
    log = []

    class Logged(evolve._Stepper):
        def advance(self):
            ok = super().advance()
            log.append((self.dt, ok))
            return ok

    monkeypatch.setattr(evolve, "_Stepper", Logged)
    traj = integrate(*args, **kwargs)
    return traj, log[:]  # later replays log more steps


def _stepped_fields(u0, sigma, steps, sample_every):
    """Reference: a fresh _Stepper driven through the logged steps, with u copied after every
    sample_every-th good step and after the last good one; a failed step is always the last."""
    stepper = evolve._Stepper(u0.grid, sigma, steps[0][0])
    stepper.load(np.fft.fft(u0.values))
    good = sum(ok for _, ok in steps)
    samples = [u0.values]
    for n, (dt, _) in enumerate(steps[:good], 1):
        stepper.set_dt(dt)
        assert stepper.advance()
        if n % sample_every == 0 or n == good:
            samples.append(stepper.u.copy())
    return samples


def test_fixed_step_fields_replay_the_run_that_ends_at_their_record():
    # 3e-3 does not divide T: 16 steps and a shortened 17th, recorded at steps 0, 5, 10, 15 and 17
    g = Grid(60.0, 256)
    phi = profile_phi(SolitonSpec(1.0, 1.0, 0.5), g)
    p = Params(1.0, 1.0, 0.5)
    traj = integrate(phi, SchemeConfig(dt=3e-3, T=0.05), p, sample_every=5)
    assert [round(t / 3e-3, 6) for t in traj.times[:-1]] == [0, 5, 10, 15] and traj.times[-1] == 0.05
    for f, r in zip(list(traj.fields)[1:-1], traj.records[1:-1]):
        shorter = integrate(phi, SchemeConfig(dt=3e-3, T=r.t), p)
        assert shorter.times[-1] == r.t
        assert np.array_equal(f.values, shorter.final.values)
    # the shortened last step, and every other sample, from a stepper driven through the 17 steps
    want = _stepped_fields(phi, p.sigma, [(3e-3, True)] * 16 + [(0.05 - 16 * 3e-3, True)], 5)
    assert len(want) == len(traj.fields) == 5
    assert all(np.array_equal(f.values, w) for f, w in zip(traj.fields, want))


@pytest.mark.parametrize("case", ["adaptive", "blowup-on-a-sampled-step", "growth-cap"])
def test_replayed_fields_match_a_stepper_driven_through_the_run(case, monkeypatch):
    if case == "blowup-on-a-sampled-step":
        # a 1.5x soliton at dt = 0.05 leaves the finite range on its 7th step, recorded every step
        g = Grid(60.0, 256)
        phi = profile_phi(SolitonSpec(1.0, 1.0, 0.0), g)
        u0, cfg, p, every = phi.with_values(1.5 * phi.values), SchemeConfig(0.05, 3.0), Params(1.0, 1.0, 0.0), 1
    else:
        # the sigma = 3 collapse datum: the CFL cap shrinks dt until the 400-step budget binds
        g = Grid(60.0, 512)
        phi = profile_phi(SolitonSpec(3.0, 1.0, 0.0), g)
        u0, p = phi.with_values(3.0 * phi.values), Params(3.0, 1.0, 0.0)
        cfg, every = SchemeConfig(1e-3, 0.02, adaptive=True), 7
        if case == "growth-cap":
            monkeypatch.setattr(evolve, "_AMPLITUDE_CAP", 2.0)
            cfg, every = SchemeConfig(1e-3, 0.2, adaptive=True), 10
    traj, steps = _logged_integrate(monkeypatch, u0, cfg, p, sample_every=every)
    assert traj.blowup == (case != "adaptive")
    assert steps[-1][1] == (case != "blowup-on-a-sampled-step")
    if cfg.adaptive:
        assert len({dt for dt, _ in steps}) > 1
    want = _stepped_fields(u0, p.sigma, steps, every)
    fields = list(traj.fields)
    assert len(fields) == len(want) == len(traj.records) > 2
    assert all(np.array_equal(f.values, w) for f, w in zip(fields, want))
