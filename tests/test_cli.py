"""End-to-end CLI runs, in process: exit codes, manifests, and the CSV files
each subcommand promises.  Every run starts in a fresh tmp dir and writes
into the default gdnls-out there.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import gdnls
from gdnls import BoundaryProximity, Field, Grid, NotProjectable, SchemeConfig, mass, save_field
from gdnls import cli, criterion
from gdnls.cli import main
from helpers import best_endpoint_margin, count_ffts


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path / "gdnls-out"


def _refuse(token):
    raise ValueError(f"output holds the non-JSON token {token}")


def _manifest(outdir):
    """The manifest, read as strict JSON: a bare NaN or Infinity token is an error."""
    return json.loads((outdir / "manifest.json").read_text(), parse_constant=_refuse)


def test_soliton_default_run(outdir):
    assert main(["soliton"]) == 0
    man = _manifest(outdir)
    assert man["command"] == "soliton"
    assert man["checks"] and all(c["passed"] for c in man["checks"])
    assert set(man["outputs"]) == {"profile.csv", "invariants.csv"}
    header = (outdir / "invariants.csv").read_text().splitlines()[0]
    assert header == "quantity,numeric,closed,relerr"
    prof = (outdir / "profile.csv").read_text().splitlines()
    assert prof[0] == "x,re,im,abs"
    assert len(prof) == 1 + 4096
    assert all(len([float(cell) for cell in row.split(",")]) == 4 for row in prof[1:])


def test_soliton_takes_one_transform_pair_for_its_invariants(outdir, monkeypatch):
    # one forward FFT and its inverse for M, P, E and S, one pair for the elliptic residual
    calls = count_ffts(monkeypatch)
    assert main(["soliton"]) == 0
    assert calls == [4, 4]


def test_soliton_checks_the_action_against_the_level_off_sigma_one(outdir):
    assert main(["soliton", "--params.sigma", "2.0"]) == 0
    man = _manifest(outdir)
    assert [c["name"] for c in man["checks"]] == ["invariant_S", "elliptic_residual"]
    assert all(c["passed"] for c in man["checks"])
    rows = (outdir / "invariants.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] != "" for r in rows] == [False, False, False, True]


def test_soliton_massless_skips_decay_checks(outdir):
    with pytest.warns(BoundaryProximity):  # the profile reaches the box edge
        code = main(["soliton", "--params.omega", "0.25", "--params.c", "1.0",
                     "--grid.N", "1024"])
    assert code == 0
    man = _manifest(outdir)
    assert man["metrics"]["slow_decay"] is True
    assert man["checks"] == []


@pytest.mark.parametrize("argv", [
    ["soliton", "--grid.N", "256"],
    ["verify", "--grid.N", "64", "--verify.fields", "2"],
    ["certify", "--grid.N", "256"],
    ["minimize-mu", "--grid.N", "256"],
    ["simulate", "--grid.N", "256", "--scheme.T", "0.01"],
    ["zroot", "--zroot.sigmas", "[1.5]"],
])
def test_manifest_lists_every_output_and_no_tmp_file_is_left(outdir, argv):
    assert main(argv) in (0, 1)
    assert sorted(_manifest(outdir)["outputs"]) == sorted(p.name for p in outdir.iterdir()
                                                          if p.name != "manifest.json")
    assert not list(outdir.glob("*.tmp-*"))


def test_config_errors_exit_2(outdir, tmp_path):
    assert main(["soliton", "--params.omega", "-1"]) == 2
    assert main(["soliton", "--no.such.key", "1"]) == 2
    assert main(["soliton", "--params.omega"]) == 2  # missing value
    assert main(["soliton", str(tmp_path / "absent.json")]) == 2
    assert main(["simulate", "--data.family", "file"]) == 2
    assert main(["simulate", "--data.speed", "0.6"]) == 2  # not box-periodic


def test_retired_scheme_and_descent_keys_are_unknown(outdir, capsys):
    # dealiasing, the CFL fraction and the descent step are fixed by the schemes;
    # the certificate scan is fixed, and certify reads sigma and the hint from params and data;
    # the verify corpus, the descent's iteration cap and the root tolerances are library defaults;
    # a boost q is data.speed 2q
    search = (("sigma", "1"), ("c_min", "1.0"), ("c_max", "2048"), ("points", "80"),
              ("strategies", '["massless-scan"]'), ("strategy_hint", "modulation"))
    for argv in (["simulate", "--scheme.dealias", "false"],
                 ["simulate", "--scheme.cfl_safety", "0.3"],
                 ["minimize-mu", "--minimize.step", "0.5"],
                 ["minimize-mu", "--minimize.max_iters", "100"],
                 ["verify", "--seed", "1"],
                 ["verify", "--verify.modes", "12"],
                 ["zroot", "--zroot.z_tol", "1e-6"],
                 ["zroot", "--zroot.quad_tol", "1e-10"],
                 ["certify", "--data.boost", "0.5"],
                 *(["certify", f"--search.{key}", val] for key, val in search)):
        assert main(argv) == 2, argv
        assert "unknown config key" in capsys.readouterr().err, argv


def test_bad_input_exits_2_where_it_is_read(outdir, tmp_path, capsys):
    # each is reported as a config error where it enters: the config's kinds check or the reader
    no_config = tmp_path / "no.json"
    no_config.write_text(json.dumps({"scheme": {"adaptive": "no"}}))
    text_sigma = tmp_path / "text_sigma.json"
    text_sigma.write_text(json.dumps({"params": {"sigma": "2"}}))
    number_out = tmp_path / "number_out.json"
    number_out.write_text(json.dumps({"out": 5}))
    u512 = str(tmp_path / "u512.json")
    save_field(Field(Grid(60.0, 512), np.exp(-Grid(60.0, 512).x ** 2)), u512)
    periodic = repr(4 * math.pi / 60.0)  # a box-periodic speed on the default L = 60
    nan_dt = tmp_path / "nan_dt.json"
    nan_dt.write_text(json.dumps({"scheme": {"dt": math.nan}}))  # Python's json writes NaN
    cases = (
        ["soliton", "--params.sigma", "0.5"],
        ["soliton", "--data.x0", "left"],
        ["simulate", "--grid.N", "100"],
        ["simulate", "--scheme.dt", "fast"],
        ["simulate", "--sample_every", "0", "--grid.N", "512"],
        ["simulate", "--data.family", "file", "--data.file", str(tmp_path / "absent.json")],
        ["certify", "--params.sigma", "0.5", "--grid.N", "512"],
        ["minimize-mu", "--minimize.grad_tol", "0"],
        ["verify", "--verify.fields", "many"],
        ["zroot", "--zroot.sigmas", "[2.5]"],
        # initial data the config builds must be finite, and mass_pi needs nonzero data
        ["certify", "--data.width", "0", "--grid.N", "256"],
        ["certify", "--data.amplitude", "0", "--data.mass_pi", "3", "--grid.N", "256"],
        # a check over nothing would pass vacuously
        ["verify", "--verify.fields", "0"],
        ["verify", "--verify.fields", "-3"],
        ["zroot", "--zroot.sigmas", "[]"],
    )
    # these messages name the key
    keyed = (
        # a float key takes a finite number: NaN and Infinity are refused where they are read
        (["simulate", "--params.omega", "NaN", "--grid.N", "256", "--scheme.T", "0.01"],
         "params.omega"),
        (["soliton", "--params.omega", "NaN"], "params.omega"),
        (["certify", "--params.sigma", "Infinity", "--grid.N", "256"], "params.sigma"),
        (["minimize-mu", "--params.omega", "NaN"], "params.omega"),
        (["simulate", "--params.alpha", "Infinity", "--grid.N", "256", "--scheme.T", "0.01"],
         "params.alpha"),
        (["minimize-mu", "--params.alpha", "Infinity", "--params.c", "0.5", "--params.beta", "-0.5"],
         "params.alpha"),
        (["certify", "--data.amplitude", "NaN", "--grid.N", "256"], "data.amplitude"),
        (["simulate", "--data.amplitude", "NaN", "--grid.N", "256", "--scheme.T", "0.01"],
         "data.amplitude"),
        # an infinite tolerance stopped the descent at its first test, and was recorded
        (["minimize-mu", "--minimize.grad_tol", "Infinity"], "minimize.grad_tol"),
        (["certify", "--data.mass_pi", "Infinity", "--grid.N", "256"], "data.mass_pi"),
        (["zroot", "--zroot.sigmas", "[1.5, NaN]"], "zroot.sigmas"),
        (["simulate", str(nan_dt), "--grid.N", "256"], "scheme.dt"),
        # a switch must be a JSON boolean: bool("False") and bool("no") are True
        (["simulate", "--scheme.adaptive", "False", "--grid.N", "256", "--scheme.T", "0.01"],
         "scheme.adaptive"),
        (["simulate", str(no_config), "--grid.N", "256", "--scheme.T", "0.01"], "scheme.adaptive"),
        # a count must be whole: a fraction is refused, not truncated
        (["simulate", "--grid.N", "256.9", "--scheme.T", "0.01"], "grid.N"),
        (["simulate", "--sample_every", "2.5", "--grid.N", "256", "--scheme.T", "0.01"],
         "sample_every"),
        (["verify", "--verify.fields", "1.5"], "verify.fields"),
        # each value has the kind of its default, in a config file as on the command line
        (["certify", str(text_sigma), "--grid.N", "256"], "params.sigma"),
        (["zroot", str(number_out)], "out"),
        (["simulate", "--scheme.dt", "true", "--grid.N", "256", "--scheme.T", "0.01"], "scheme.dt"),
        (["zroot", "--zroot.sigmas", "1.5"], "zroot.sigmas"),
        (["soliton", "--grid.L.x", "5"], "grid.L"),
        (["soliton", "--params.c", "1" + "0" * 400], "params.c"),  # an int no float holds
        # a string key takes the token as text: a file named 2, not file descriptor 2
        (["simulate", "--data.family", "file", "--data.file", "2", "--grid.N", "256"], "data.file"),
        # the fixed 24-mode corpus needs 49 distinct modes
        (["verify", "--grid.N", "16"], "grid.N"),
        (["verify", "--grid.N", "32"], "grid.N"),
        # a field file on another grid: the run would use its grid, the manifest the config's
        (["simulate", "--data.family", "file", "--data.file", u512, "--grid.N", "1024"], "grid.N"),
        (["certify", "--data.family", "file", "--data.file", u512, "--grid.N", "512",
          "--grid.L", "20"], "grid.L"),
        # a modulation speed must be box-periodic
        (["certify", "--data.family", "modulated", "--data.speed", "0.3", "--grid.N", "256"],
         "data.speed"),
        # so must c L / (4 pi) be finite before it can be whole
        *((["certify", "--grid.N", "256", "--data.speed", speed], "data.speed")
          for speed in ("Infinity", "1e308", "-Infinity", "NaN")),
        # a soliton's centre must be finite: NaN sampled to a NaN wave and a zero amplitude
        (["simulate", "--data.family", "soliton", "--data.x0", "NaN", "--grid.N", "256",
          "--scheme.T", "0.01"], "x0"),
        (["certify", "--data.family", "soliton", "--data.x0", "Infinity", "--grid.N", "256"], "x0"),
        (["soliton", "--data.x0", "NaN"], "x0"),
        # a section given a value, then one of its keys
        (["zroot", "--zroot", "5", "--zroot.sigmas", "[1.5]"], "zroot"),
        # a soliton or a field file is taken as it is: a rescale or a boost would be ignored
        (["certify", "--data.family", "soliton", "--data.mass_pi", "3", "--grid.N", "1024"],
         "data.mass_pi"),
        (["simulate", "--data.family", "soliton", "--data.speed", periodic, "--grid.N", "512"],
         "data.speed"),
        (["simulate", "--data.family", "file", "--data.file", u512, "--grid.N", "512",
          "--data.mass_pi", "3"], "data.mass_pi"),
        (["certify", "--data.family", "file", "--data.file", u512, "--grid.N", "512",
          "--data.speed", periodic], "data.speed"),
    )
    for argv, key in [(argv, None) for argv in cases] + list(keyed):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, argv
        assert key is None or key in err, err
    assert not outdir.exists()  # a refused run makes no output directory


def test_unexpected_error_exits_3_with_traceback(outdir, monkeypatch, capsys):
    # a program bug is neither a failed check nor a config error
    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    monkeypatch.setattr(cli, "integrate", broken)
    assert main(["simulate", "--grid.N", "512", "--scheme.T", "0.01"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: internal bug" in err
    assert "config error" not in err


def test_verify_randomized_corpus(outdir):
    assert main(["verify", "--verify.fields", "8", "--grid.N", "1024"]) == 0
    rows = (outdir / "checks.csv").read_text().splitlines()
    assert rows[0] == "check,value,threshold,status"
    assert all(r.endswith("pass") for r in rows[1:])
    names = [r.split(",")[0] for r in rows[1:]]
    assert "identity_suite_worst_rel" in names
    assert "gn1_ratio_at_Q_minus_1" in names


def test_verify_is_deterministic(outdir):
    args = ["verify", "--verify.fields", "6", "--grid.N", "1024"]
    assert main(args) == 0
    first = (outdir / "checks.csv").read_bytes()
    assert main(args) == 0
    assert (outdir / "checks.csv").read_bytes() == first


def test_certify_gaussian_writes_certificate(outdir, tmp_path):
    cfg = tmp_path / "certify.json"
    cfg.write_text(json.dumps({
        "grid": {"N": 1024},
        "data": {"family": "gaussian", "mass_pi": 3.9},
    }))
    assert main(["certify", str(cfg)]) == 0
    doc = json.loads((outdir / "certificate.json").read_text())
    assert doc["strategy"] == "massless-scan"
    assert doc["action"] <= doc["level"]
    man = _manifest(outdir)
    assert man["metrics"]["found"] is True


def test_certify_integer_sigma_writes_a_float(outdir):
    criterion._table.cache_clear()  # a table cached for sigma = 1.0 would hide an int
    assert main(["certify", "--grid.N", "1024", "--data.mass_pi", "3.9", "--params.sigma", "1"]) == 0
    assert '"sigma": 1.0,' in (outdir / "certificate.json").read_text()


def test_certify_boosted_data_negative_momentum(outdir):
    q = 2 * math.pi * 5 / 60.0  # the boost e^(iqx) is the modulation at speed 2q
    code = main(["certify", "--grid.N", "1024",
                 "--data.mass_pi", "4.0", "--data.speed", repr(2 * q)])
    assert code == 0
    doc = json.loads((outdir / "certificate.json").read_text())
    assert doc["strategy"] == "negative-momentum"


def test_certify_modulated_family_gets_hint(outdir):
    code = main(["certify", "--grid.L", repr(20 * math.pi), "--grid.N", "1024",
                 "--params.sigma", "2.0", "--data.family", "modulated",
                 "--data.amplitude", "1.2", "--data.width", "2.0",
                 "--data.speed", "12.8"])
    assert code == 0
    doc = json.loads((outdir / "certificate.json").read_text())
    assert doc["strategy"] == "modulation"
    assert doc["params"]["sigma"] == 2.0


def test_certify_not_found_exits_1(outdir):
    code = main(["certify", "--grid.N", "512", "--data.mass_pi", "6.0"])
    assert code == 1
    doc = json.loads((outdir / "notfound.json").read_text())
    assert doc["tried"] == 280
    g = Grid(60.0, 512)
    u = Field(g, np.exp(-(g.x**2)).astype(complex))
    u = u.with_values(u.values * math.sqrt(6.0 * math.pi / mass(u)))
    assert 0 < doc["margin"] <= best_endpoint_margin(u)
    man = _manifest(outdir)
    assert man["metrics"]["found"] is False


@pytest.mark.parametrize("L", ["1e-160", "1e-154"])
def test_certify_on_a_box_too_small_for_any_speed_exits_1(outdir, capsys, L):
    # every snapped speed 4 pi / L has an infinite c^2/4: no candidate, a plain miss
    assert main(["certify", "--grid.L", L, "--grid.N", "256"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((outdir / "notfound.json").read_text(), parse_constant=_refuse)
    assert doc["tried"] == 0 and doc["params"] is None
    assert doc["margin"] is None and doc["action"] is None  # inf and NaN, written as null
    assert _manifest(outdir)["metrics"]["best_margin"] is None  # inf, written as null


def test_minimize_mu_ground_state(outdir):
    assert main(["minimize-mu", "--grid.L", "62.83", "--grid.N", "512"]) == 0
    row = (outdir / "mu.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) == pytest.approx(math.pi, rel=1e-3)
    assert float(row[1]) == pytest.approx(math.pi, rel=1e-12)
    assert row[4] == "1"  # converged


def test_minimize_mu_default_grid_converges(tmp_path):
    out = tmp_path / "mu"
    assert main(["minimize-mu", "--out", str(out)]) == 0
    man = _manifest(out)
    assert man["config"]["grid"] == {"L": 60.0, "N": 4096}
    converged = [c for c in man["checks"] if c["name"] == "converged"]
    assert len(converged) == 1 and converged[0]["passed"]
    metrics = man["metrics"]
    assert metrics["iterations"] > 1
    assert metrics["trials"] >= metrics["iterations"] - 1
    # the descent trace: the last gradient norm passed the stopping test, and
    # backtracks are the trials that were not accepted moves
    assert metrics["grad_norm"] < man["config"]["minimize"]["grad_tol"] * max(1.0, abs(metrics["mu"]))
    assert 0 <= metrics["backtracks"] <= metrics["trials"] - (metrics["iterations"] - 1)


def test_simulate_soliton_checks_error_and_drift(outdir):
    code = main(["simulate", "--data.family", "soliton", "--grid.N", "1024",
                 "--scheme.T", "0.5", "--sample_every", "50"])
    assert code == 0
    man = _manifest(outdir)
    assert man["metrics"]["final_linf_error"] < 1e-4
    assert man["metrics"]["drift_M"] < 1e-8
    names = [c["name"] for c in man["checks"]]
    assert names == ["no_blowup", "reached_T", "drift_M", "soliton_linf_error", "drift_E", "drift_P"]
    assert all(c["passed"] for c in man["checks"])
    traj = (outdir / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,M,E,P,H1seminorm,shiftedH1,K,blowup"
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0] == "final_t,blowup,drift_M,drift_E,drift_P,final_linf_error"
    assert (outdir / "initial_field.json").exists()
    assert (outdir / "final_field.json").exists()


def _failed_checks(outdir):
    return sorted(c["name"] for c in _manifest(outdir)["checks"] if not c["passed"])


def test_simulate_blowup_exits_1(outdir):
    code = main(["simulate", "--grid.N", "256", "--data.amplitude", "50",
                 "--scheme.dt", "0.05", "--scheme.T", "1"])
    assert code == 1
    assert _manifest(outdir)["metrics"]["blowup"] == 1
    assert "no_blowup" in _failed_checks(outdir)


def test_simulate_blowup_reports_nan_drift(outdir):
    # sigma = 3 data that blows up at t = 0.009; the energy turns NaN before
    # the mass overflows, and a drift that skipped NaN would read 0
    code = main(["simulate", "--grid.N", "4096", "--params.sigma", "3", "--data.amplitude", "2",
                 "--scheme.T", "0.2"])
    assert code == 1
    metrics = _manifest(outdir)["metrics"]
    assert metrics["blowup"] == 1
    assert metrics["drift_E"] is None  # NaN, written as null
    assert "no_blowup" in _failed_checks(outdir)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the first record's powers overflow silently
def test_simulate_adaptive_run_of_overflowing_data_exits_1(outdir, capsys):
    # amplitude^(2 sigma) = 1e400 overflows a float: the CFL cap must not raise
    code = main(["simulate", "--data.amplitude", "1e100", "--params.sigma", "2",
                 "--scheme.adaptive", "true", "--grid.N", "256", "--scheme.T", "0.01"])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert _manifest(outdir)["metrics"]["blowup"] == 1
    assert "no_blowup" in _failed_checks(outdir)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_fixed_step_run_of_overflowing_data_exits_1_without_warnings(outdir, capsys):
    # the same datum at a fixed step: the t = 0 record overflows and the first step
    # leaves the finite range, all under the one errstate of integrate
    code = main(["simulate", "--data.amplitude", "1e100", "--params.sigma", "2",
                 "--grid.N", "256", "--scheme.T", "0.01"])
    err = capsys.readouterr().err
    assert code == 1
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert _manifest(outdir)["metrics"]["blowup"] == 1
    assert (outdir / "trajectory.csv").read_text().strip().split("\n")[-1].endswith(",1")


def test_simulate_truncated_adaptive_run_exits_1(outdir):
    # sigma = 3 data that collapses: the adaptive step budget stops the run short of T
    code = main(["simulate", "--grid.N", "512", "--params.sigma", "3", "--data.amplitude", "3",
                 "--scheme.adaptive", "true", "--scheme.T", "0.2", "--sample_every", "500"])
    assert code == 1
    man = _manifest(outdir)
    assert man["metrics"]["blowup"] == 0
    assert man["metrics"]["final_t"] < 0.2
    assert _failed_checks(outdir) == ["drift_M", "reached_T"]


def test_simulate_mass_drift_fails_every_family(outdir):
    # sigma = 3 data the N = 512 grid cannot resolve: the adaptive run reaches T
    # without blowing up, yet loses half its mass, which the equation conserves
    code = main(["simulate", "--grid.N", "512", "--params.sigma", "3", "--data.amplitude", "2",
                 "--scheme.adaptive", "true", "--scheme.T", "0.2"])
    assert code == 1
    man = _manifest(outdir)
    assert man["metrics"]["blowup"] == 0
    assert man["metrics"]["final_t"] == pytest.approx(0.2, rel=1e-12)
    assert man["metrics"]["drift_M"] > 0.1
    assert _failed_checks(outdir) == ["drift_M"]


def test_simulate_from_field_file(outdir, tmp_path):
    g = Grid(60.0, 512)
    u = Field(g, 0.5 * np.exp(-(g.x**2) / 2).astype(complex))
    path = tmp_path / "u0.json"
    save_field(u, str(path))
    code = main(["simulate", "--data.family", "file", "--data.file", str(path),
                 "--grid.N", "512", "--scheme.T", "0.1"])
    assert code == 0
    man = _manifest(outdir)
    assert man["metrics"]["blowup"] == 0
    assert "final_linf_error" not in man["metrics"]
    assert [c["name"] for c in man["checks"]] == ["no_blowup", "reached_T", "drift_M"]


def test_simulate_rejects_non_finite_field_file(outdir, tmp_path, capsys):
    # a Field refuses NaN samples, so the file is written directly
    g = Grid(60.0, 512)
    vals = 0.5 * np.exp(-(g.x**2) / 2)
    vals[100] = np.nan
    path = tmp_path / "u0.json"
    path.write_text(json.dumps({"L": g.L, "N": g.N, "re": vals.tolist(), "im": [0.0] * g.N}))
    code = main(["simulate", "--data.family", "file", "--data.file", str(path),
                 "--grid.N", "512", "--scheme.T", "0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and str(path) in err


def test_simulate_rejects_non_finite_scheme_and_grid(outdir, capsys):
    # each is refused where it enters the config, before any stepping or sampling
    for key in ("scheme.dt", "scheme.T", "grid.L"):
        assert main(["simulate", f"--{key}", "Infinity", "--grid.N", "512"]) == 2
        assert f"{key} must be a finite number, got inf" in capsys.readouterr().err
    assert not outdir.exists()  # a refused run makes no output directory
    # and a library caller meets the same refusal where the value is used
    for build, what in ((lambda: SchemeConfig(dt=math.inf, T=1.0), "dt"),
                        (lambda: SchemeConfig(dt=1e-3, T=math.inf), "T"),
                        (lambda: Grid(math.inf, 512), "box length")):
        with pytest.raises(ValueError, match=f"{what} must be positive and finite"):
            build()


def test_zroot_single_sigma(outdir):
    assert main(["zroot", "--zroot.sigmas", "[1.5]"]) == 0
    rows = (outdir / "zroot.csv").read_text().splitlines()
    assert rows[0] == "sigma,z0,absF"
    sigma, z0, absf = rows[1].split(",")
    assert float(sigma) == 1.5
    assert float(z0) == pytest.approx(0.06183026, abs=1e-6)
    assert float(absf) < 1e-6


def test_zroot_missed_bracket_is_a_failed_check(outdir):
    # sigma = 1.0001 is valid, but the 41-point scan misses its root: a failed check, not bad input
    assert main(["zroot", "--zroot.sigmas", "[1.0001, 1.5]"]) == 1
    checks = _manifest(outdir)["checks"]
    assert [c["passed"] for c in checks] == [False, True]
    assert checks[0]["value"] is None  # NaN, written as null
    rows = (outdir / "zroot.csv").read_text().splitlines()
    assert rows[1] == "1.0001,nan,nan" and rows[2].startswith("1.5,")


def test_a_descent_that_cannot_project_exits_3(outdir, monkeypatch, capsys):
    # NotProjectable is raised deep in a run, so it is no config error
    def broken(*args, **kwargs):
        raise NotProjectable("wrong-sign split")

    monkeypatch.setattr(cli, "estimate_mu", broken)
    assert main(["minimize-mu"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "NotProjectable: wrong-sign split" in err
    assert "config error" not in err


def test_config_out_is_where_the_run_writes(outdir, tmp_path):
    elsewhere = tmp_path / "elsewhere"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(elsewhere), "zroot": {"sigmas": [1.5]}}))
    assert main(["zroot", str(cfg)]) == 0
    assert not outdir.exists()
    # and the manifest records the resolved value
    assert _manifest(elsewhere)["config"]["out"] == str(elsewhere)
    # a command-line out is text, even when it reads as a number
    assert main(["zroot", "--out", "5", "--zroot.sigmas", "[1.5]"]) == 0
    assert _manifest(tmp_path / "5")["config"]["out"] == "5"


def test_manifest_version_is_the_package_version(outdir):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on; the package supports 3.10
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert main(["zroot", "--zroot.sigmas", "[1.5]"]) == 0
    assert _manifest(outdir)["version"] == gdnls.__version__ == pyproject["project"]["version"]
