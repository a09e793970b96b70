"""Grid layout, field container, and the spectral calculus primitives."""

import json
import math

import numpy as np
import pytest

from gdnls import (
    BadExponents,
    Field,
    Grid,
    IncompatibleModulation,
    NotAdmissible,
    Params,
    is_grid_compatible,
    load_field,
    modulate,
    require_admissible,
    save_field,
    spectral_derivative,
    validate_params,
)


def test_grid_layout():
    g = Grid(60.0, 256)
    assert g.dx == pytest.approx(60.0 / 256)
    assert g.x[0] == -30.0
    assert g.x[-1] == pytest.approx(30.0 - g.dx)
    assert g.k[1] == pytest.approx(2 * math.pi / 60.0)
    # Nyquist mode is kept for even derivatives, dropped for odd ones
    assert g.k[128] != 0.0
    assert g.ik_first[128] == 0.0
    assert np.array_equal(g.ik_first[:128], 1j * g.k[:128])


def test_grid_rejects_bad_sizes():
    for n in (100, 8, 0):
        with pytest.raises(ValueError):
            Grid(60.0, n)
    for L in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Grid(L, 64)


def test_field_copies_input_and_is_read_only():
    g = Grid(60.0, 64)
    src = np.ones(64)
    f = Field(g, src)
    src[0] = 7.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        Field(g, np.ones(65))


def test_with_values_keeps_the_grid():
    g = Grid(60.0, 64)
    f = Field(g, np.ones(64))
    h = f.with_values(2.0 * f.values)
    assert h.grid is g
    assert float(np.max(np.abs(h.values))) == 2.0


def test_boundary_fraction():
    g = Grid(60.0, 64)
    vals = np.zeros(64)
    vals[32] = 2.0
    vals[0] = 0.5
    assert Field(g, vals).boundary_fraction() == pytest.approx(0.25)
    assert Field(g, np.zeros(64)).boundary_fraction() == 0.0


def test_spectral_derivative_exact_on_modes():
    g = Grid(2 * math.pi, 64)
    u = np.exp(3j * g.x)
    uh = np.fft.fft(u)
    assert np.allclose(spectral_derivative(g, uh), 3j * u, rtol=0, atol=1e-12)
    assert np.allclose(spectral_derivative(g, uh, order=2), -9 * u, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        spectral_derivative(g, uh, order=3)
    with pytest.raises(ValueError):
        g.ik_first[1] = 0.0  # the cached symbol is read-only


def test_modulation_requires_periodic_half_wave():
    g = Grid(60.0, 64)
    unit = 4 * math.pi / 60.0
    assert is_grid_compatible(g, 3 * unit)
    assert not is_grid_compatible(g, 1.0)
    f = Field(g, np.ones(64, complex))
    m = modulate(f, 3 * unit)
    assert np.allclose(m.values, np.exp(0.5j * 3 * unit * g.x), atol=1e-14)
    with pytest.raises(IncompatibleModulation):
        modulate(f, 1.0)


def test_save_load_round_trip(tmp_path):
    g = Grid(60.0, 64)
    rng = np.random.default_rng(5)
    f = Field(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    path = tmp_path / "field.json"
    save_field(f, str(path), t=1.5)
    doc = json.loads(path.read_text())
    assert doc["t"] == 1.5 and doc["N"] == 64
    back = load_field(str(path))
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_load_field_rejects_non_finite_samples(tmp_path):
    g = Grid(60.0, 64)
    path = tmp_path / "field.json"
    save_field(Field(g, np.ones(64)), str(path))
    doc = json.loads(path.read_text())
    doc["im"][7] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="non-finite"):
        load_field(str(path))


def test_validate_params_existence_region():
    validate_params(Params(1.0, 1.0, 0.0))
    validate_params(Params(2.0, 1.0, 2.0, 1.0, -0.5))  # endpoint, c > 0, beta < 0
    with pytest.raises(NotAdmissible):
        validate_params(Params(1.0, 0.2, 1.0))
    with pytest.raises(NotAdmissible):
        validate_params(Params(1.0, 0.25, -1.0, 1.0, -0.5))
    with pytest.raises(ValueError):
        validate_params(Params(0.5, 1.0, 0.0))


def test_validate_params_exponent_conditions():
    with pytest.raises(BadExponents):
        validate_params(Params(1.0, 1.0, 0.0, 1.0, 2.0))  # 2a - b = 0
    with pytest.raises(BadExponents):
        validate_params(Params(1.0, 1.0, 0.0, 1.0, -2.0))  # 2a + b = 0
    with pytest.raises(BadExponents):
        validate_params(Params(1.0, 1.0, 1.0, 1.0, 0.5))  # beta*c > 0
    with pytest.raises(BadExponents):
        validate_params(Params(1.0, 0.25, 1.0, 1.0, 0.0))  # endpoint needs beta < 0
    # alpha = inf passes every sign condition above, so finiteness is checked first
    for a, b in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(BadExponents, match="finite"):
            validate_params(Params(1.0, 1.0, 0.0, a, b))


def test_require_admissible_branches():
    assert require_admissible(1.0, 1.0, 0.0) is False
    assert require_admissible(1.0, 1.0, -1.0) is False  # interior, either sign of c
    assert require_admissible(2.0, 0.25, 1.0) is True  # endpoint with c > 0
    with pytest.raises(ValueError, match="sigma"):
        require_admissible(0.5, 1.0, 0.0)
    with pytest.raises(NotAdmissible, match="omega >= c"):
        require_admissible(1.0, 0.2, 1.0)
    for c in (-1.0, 0.0):  # the endpoint needs c > 0
        with pytest.raises(NotAdmissible, match="endpoint"):
            require_admissible(1.0, c * c / 4, c)
    # a NaN omega or c slips past every comparison, and sigma = inf passes sigma >= 1
    for args in ((1.0, math.nan, 0.0), (1.0, 1.0, math.nan), (math.inf, 1.0, 0.0),
                 (math.nan, 1.0, 0.0), (1.0, math.inf, 0.0), (1.0, math.inf, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            require_admissible(*args)
