"""Shared constructions for the test suite: parameter pool and random fields."""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from gdnls import Field, Params, mass, membership

# Validated parameter points spanning interior/endpoint cases, both signs of
# beta, moving and standing frames, and several nonlinearity powers.
PARAM_POOL = [
    Params(1.0, 1.0, 0.0),
    Params(1.0, 1.0, 0.0, 1.0, 0.5),
    Params(1.0, 1.0, 1.0, 1.0, -1.0),
    Params(1.0, 0.25, 1.0, 1.0, -0.5),
    Params(2.0, 1.0, -0.5, 1.0, 0.5),
    Params(2.0, 2.25, 3.0, 1.0, -1.0),
    Params(1.5, 2.0, 1.5, 2.0, -2.0),
    Params(3.0, 1.0, 0.0, 1.0, 1.0),
    Params(1.0, 4.0, -2.0, 1.0, 1.5),
    Params(2.5, 1.0, 1.0, 3.0, 0.0),
]


def band_limited(grid, rng, modes=24, amplitude=1.0):
    """Random periodic field with spectrum confined to |m| <= modes."""
    coef = np.zeros(grid.N, dtype=complex)
    ms = np.arange(-modes, modes + 1)
    taper = np.exp(-2.0 * (ms / modes) ** 2)
    coef[ms] = taper * (rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size))
    vals = np.fft.ifft(coef) * grid.N
    vals *= amplitude / np.max(np.abs(vals))
    return Field(grid, vals)


def enveloped(grid, rng, modes=12, width=4.0, amplitude=1.0):
    """Band-limited field times a Gaussian envelope: smooth and strongly decaying."""
    f = band_limited(grid, rng, modes, 1.0)
    vals = f.values * np.exp(-((grid.x / width) ** 2))
    vals = vals * (amplitude / np.max(np.abs(vals)))
    return Field(grid, vals)


def gaussian_with_mass(g, mass_pi, boost=0.0):
    """e^(-x^2), boosted by e^(i boost x) when boost is nonzero, rescaled to mass mass_pi * pi."""
    vals = np.exp(-(g.x**2)).astype(complex)
    if boost:
        vals = vals * np.exp(1j * boost * g.x)
    u = Field(g, vals)
    return u.with_values(u.values * math.sqrt(mass_pi * math.pi / mass(u)))


def count_ffts(monkeypatch):
    """Count numpy.fft.fft and ifft calls from here on; returns [calls, rows transformed]."""
    calls = [0, 0]
    for name in ("fft", "ifft"):
        inner = getattr(np.fft, name)

        def counted(a, *args, _inner=inner, **kwargs):
            calls[0] += 1
            calls[1] += np.size(a) // np.shape(a)[-1]  # the transforms run along the last axis
            return _inner(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def best_endpoint_margin(u):
    """Least max(S - mu, -K) over the endpoint candidates (sigma = 1) of the fixed scan.

    The speeds are rebuilt here: 40 geometric in [1, 1024], each snapped to 4 pi m / L.
    """
    unit = 4 * math.pi / u.grid.L
    speeds = {unit * max(1, round(c / unit)) for c in np.geomspace(1.0, 1024.0, 40)}
    best = math.inf
    for c in speeds:
        m = membership(u, Params(1.0, c * c / 4, c, 1.0, -0.5))
        best = min(best, max(m.action - m.level, -m.virial))
    return best


def modulus_alignment_error(psi, reference):
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

    def err(shift):
        moved = np.fft.ifft(ah * np.exp(-1j * g.k * shift)).real
        return float(np.max(np.abs(moved - ref)))

    res = minimize_scalar(
        err, bounds=(-m0 * g.dx - g.dx, -m0 * g.dx + g.dx), method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.fun)
