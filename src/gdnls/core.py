"""Periodic grid, field container, and the basic spectral calculus.

Conventions used everywhere downstream: the box is [-L/2, L/2) sampled at
N equispaced nodes x_j = -L/2 + j*dx, wavenumbers are 2*pi*m/L in standard
FFT ordering, the forward transform is unnormalized (numpy default), and
integrals are plain Riemann sums dx * sum(f), which are spectrally accurate
for smooth periodic integrands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BadExponents, IncompatibleModulation, NotAdmissible

__all__ = [
    "Grid",
    "Field",
    "Params",
    "require_admissible",
    "validate_params",
    "spectral_derivative",
    "is_grid_compatible",
    "modulate",
    "save_field",
    "load_field",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)."""

    L: float
    N: int

    def __post_init__(self) -> None:
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"box length must be positive and finite, got L={self.L}")
        n = self.N
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 16, got N={n}")

    @cached_property
    def dx(self) -> float:
        return self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        x = -self.L / 2 + self.dx * np.arange(self.N)
        x.setflags(write=False)
        return x

    @cached_property
    def k(self) -> np.ndarray:
        k = 2 * np.pi * np.fft.fftfreq(self.N, d=self.dx)
        k.setflags(write=False)
        return k

    @cached_property
    def ik_first(self) -> np.ndarray:
        """1j * k with the unpaired Nyquist mode zeroed: derivatives of real fields stay real."""
        ik = 1j * self.k
        ik[self.N // 2] = 0.0
        ik.setflags(write=False)
        return ik


@dataclass(frozen=True)
class Field:
    """Finite complex-valued samples on a Grid, copied and read-only."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.complex128)
        if v.shape != (self.grid.N,):
            raise ValueError(f"expected {self.grid.N} samples, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("field samples contain non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "Field":
        return replace(self, values=values)

    def boundary_fraction(self) -> float:
        """max(|f|) at the two outermost nodes relative to the global max."""
        amax = float(np.max(np.abs(self.values)))
        if amax == 0.0:
            return 0.0
        edge = max(abs(self.values[0]), abs(self.values[-1]))
        return float(edge) / amax


@dataclass(frozen=True)
class Params:
    """Wave-speed pair (omega, c), nonlinearity power sigma, virial pair (alpha, beta)."""

    sigma: float
    omega: float
    c: float
    alpha: float = 1.0
    beta: float = 0.0


def require_admissible(sigma: float, omega: float, c: float) -> bool:
    """Check finite sigma >= 1, omega > c^2/4 or the endpoint omega = c^2/4, c > 0; True there."""
    if not all(map(math.isfinite, (sigma, omega, c))):
        raise ValueError(f"sigma, omega and c must be finite, got {sigma}, {omega}, {c}")
    if not sigma >= 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    quarter = c * c / 4
    if omega < quarter:
        raise NotAdmissible(f"need omega >= c^2/4: omega={omega}, c^2/4={quarter}")
    endpoint = omega == quarter
    if endpoint and not c > 0:
        raise NotAdmissible(f"endpoint omega = c^2/4 requires c > 0, got c={c}")
    return endpoint


def validate_params(p: Params) -> Params:
    """Check the existence region for (omega, c) and the sign conditions on (alpha, beta).

    The virial pair must be finite and satisfy 2*alpha - beta > 0 and 2*alpha + beta > 0,
    together with beta*c <= 0 (interior case) or beta < 0 (endpoint case).
    """
    endpoint = require_admissible(p.sigma, p.omega, p.c)
    if not (math.isfinite(p.alpha) and math.isfinite(p.beta)):
        raise BadExponents(f"alpha and beta must be finite, got {p.alpha}, {p.beta}")
    if not 2 * p.alpha - p.beta > 0:
        raise BadExponents(f"need 2*alpha - beta > 0: alpha={p.alpha}, beta={p.beta}")
    if not 2 * p.alpha + p.beta > 0:
        raise BadExponents(f"need 2*alpha + beta > 0: alpha={p.alpha}, beta={p.beta}")
    if endpoint:
        if not p.beta < 0:
            raise BadExponents(f"endpoint case requires beta < 0, got beta={p.beta}")
    elif p.beta * p.c > 0:
        raise BadExponents(f"need beta*c <= 0: beta={p.beta}, c={p.c}")
    return p


def spectral_derivative(grid: Grid, vhat: np.ndarray, order: int = 1) -> np.ndarray:
    """d/dx (order 1) or d^2/dx^2 (order 2) of the field whose unnormalized spectrum is vhat."""
    if order == 1:
        return np.fft.ifft(grid.ik_first * vhat)
    if order == 2:
        return np.fft.ifft(-grid.k**2 * vhat)
    raise ValueError(f"order must be 1 or 2, got {order}")


def is_grid_compatible(grid: Grid, c: float) -> bool:
    """True when exp(i*c*x/2) is periodic on the box, i.e. c*L/(4*pi) is a finite integer to 1e-9."""
    r = c * grid.L / (4 * np.pi)
    return math.isfinite(r) and abs(r - round(r)) <= 1e-9


def modulate(f: Field, c: float) -> Field:
    """Multiply by the plane wave exp(i*c*x/2).

    Refuses speeds whose half-wave is not periodic on the box, since sampling
    a non-periodic factor silently corrupts every spectral operation after it.
    """
    if not is_grid_compatible(f.grid, c):
        raise IncompatibleModulation(
            f"c={c} is not a multiple of 4*pi/L={4 * np.pi / f.grid.L:.6g}"
        )
    return f.with_values(f.values * np.exp(0.5j * c * f.grid.x))


def save_field(f: Field, path: str, t: float | None = None) -> None:
    """Write a field as JSON: {L, N, re, im} plus an optional timestamp."""
    doc = {
        "L": f.grid.L,
        "N": f.grid.N,
        "re": f.values.real.tolist(),
        "im": f.values.imag.tolist(),
    }
    if t is not None:
        doc["t"] = t
    text = json.dumps(doc)  # one C-encoded string; json.dump would stream through the Python encoder
    with open(path, "w") as fh:
        fh.write(text)


def load_field(path: str) -> Field:
    with open(path) as fh:
        doc = json.load(fh)
    grid = Grid(float(doc["L"]), int(doc["N"]))
    values = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    return Field(grid, values)
