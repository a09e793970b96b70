"""Global-existence certificates from the variational level.

Data sits in the good set when its action does not exceed the constrained
level and the virial functional is nonnegative; that set is preserved by the
flow, so exhibiting one admissible (omega, c, alpha, beta) with both signs
right certifies a global solution.  The search exploits that the virial grows
like c^2 * mass/4 while the level grows like c^(1+1/sigma) along the endpoint
curve omega = c^2/4, so small-mass or negative-momentum data certify at large
speed.  The speeds form one fixed grid per box, a numerical device rather than
part of the criterion; the candidates of a route therefore depend only on sigma
and L, and each route's table of admissible parameters and levels is built once
per process and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import Field, Params, modulate, require_finite, validate_params
from .errors import BadExponents, Inapplicable, NotAdmissible, ZeroField
# action_S and virial_K are unused here; bench/tracer.py patches them by name
from .functionals import Moments, action_S, energy, mass, moments, momentum, virial_K  # noqa: F401
from .variational import mu_reference

__all__ = [
    "Membership",
    "Certificate",
    "NotFound",
    "SearchConfig",
    "STRATEGY_TAGS",
    "membership",
    "certify_global",
    "corollary15_data",
    "guo_wu_bound",
    "guo_wu_bound_values",
]

STRATEGY_TAGS = ("massless-scan", "negative-momentum", "modulation", "grid-search")

# Young-split constant in the gradient bound: from the sharp quartic
# interpolation ||u||_L6^6 <= 3 (2 pi)^(-2/3) ||u||_L4^(16/3) ||u_x||^(2/3),
# splitting the cubic-root gradient factor so exactly half the kinetic term
# is absorbed.  See guo_wu_bound_values.
C_QUARTIC_YOUNG = math.sqrt(3.0) / (9.0 * math.pi)

# the routes in scan order, and the interior offsets omega - c^2/4 tried per speed
_ROUTES = ("massless-scan", "grid-search")
_OMEGA_OFFSETS = (0.5, 2.0, 8.0)


@dataclass(frozen=True)
class Membership:
    """Classification of initial data against the level set at one parameter point."""

    kind: str  # "KPlus" | "KMinus" | "Neither"
    action: float
    level: float
    virial: float


@dataclass(frozen=True)
class Certificate:
    params: Params
    action: float
    level: float
    virial: float
    strategy: str

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_TAGS:
            raise ValueError(f"unknown strategy tag {self.strategy!r}")


@dataclass(frozen=True)
class NotFound:
    """Negative search outcome with the closest miss for diagnosis.

    margin = max(action - level, -virial) at the best candidate; a value <= 0
    would have been accepted, so the reported margin is always positive.
    """

    tried: int
    margin: float
    params: Params | None
    action: float
    level: float
    virial: float


@dataclass(frozen=True)
class SearchConfig:
    """Nonlinearity power and tag override for certify_global.

    The scan itself is fixed: 40 speeds geometric in [1, 1024], each snapped to
    the nearest box-periodic value 4 pi m / L, tried first on the endpoint
    route and then on the interior route.  strategy_hint overrides the tag on a
    successful endpoint scan when the caller knows the construction (the
    modulated-profile route is not detectable from samples).
    """

    sigma: float = 1.0
    strategy_hint: str | None = None

    def __post_init__(self) -> None:
        if not (self.sigma >= 1 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and >= 1, got {self.sigma}")
        # a float: the route tables are cached on sigma, where 1 and 1.0 are one key
        object.__setattr__(self, "sigma", float(self.sigma))
        if self.strategy_hint is not None and self.strategy_hint not in STRATEGY_TAGS:
            raise ValueError(f"unknown strategy tag {self.strategy_hint!r}")


def membership(u0: Field, p: Params) -> Membership:
    """Exact-comparison classification; ties land on the inclusive side."""
    validate_params(p)
    mom, level = moments(u0, p.sigma), mu_reference(p)
    s, k = mom.action(p), mom.virial(p)
    kind = "Neither" if s > level else "KPlus" if k >= 0 else "KMinus"
    return Membership(kind, s, level, k)


@lru_cache(maxsize=32)
def _speed_grid(L: float) -> tuple[float, ...]:
    unit = 4 * math.pi / L
    out: list[float] = []
    for c in np.geomspace(1.0, 1024.0, 40):
        snapped = unit * max(1, round(c / unit))
        if not out or snapped != out[-1]:
            out.append(snapped)
    return tuple(out)


class _RouteTable(NamedTuple):
    """The admissible candidates of one route in scan order, their levels and columns."""

    params: tuple[Params, ...]
    level: np.ndarray
    cols: Params  # omega, c, alpha, beta as float arrays


@lru_cache(maxsize=32)
def _route_table(sigma: float, route: str, speeds: tuple[float, ...]) -> _RouteTable:
    if route == "massless-scan":
        raw = [Params(sigma, c * c / 4, c, 1.0, -0.5) for c in speeds]
    else:
        raw = [Params(sigma, c * c / 4 + off, c, a, b)
               for c in speeds for off in _OMEGA_OFFSETS for a, b in ((1.0, 0.0), (1.0, -0.5))]
    kept = []
    for p in raw:
        try:
            kept.append(validate_params(p))
        except (NotAdmissible, BadExponents):
            pass
    level = np.array([mu_reference(p) for p in kept], dtype=float)
    cols = np.array([(p.omega, p.c, p.alpha, p.beta) for p in kept], dtype=float).reshape(-1, 4).T
    return _RouteTable(tuple(kept), level, Params(sigma, *cols))


def certify_global(u0: Field, search: SearchConfig) -> Certificate | NotFound:
    """Scan admissible parameters for a point where u0 sits in the good set.

    Both routes run over the fixed speed grid, the endpoint route first: it
    sweeps omega = c^2/4 with (alpha, beta) = (1, -1/2); the interior route
    additionally offsets omega and tries (1, 0).  The first
    admissible point with action <= level and virial >= 0 wins.  The endpoint
    tag records which mechanism made the data certifiable: small mass scans
    through, mass exactly at the borderline needs negative momentum, and
    caller-constructed plane-wave data is tagged via the hint.  Each route is
    scored in one array pass over its cached table, by `Moments` algebra on
    columns of parameters; a miss reports the first candidate of least margin.
    """
    if not np.any(u0.values):
        raise ZeroField("cannot certify the zero field")
    require_finite(u0, "initial data")

    speeds = _speed_grid(u0.grid.L)
    mom = moments(u0, search.sigma)
    tried = 0
    best = (math.inf, None, math.nan, math.nan, math.nan)  # margin, params, action, level, virial
    for route in _ROUTES:
        table = _route_table(search.sigma, route, speeds)
        if not table.params:
            continue
        action, virial = mom.action(table.cols), mom.virial(table.cols)
        good = (action <= table.level) & (virial >= 0)
        i = int(np.argmax(good))
        if good[i]:
            tag = ((search.strategy_hint or _endpoint_tag(mom)) if route == "massless-scan"
                   else "grid-search")
            return Certificate(table.params[i], float(action[i]), float(table.level[i]),
                               float(virial[i]), tag)
        tried += len(table.params)
        margin = np.maximum(action - table.level, -virial)
        j = int(np.argmin(margin))
        if margin[j] < best[0]:
            best = (float(margin[j]), table.params[j], float(action[j]), float(table.level[j]),
                    float(virial[j]))
    return NotFound(tried, *best)


def _endpoint_tag(mom: Moments) -> str:
    """Which endpoint mechanism applies: borderline mass with leftward drift, or small mass."""
    if mom.sigma == 1.0 and _borderline_mass(mom.mass) and mom.momentum < 0:
        return "negative-momentum"
    return "massless-scan"


def _borderline_mass(M: float) -> bool:
    """Mass at Wu's 4 pi threshold, to 1e-6 relative."""
    return abs(M - 4 * math.pi) <= 1e-6 * 4 * math.pi


def corollary15_data(psi: Field, c: float) -> Field:
    """Plane-wave dress e^(i c x / 2) * psi for the large-speed construction."""
    return modulate(psi, c)


def guo_wu_bound_values(E: float, M: float, P: float) -> tuple[float, float]:
    """Arithmetic core of the a priori gradient bound; returns (X, bound).

    X bounds the fourth-power norm: ||u||_L4^4 <= 8 sqrt(pi) E sqrt(M) / |P|.
    The gradient bound then closes through the gauge transform
    w = u exp(i/4 int_{-inf}^x |u|^2): its energy gives ||w_x||^2 = 2E + ||w||_L6^6/16,
    the quartic interpolation bounds the sixth power by X^(8/3) ||w_x||^(2/3),
    and Young with weights (3/4, 1/4) on the 1/3-2/3 split leaves

        ||u_x||^2 <= 4E + 2 * C * X^2,   C = sqrt(3)/(9 pi).
    """
    X = 8 * math.sqrt(math.pi) * E * math.sqrt(M) / abs(P)
    return X, 4 * E + 2 * C_QUARTIC_YOUNG * X * X


def guo_wu_bound(u0: Field) -> float:
    """A priori bound on ||u_x||^2 for borderline-mass, leftward-drifting data.

    Needs mass 4 pi (to 1e-6 relative), negative momentum, positive energy;
    anything else is outside the argument's reach.
    """
    M = mass(u0)
    if not _borderline_mass(M):
        raise Inapplicable(f"mass {M:.8f} is not at the 4*pi borderline")
    P = momentum(u0)
    if not P < 0:
        raise Inapplicable(f"momentum {P:.3e} is not negative")
    E = energy(u0, 1.0)
    if not E > 0:
        raise Inapplicable(f"energy {E:.3e} is not positive")
    return guo_wu_bound_values(E, M, P)[1]
