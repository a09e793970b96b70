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
per process and cached.  The paper's borderline case, mass 4 pi with negative
momentum, certifies on the endpoint route with the tag "negative-momentum"; the
gradient bound along its flow is the one `evolve.invariance_check` reads off
the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import Field, Params, modulate, require_finite, validate_params
from .errors import BadExponents, NotAdmissible, ZeroField
# action_S, energy, mass, momentum and virial_K are unused here; bench/tracer.py patches them by name
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
]

STRATEGY_TAGS = ("massless-scan", "negative-momentum", "modulation", "grid-search")

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
    would have been accepted, so the reported margin is always positive.  A box
    too small for any finite candidate gives tried = 0, margin = inf and no params.
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


class _RouteTable(NamedTuple):
    """The admissible candidates of one route in scan order, their levels and columns."""

    params: tuple[Params, ...]
    level: np.ndarray
    cols: Params  # omega, c, alpha, beta as float arrays


@lru_cache(maxsize=32)
def _route_table(sigma: float, L: float, route: str) -> _RouteTable:
    unit = 4 * math.pi / L
    # 40 geometric speeds in [1, 1024] snapped to box-periodic values 4 pi m / L, repeats
    # dropped; on a tiny box c^2/4 overflows, and those speeds are not candidates
    snapped = (unit * max(1, round(c / unit)) for c in np.geomspace(1.0, 1024.0, 40))
    speeds = dict.fromkeys(c for c in snapped if math.isfinite(c * c / 4))
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
    # reshape keeps four (empty) columns when no candidate is left
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

    mom = moments(u0, search.sigma)
    tried = 0
    best = (math.inf, None, math.nan, math.nan, math.nan)  # margin, params, action, level, virial
    for route in _ROUTES:
        table = _route_table(search.sigma, u0.grid.L, route)
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
    borderline = abs(mom.mass - 4 * math.pi) <= 1e-6 * 4 * math.pi  # Wu's 4 pi, to 1e-6 relative
    if mom.sigma == 1.0 and borderline and mom.momentum < 0:
        return "negative-momentum"
    return "massless-scan"


def corollary15_data(psi: Field, c: float) -> Field:
    """Plane-wave dress e^(i c x / 2) * psi for the large-speed construction."""
    return modulate(psi, c)
