"""Global-existence certificates from the variational level.

Data sits in the good set when its action does not exceed the constrained
level and the virial functional is nonnegative; that set is preserved by the
flow, so exhibiting one admissible (omega, c, alpha, beta) with both signs
right certifies a global solution.  The search exploits that the virial grows
like c^2 * mass/4 while the level grows like c^(1+1/sigma) along the endpoint
curve omega = c^2/4, so small-mass or negative-momentum data certify at large
speed.  The speeds form one fixed grid per box, a numerical device rather than
part of the criterion, so the candidates depend only on sigma and L: one table
per (sigma, L) holds them with their levels, built once per process and cached.
The paper's borderline case, mass 4 pi with negative momentum, certifies at an
endpoint candidate with the tag "negative-momentum"; the gradient bound along
its flow is the one `evolve.invariance_check` reads off the certificate.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import Field, Params, modulate, validate_params
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

# the interior offsets omega - c^2/4 tried per speed
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
    the nearest box-periodic value 4 pi m / L, tried first at the endpoint
    omega = c^2/4 and then at interior points.  strategy_hint overrides the tag
    of an endpoint hit when the caller knows the construction (modulated
    profiles are not detectable from samples).
    """

    sigma: float = 1.0
    strategy_hint: str | None = None

    def __post_init__(self) -> None:
        if not (self.sigma >= 1 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and >= 1, got {self.sigma}")
        # a float: the table is cached on sigma, where 1 and 1.0 are one key
        object.__setattr__(self, "sigma", float(self.sigma))
        if self.strategy_hint is not None and self.strategy_hint not in STRATEGY_TAGS:
            raise ValueError(f"unknown strategy tag {self.strategy_hint!r}")


@np.errstate(over="ignore", invalid="ignore")  # moments that overflow read inf or NaN, silently
def membership(u0: Field, p: Params) -> Membership:
    """Exact-comparison classification; ties land on the inclusive side, a NaN action or virial in neither."""
    validate_params(p)
    mom, level = moments(u0, p.sigma), mu_reference(p)
    s, k = mom.action(p), mom.virial(p)
    kind = "Neither" if not s <= level or math.isnan(k) else "KPlus" if k >= 0 else "KMinus"
    return Membership(kind, s, level, k)


class _Table(NamedTuple):
    """The admissible candidates in scan order, endpoint ones first, their levels and columns."""

    params: tuple[Params, ...]
    endpoints: int  # how many endpoint candidates lead the table
    level: np.ndarray
    cols: Params  # omega, c, alpha, beta as float arrays


@lru_cache(maxsize=16)
def _table(sigma: float, L: float) -> _Table:
    unit = 4 * math.pi / L
    # 40 geometric speeds in [1, 1024] snapped to box-periodic values 4 pi m / L, repeats
    # dropped; on a tiny box c^2/4 overflows, and those speeds are not candidates
    snapped = (unit * max(1, round(c / unit)) for c in np.geomspace(1.0, 1024.0, 40))
    speeds = dict.fromkeys(c for c in snapped if math.isfinite(c * c / 4))
    ends = [Params(sigma, c * c / 4, c, 1.0, -0.5) for c in speeds]  # each admissible: c > 0, beta < 0
    interior = [Params(sigma, c * c / 4 + off, c, a, b)
                for c in speeds for off in _OMEGA_OFFSETS for a, b in ((1.0, 0.0), (1.0, -0.5))]
    kept = []
    # one candidate per point: at huge c an interior offset can round away onto an endpoint
    for p in dict.fromkeys(ends + interior):
        with contextlib.suppress(NotAdmissible, BadExponents):
            kept.append(validate_params(p))
    level = np.array([mu_reference(p) for p in kept], dtype=float)
    # reshape keeps four (empty) columns when no candidate is left
    cols = np.array([(p.omega, p.c, p.alpha, p.beta) for p in kept], dtype=float).reshape(-1, 4).T
    return _Table(tuple(kept), len(ends), level, Params(sigma, *cols))


@np.errstate(over="ignore", invalid="ignore")  # moments that overflow score no candidate, silently
def certify_global(u0: Field, search: SearchConfig) -> Certificate | NotFound:
    """Scan the candidate table for a point where u0 sits in the good set.

    The table runs over the fixed speed grid: first the endpoint candidates,
    omega = c^2/4 with (alpha, beta) = (1, -1/2), then the interior ones, which
    offset omega and also try (1, 0).  One array pass of `Moments` algebra on
    its columns scores them all, and the first with action <= level and
    virial >= 0 wins.  An endpoint hit is tagged by the hint, or else by its
    mechanism: small mass scans through, borderline mass needs negative
    momentum.  An interior hit is "grid-search".  A miss reports the first
    candidate of least finite margin.
    """
    if not np.any(u0.values):
        raise ZeroField("cannot certify the zero field")

    mom = moments(u0, search.sigma)
    table = _table(search.sigma, u0.grid.L)
    action, virial = mom.action(table.cols), mom.virial(table.cols)
    good = np.flatnonzero((action <= table.level) & (virial >= 0))
    if good.size:
        i = int(good[0])
        tag = (search.strategy_hint or _endpoint_tag(mom)) if i < table.endpoints else "grid-search"
        return Certificate(table.params[i], float(action[i]), float(table.level[i]),
                           float(virial[i]), tag)
    margin = np.maximum(action - table.level, -virial)
    finite = np.flatnonzero(margin < math.inf)  # a NaN or infinite margin is no closest miss
    if not finite.size:
        return NotFound(len(table.params), math.inf, None, math.nan, math.nan, math.nan)
    j = int(finite[np.argmin(margin[finite])])
    return NotFound(len(table.params), float(margin[j]), table.params[j], float(action[j]),
                    float(table.level[j]), float(virial[j]))


def _endpoint_tag(mom: Moments) -> str:
    """Which endpoint mechanism applies: borderline mass with leftward drift, or small mass."""
    borderline = abs(mom.mass - 4 * math.pi) <= 1e-6 * 4 * math.pi  # Wu's 4 pi, to 1e-6 relative
    if mom.sigma == 1.0 and borderline and mom.momentum < 0:
        return "negative-momentum"
    return "massless-scan"


def corollary15_data(psi: Field, c: float) -> Field:
    """Plane-wave dress e^(i c x / 2) * psi for the large-speed construction."""
    return modulate(psi, c)
