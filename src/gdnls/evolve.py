"""Pseudo-spectral time integration with conservation and invariance diagnostics.

The linear dispersion is solved exactly in Fourier space and the derivative
nonlinearity -|u|^(2s) u_x is treated explicitly inside a fourth-order
integrating-factor Runge-Kutta step, with the 2/3 rule applied to every
nonlinear evaluation.  Diagnostics track the conserved quantities, both
gradient norms, and the virial sign and action that the certified good set
preserves.  The stepper holds the spectrum together with its samples u and u_x,
so a step costs 12 transforms in 8 calls, with no allocation per step, and a
diagnostics record none.  The time loop is one generator, _march: integrate
reads it once for the records, and a trajectory holds only its initial and
final fields, so its memory is O(N) plus the records; any other field is
rebuilt by marching again.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .core import Field, Params, validate_params, write_table
from .criterion import Certificate
# action_S, energy, mass, momentum and virial_K are unused here; bench/tracer.py patches them by name
from .functionals import action_S, energy, mass, momentum, sample_moments, virial_K  # noqa: F401

__all__ = [
    "SchemeConfig",
    "DiagnosticsRecord",
    "Trajectory",
    "InvarianceReport",
    "integrate",
    "invariance_check",
    "write_trajectory_csv",
]

_AMPLITUDE_CAP = 1e6  # growth factor over the initial sup norm that we call blow-up
_CFL_SAFETY = 0.5  # adaptive runs cap dt at this fraction of dx / max(1, |u|^(2s))
_QUIET = {"over": "ignore", "invalid": "ignore"}  # a blowing-up march overflows silently

_Sample = tuple[float, np.ndarray, np.ndarray]  # (t, u, u_x) at one record


@dataclass(frozen=True)
class SchemeConfig:
    dt: float
    T: float
    adaptive: bool = False

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if not isinstance(self.adaptive, bool):
            raise ValueError(f"adaptive must be True or False, got {self.adaptive!r}")


@dataclass(frozen=True, slots=True)
class DiagnosticsRecord:
    """One sample of the conserved quantities; virial, shifted_h1 and action are in the run's frame."""

    t: float
    mass: float
    energy: float
    momentum: float
    h1_seminorm: float
    shifted_h1: float
    virial: float
    action: float


@dataclass(frozen=True)
class Trajectory:
    """The initial and final fields of a run and its records; O(N) memory plus the records.

    fields is a read-only sequence with one field per record, made on demand by
    marching again from initial: fields[0] is initial and fields[-1] is final,
    at no cost, and any other item, or one pass over them all, costs a march up
    to it.  The replayed fields are bit-identical to the marched ones.
    """

    initial: Field
    final: Field
    records: list[DiagnosticsRecord]
    frame: Params  # the parameters the frame-dependent record columns are read at
    blowup: bool  # a step left the finite range or passed the growth cap; the records stop there
    _rerun: Callable[[], Iterator[_Sample]] = field(repr=False, compare=False)  # a fresh march

    @property
    def times(self) -> list[float]:
        return [r.t for r in self.records]

    @property
    def fields(self) -> Sequence[Field]:
        return _Fields(self)


class _Fields(Sequence):
    """The field at each record of a trajectory, marched again from its initial field."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.records)

    def __iter__(self) -> Iterator[Field]:
        traj = self._traj
        yield traj.initial
        if len(self) == 1:
            return
        grid, march = traj.initial.grid, traj._rerun()
        for i, record in enumerate(islice(traj.records, len(self) - 1)):
            with np.errstate(**_QUIET):  # held per sample, so it never leaks to the reader
                t, u, _ = next(march, (None, None, None))
            if t != record.t:
                raise RuntimeError(f"the replay reached t={t} at record {i}, which has t={record.t}")
            if i:
                yield Field(grid, u)
        yield traj.final

    def __getitem__(self, key):
        n = len(self)
        if isinstance(key, slice):
            wanted = range(*key.indices(n))
            kept = {i: f for i, f in enumerate(islice(self, max(wanted, default=-1) + 1)) if i in wanted}
            return [kept[i] for i in wanted]
        i = operator.index(key)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"field index {key} out of range for {n} records")
        return self._traj.final if i == n - 1 else next(islice(self, i, None))


@dataclass(frozen=True)
class InvarianceReport:
    min_virial: float
    action_drift: float
    drift_scale: float
    virial_ok: bool
    h1_max: float
    h1_bound: float
    h1_ok: bool

    @property
    def ok(self) -> bool:
        return self.virial_ok and self.h1_ok


class _Stepper:
    """Precomputed spectral machinery and held buffers for one (grid, sigma) pair.

    The state is the spectrum uh with its samples u = F^-1 uh and
    ux = F^-1 (ik uh), both read from one inverse transform of the stacked
    pair (uh, ik uh), and |u|^2.  Stage 1 of the next step reads u, ux and
    |u|^2, so a step costs 12 transforms in 8 calls: one forward per stage
    and one paired inverse for each of stages 2-4 and the reload.  Every
    array a step writes is held here, so a step allocates none; u and ux are
    views into a held buffer and change with every step.
    """

    def __init__(self, grid, sigma: float, dt: float):
        self.grid = grid
        self.sigma = sigma
        n = grid.N
        keep = np.abs(np.fft.fftfreq(n, 1 / n)) < n / 3
        # the minus sign of -|u|^(2s) u_x and the 2/3 rule ride on the stage coefficients
        self.neg_mask = -keep.astype(complex)  # m; complex, as real-by-complex products are slower
        self.half_k2 = -0.5j * grid.k**2
        self.uh, self.out, self.e1uh = (np.empty(n, complex) for _ in range(3))
        self.spec = np.empty((2, n), complex)  # (vh, ik vh) of the state or a stage input
        self.samples = np.empty((2, n), complex)  # (v, v_x)
        self.nl = np.empty((4, n), complex)  # F(|v|^(2s) v_x) of the four stages
        self.a2, self.w = np.empty(n), np.empty(n)  # |v|^2 and a real temporary
        self.finite = np.empty(2 * n, bool)
        self.E1, self.E2, self.A, self.B, self.C, self.D1, self.D23, self.D4 = (
            np.empty(n, complex) for _ in range(8))
        self.u, self.ux = self.samples
        self.set_dt(dt)

    def load(self, uh: np.ndarray) -> None:
        """Hold a copy of uh and its samples u, u_x and |u|^2."""
        self.uh[:] = uh
        self._reload()

    def _reload(self) -> None:
        self.spec[0] = self.uh
        self._transform_back()

    def set_dt(self, dt: float) -> None:
        """E1 = exp(-i k^2 dt/2), E2 = E1^2 and the stage coefficients, with dt and the mask m folded in.

        With n_i = F(|v|^(2s) v_x) of stage i unmasked, the stage inputs are
        E1 uh + A n1, E1 uh + B n2 and E2 uh + C n3, and the step ends at
        E2 uh + D1 n1 + D23 (n2 + n3) + D4 n4, where B = m dt/2, A = B E1,
        C = 2 A, D4 = B/3, D1 = D4 E2 and D23 = 2 A/3.
        """
        self.dt = dt
        np.exp(np.multiply(self.half_k2, dt, out=self.E1), out=self.E1)
        np.multiply(self.E1, self.E1, out=self.E2)
        np.multiply(self.neg_mask, 0.5 * dt, out=self.B)
        np.multiply(self.B, self.E1, out=self.A)
        np.multiply(self.A, 2.0, out=self.C)
        np.multiply(self.B, 1 / 3, out=self.D4)
        np.multiply(self.D4, self.E2, out=self.D1)
        np.multiply(self.A, 2 / 3, out=self.D23)

    def _transform_back(self) -> None:
        """Samples (v, v_x) and |v|^2 of the spectrum in spec[0]."""
        spec, v = self.spec, self.samples[0]
        np.multiply(self.grid.ik_first, spec[0], out=spec[1])
        np.fft.ifft(spec, out=self.samples)
        np.multiply(v.real, v.real, out=self.a2)
        self.a2 += np.multiply(v.imag, v.imag, out=self.w)

    def _stage(self, i: int) -> np.ndarray:
        """nl[i] = F(|v|^(2s) v_x) from the held samples and |v|^2."""
        weight = self.a2 if self.sigma == 1 else np.power(self.a2, self.sigma, out=self.w)
        nl = np.multiply(weight, self.samples[1], out=self.nl[i])
        return np.fft.fft(nl, out=nl)

    def _input(self, coef: np.ndarray, n: np.ndarray, base: np.ndarray) -> None:
        """Stage input spec[0] = base + coef * n, and its samples."""
        np.add(base, np.multiply(coef, n, out=self.spec[0]), out=self.spec[0])
        self._transform_back()

    def advance(self) -> bool:
        """One step from the held state; False, keeping that state, if the step left the finite range."""
        uh, out = self.uh, self.out
        n1 = self._stage(0)
        np.multiply(self.E1, uh, out=self.e1uh)
        np.multiply(self.E2, uh, out=out)
        self._input(self.A, n1, self.e1uh)
        n2 = self._stage(1)
        self._input(self.B, n2, self.e1uh)
        n3 = self._stage(2)
        self._input(self.C, n3, out)
        n4 = self._stage(3)
        out += np.multiply(self.D1, n1, out=n1)
        out += np.multiply(self.D23, np.add(n2, n3, out=n2), out=n2)
        out += np.multiply(self.D4, n4, out=n4)
        finite = bool(np.isfinite(out.view(np.float64), out=self.finite).all())
        if finite:
            self.uh, self.out = out, uh
        self._reload()
        return finite


def _diagnostics(
    u: np.ndarray, ux: np.ndarray, dx: float, t: float, diag_p: Params
) -> DiagnosticsRecord:
    """The record of the samples u and u_x at diag_p, the run's frame; no transform."""
    mom = sample_moments(u, ux, dx, diag_p.sigma)
    shifted_sq = mom.modulated(-diag_p.c).grad_sq  # ||u_x - (ic/2) u||^2
    return DiagnosticsRecord(
        t=t, mass=mom.mass, energy=mom.energy(), momentum=mom.momentum,
        h1_seminorm=math.sqrt(mom.grad_sq), shifted_h1=math.sqrt(max(shifted_sq, 0.0)),
        virial=mom.virial(diag_p), action=mom.action(diag_p),
    )


def _march(u0: Field, cfg: SchemeConfig, sigma: float, sample_every: int) -> Iterator[_Sample]:
    """Yield (t, u, u_x) at t = 0, every sample_every steps and at the last state; return blowup.

    Steps, stops and blow-up are as integrate describes.  The first u is u0's
    own values; every other pair is the stepper's held samples, valid until the
    generator resumes.
    """
    grid = u0.grid
    stepper = _Stepper(grid, sigma, cfg.dt)
    stepper.load(np.fft.fft(u0.values))
    amp0 = float(np.max(np.abs(u0.values))) or 1.0  # zero data never trips the growth cap
    yield 0.0, u0.values, stepper.ux

    # the budget only binds when the CFL cap collapses dt (clean truncation, not an error)
    budget = 20 * max(1, round(cfg.T / cfg.dt))
    t = sampled = 0.0
    n, blowup = 0, False
    while n < budget and cfg.T - t > 1e-12 * cfg.T:
        amp = math.sqrt(float(np.max(stepper.a2)))  # sup norm of the state before the step
        left = cfg.T - t
        dt = left if cfg.dt - left > 1e-12 * cfg.T else cfg.dt
        if cfg.adaptive:
            # dx / max(1, amp^(2s)) in log form, which no amplitude overflows
            dt = min(dt, _CFL_SAFETY * grid.dx * math.exp(-2 * sigma * math.log(max(amp, 1.0))))
        if dt != stepper.dt:
            stepper.set_dt(dt)
        if not stepper.advance():
            blowup = True  # the stepper still holds the last finite state, the one at t
            break
        n += 1
        t = min(t + dt if cfg.adaptive else n * cfg.dt, cfg.T)
        if amp > _AMPLITUDE_CAP * amp0:
            blowup = True
            break
        if n % sample_every == 0:
            sampled = t
            yield t, stepper.u, stepper.ux
    if sampled != t:
        yield t, stepper.u, stepper.ux
    return blowup


@np.errstate(**_QUIET)
def integrate(
    u0: Field,
    cfg: SchemeConfig,
    p: Params,
    sample_every: int = 10,
    cert: Certificate | None = None,
) -> Trajectory:
    """March to cfg.T, sampling diagnostics every sample_every steps.

    The virial, shifted-gradient and action columns use the certificate's
    parameters when one is attached, otherwise p; the trajectory records that
    frame, and a certificate for another sigma is refused.  Every step is
    cfg.dt unless less time than that is left (beyond roundoff), when it is
    the time left; an adaptive run also caps it by the amplitude CFL rule.  A
    fixed-step run sits at min(n dt, T) after n steps and ends at T; an
    adaptive run stops short only at its budget of 20 round(T/dt) steps.
    Blow-up (a step that leaves the finite range, or sup-norm growth beyond
    1e6 of the initial) truncates the trajectory and sets Trajectory.blowup;
    the last good state is the final field and has the last record.  Overflow
    raises no warning.  Only u0, the final field and the records are kept;
    Trajectory.fields marches again for any other field.
    """
    validate_params(p)
    if isinstance(sample_every, bool) or not isinstance(sample_every, numbers.Integral) or sample_every < 1:
        raise ValueError(f"sample_every must be an int of at least 1, got {sample_every!r}")
    if cert is not None and cert.params.sigma != p.sigma:
        raise ValueError(f"certificate sigma={cert.params.sigma} differs from sigma={p.sigma}")
    diag_p = cert.params if cert is not None else p
    grid = u0.grid
    rerun = partial(_march, u0, cfg, p.sigma, sample_every)
    march, records = rerun(), []
    while True:
        try:
            t, u, ux = next(march)
        except StopIteration as stop:
            blowup = stop.value
            break
        records.append(_diagnostics(u, ux, grid.dx, t, diag_p))
    # u is the last sample's, which the stepper still holds once the march has returned
    final = u0 if len(records) == 1 else Field(grid, u)
    return Trajectory(u0, final, records, diag_p, blowup, rerun)


def invariance_check(traj: Trajectory, cert: Certificate) -> InvarianceReport:
    """Check the certified trajectory against what the good set guarantees.

    Everything is read from the records, which must be in the certificate's
    frame (integrate with cert=cert); no field is touched.  The virial may dip
    below zero only by the conservation drift scale, taken as the observed
    action drift (with a roundoff floor).  The gradient bound is assembled from
    the action split: inside the good set every term of a(2s+2) S except the
    shifted-gradient one is nonnegative, so

        ||u_x - (ic/2) u|| <= sqrt(2 a (2s+2) S(u0) / (2 s a + b)),

    and the plain gradient picks up (|c|/2) ||u0|| on top.
    """
    p = cert.params
    if traj.frame != p:
        raise ValueError(f"trajectory records are in the frame {traj.frame}, "
                         f"not the certificate's {p}; integrate with cert=cert")
    s0 = traj.records[0].action
    drift = max(abs(r.action - s0) for r in traj.records)
    scale = max(drift, 1e-12 * (abs(s0) + 1.0))
    min_k = min(r.virial for r in traj.records)

    denom = 2 * p.sigma * p.alpha + p.beta
    C = math.sqrt(2 * p.alpha * (2 * p.sigma + 2) * max(s0, 0.0) / denom)
    bound = C + abs(p.c) / 2 * math.sqrt(traj.records[0].mass)
    h1_max = max(r.h1_seminorm for r in traj.records)
    return InvarianceReport(
        min_virial=min_k,
        action_drift=drift,
        drift_scale=scale,
        virial_ok=min_k >= -scale,
        h1_max=h1_max,
        h1_bound=bound,
        h1_ok=h1_max <= bound,
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per record; the blowup column reads 1 on the last row of a blown-up run."""
    last = len(traj.records) - 1
    write_table(path, "t,M,E,P,H1seminorm,shiftedH1,K,blowup",
                ((r.t, r.mass, r.energy, r.momentum, r.h1_seminorm, r.shifted_h1, r.virial,
                  int(traj.blowup and i == last)) for i, r in enumerate(traj.records)))
