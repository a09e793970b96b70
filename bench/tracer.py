"""Span tracer that measures each gdnls layer from outside the package.

The package modules bind their imports by name, so a call is traced by
replacing the name in the module where the caller looks it up
(`gdnls.evolve.mass`, `gdnls.criterion.mu_reference`, ...).  Every span has
a name, a start, an end, a parent and the op it belongs to.  `numpy.fft.fft`
and `ifft`, which every module resolves at call time, are not spans: each
call is counted and timed against the innermost open span, so FFT counts are
attributed to the layer span that encloses them.

A span's self time is its duration minus its child spans and the FFTs it made
directly.  Spans stay in memory until `dump` writes them at exit.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name); the layer is the part of the name before the dot
PATCHES = [
    ("gdnls.cli", "main", "cli.main"),
    ("gdnls.cli", "integrate", "evolve.integrate"),
    ("gdnls.cli", "write_trajectory_csv", "evolve.write_trajectory_csv"),
    ("gdnls.cli", "save_field", "core.save_field"),
    ("gdnls.cli", "estimate_mu", "variational.estimate_mu"),
    ("gdnls.cli", "mu_reference", "variational.mu_reference"),
    ("gdnls.cli", "certify_global", "criterion.certify_global"),
    ("gdnls.cli", "membership", "criterion.membership"),
    ("gdnls.cli", "profile_phi", "waves.profile_phi"),
    ("gdnls.cli", "traveling_wave", "waves.traveling_wave"),
    ("gdnls.cli", "mass", "functionals.mass"),
    ("gdnls.cli", "momentum", "functionals.momentum"),
    ("gdnls.cli", "energy", "functionals.energy"),
    ("gdnls.cli", "action_S", "functionals.action_S"),
    ("gdnls.evolve", "integrate", "evolve.integrate"),
    ("gdnls.evolve", "invariance_check", "evolve.invariance_check"),
    ("gdnls.evolve", "_diagnostics", "evolve.record"),
    ("gdnls.evolve", "mass", "functionals.mass"),
    ("gdnls.evolve", "momentum", "functionals.momentum"),
    ("gdnls.evolve", "energy", "functionals.energy"),
    ("gdnls.evolve", "virial_K", "functionals.virial_K"),
    ("gdnls.evolve", "action_S", "functionals.action_S"),
    ("gdnls.criterion", "certify_global", "criterion.certify_global"),
    ("gdnls.criterion", "membership", "criterion.membership"),
    ("gdnls.criterion", "mu_reference", "variational.mu_reference"),
    ("gdnls.criterion", "mass", "functionals.mass"),
    ("gdnls.criterion", "momentum", "functionals.momentum"),
    ("gdnls.criterion", "energy", "functionals.energy"),
    ("gdnls.criterion", "virial_K", "functionals.virial_K"),
    ("gdnls.criterion", "action_S", "functionals.action_S"),
    ("gdnls.variational", "homogeneity_split", "variational.homogeneity_split"),
    ("gdnls.variational", "tilde_functionals", "functionals.tilde_functionals"),
    ("gdnls.variational", "action_S", "functionals.action_S"),
    ("gdnls.variational", "profile_phi", "waves.profile_phi"),
    ("gdnls.variational", "closed_form_invariants", "waves.closed_form_invariants"),
    ("gdnls.waves", "quad", "waves.quad"),
]
LAYERS = ("cli", "evolve", "variational", "criterion", "functionals", "waves", "core", "bench")


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "op", "child_s", "fft_calls", "fft_s",
                 "fft_incl", "info")

    def __init__(self, name: str, t0: float, parent: int, op: int):
        self.name, self.t0, self.t1, self.parent, self.op = name, t0, t0, parent, op
        self.child_s = 0.0
        self.fft_calls = 0  # FFTs made directly inside this span
        self.fft_s = 0.0
        self.fft_incl = 0  # including nested spans
        self.info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.fft_s


def _describe(name: str, result) -> dict | None:
    """Counts that only the return value carries."""
    if name == "evolve.integrate":
        return {"fields": len(result.fields), "N": result.final.grid.N}
    if name == "variational.estimate_mu":
        return {"iterations": result.iterations, "accepted": len(result.history) - 1}
    if name == "criterion.certify_global":
        return {"hit": type(result).__name__ == "Certificate"}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                span.info = _describe(name, result)
                return result
            finally:
                span.t1 = clock()
                stack.pop()
                span.fft_incl += span.fft_calls
                if span.parent >= 0:
                    parent = spans[span.parent]
                    parent.child_s += span.duration
                    parent.fft_incl += span.fft_incl

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    span = spans[stack[-1]]
                    span.fft_calls += 1
                    span.fft_s += clock() - t0

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        import importlib

        import numpy

        from gdnls import evolve

        targets = [(importlib.import_module(mod), attr, name) for mod, attr, name in PATCHES]
        for obj, attr, name in targets:
            self._patch(obj, attr, self._wrap(getattr(obj, attr), name))
        self._patch(evolve._Stepper, "advance", self._wrap(evolve._Stepper.advance, "evolve.step"))
        for attr in ("fft", "ifft"):
            self._patch(numpy.fft, attr, self._wrap_fft(getattr(numpy.fft, attr)))

    def _patch(self, obj, attr: str, new) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)

    def run_op(self, fn, *args):
        """Run fn(*args) as one traced op under a root span named bench.op."""
        self.op += 1
        self.install()
        try:
            return self._wrap(fn, "bench.op")(*args)
        finally:
            self.uninstall()

    def dump(self, path: str, ops: set[int]) -> None:
        """Write the spans of the given ops, one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s.op in ops:
                    fh.write(json.dumps({"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                                         "start": s.t0, "end": s.t1, "fft_calls": s.fft_calls,
                                         "fft_s": s.fft_s}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: set[int], bytes_written: float) -> tuple[dict, dict]:
    """Per-op layer metrics over the given traced ops, and a per-layer (calls, self s) table.

    A metric whose layer the workload does not exercise reads 0.
    """
    everything = tracer.spans
    spans = [s for s in everything if s.op in ops]
    n_ops = len(ops)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def parent_name(s: Span) -> str:
        return everything[s.parent].name if s.parent >= 0 else ""

    def inside(s: Span, name: str) -> bool:
        while s.parent >= 0:
            s = everything[s.parent]
            if s.name == name:
                return True
        return False

    steps = by_name["evolve.step"]
    records = by_name["evolve.record"]
    integrates = by_name["evolve.integrate"]
    descents = by_name["variational.estimate_mu"]
    searches = by_name["criterion.certify_global"]
    # info is None where the call raised
    iterations = sum(s.info["iterations"] for s in descents if s.info)
    accepted = sum(s.info["accepted"] for s in descents if s.info)
    trials = [s for s in by_name["variational.homogeneity_split"]
              if inside(s, "variational.estimate_mu")]
    # certify_global scores each admissible candidate with exactly one action_S call
    candidates = [s for s in by_name["functionals.action_S"]
                  if parent_name(s) == "criterion.certify_global"]
    level = [s for s in by_name["variational.mu_reference"]
             if parent_name(s) == "criterion.certify_global"]
    reference = [s for s in by_name["variational.mu_reference"] if parent_name(s) == "cli.main"]

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s.layer] += s.self_s
        calls[s.layer] += 1
    fft_calls = sum(s.fft_calls for s in spans)
    fft_s = sum(s.fft_s for s in spans)
    record_s = sum(s.duration for s in records)

    totals = {
        "core.fft_calls": fft_calls,
        "core.fft_s": fft_s,
        "evolve.steps": len(steps),
        "evolve.records": len(records),
        "evolve.diag_s": record_s,
        "evolve.invariance_s": sum(s.duration for s in by_name["evolve.invariance_check"]),
        "evolve.traj_bytes": sum(s.info["fields"] * s.info["N"] * 16 for s in integrates if s.info),
        "functionals.calls": calls["functionals"],
        "functionals.self_s": self_s["functionals"],
        "variational.iterations": iterations,
        "variational.trials": len(trials),
        "variational.self_s": self_s["variational"],
        "variational.reference_s": sum(s.duration for s in reference),
        "criterion.candidates": len(candidates),
        "criterion.self_s": self_s["criterion"],
        "criterion.level_s": sum(s.duration for s in level),
        "waves.self_s": self_s["waves"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_written": bytes_written,
    }
    out = {k: _ratio(v, n_ops) for k, v in totals.items()}
    out.update({
        "core.fft_per_step": _ratio(sum(s.fft_incl for s in steps), len(steps)),
        "core.fft_per_record": _ratio(sum(s.fft_incl for s in records), len(records)),
        "core.fft_per_iter": _ratio(sum(s.fft_incl for s in descents), iterations),
        "core.fft_per_candidate": _ratio(sum(s.fft_incl for s in searches), len(candidates)),
        "evolve.s_per_step": _ratio(sum(s.duration for s in integrates) - record_s, len(steps)),
        "variational.accept_ratio": _ratio(accepted, len(trials)),
        "criterion.hit_ratio": _ratio(sum(bool(s.info and s.info["hit"]) for s in searches),
                                     len(searches)),
    })
    table = {layer: [calls[layer] / n_ops, self_s[layer] / n_ops] for layer in LAYERS}
    table["core"][0] += fft_calls / n_ops
    table["core"][1] += fft_s / n_ops
    return out, table
