"""One benchmark process: set up a workload, then run its ops in a closed loop.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS WORK_DIR

run.py starts it with `src` on PYTHONPATH and writes nothing else into
WORK_DIR.  Set-up is everything a fresh process does before it can serve:
`import gdnls`, drawing the inputs from SEED and one untimed warm-up op, which
fills the package's lru caches and the Grid cached properties.  The worker
stamps `time.monotonic()` when set-up ends, so run.py can time set-up from
the moment it started the process.

MODE is one of
  setup    set up, then exit;
  measure  set up, then run ops untraced for SECONDS (the end-to-end run);
  trace    set up, then run untraced and traced ops in pairs for SECONDS.
The result is written to WORK_DIR/result.json.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import warnings

COUNT_KEYS = ("core.fft_calls", "core.fft_per_step", "core.fft_per_record", "core.fft_per_iter",
              "core.fft_per_candidate", "evolve.steps", "evolve.records", "functionals.calls",
              "variational.iterations", "variational.trials", "criterion.candidates")
COUNTED_OPS = 2  # traced ops whose layer figures are reported, so counts repeat for a seed


def run_one(wl, inp, out_dir: str, runner=None) -> dict:
    """Time one op, then check it; an exception is a failed op, never an abort."""
    from workloads import Check, out_bytes

    start = time.perf_counter()
    try:
        result = runner(wl.op, inp, out_dir) if runner else wl.op(inp, out_dir)
    except Exception as exc:  # the op boundary: record the type and go on
        latency = time.perf_counter() - start
        verdict = Check(False, f"raise:{type(exc).__name__}")
    else:
        latency = time.perf_counter() - start
        try:
            verdict = wl.check(inp, result, out_dir)
        except Exception as exc:
            verdict = Check(False, f"checkraise:{type(exc).__name__}",
                            f"check raised {type(exc).__name__}: {exc}")
        del result  # a certified-run trajectory holds about 32 MB
    return {"latency": latency, "ok": verdict.ok, "error": verdict.error,
            "inconsistent": verdict.inconsistent, "bytes": out_bytes(out_dir)}


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, work_dir = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4]
    import numpy as np

    import gdnls  # noqa: F401  (the package import is part of set-up)
    from workloads import WORKLOADS

    warnings.simplefilter("ignore")
    wl = WORKLOADS[name]
    inputs = wl.inputs(np.random.default_rng(seed))
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    run_one(wl, inputs[0], out_dir)
    doc: dict = {"setup_done": time.monotonic()}

    if mode == "measure":
        ops = []
        start = time.perf_counter()
        while True:
            ops.append(run_one(wl, inputs[len(ops) % len(inputs)], out_dir))
            if time.perf_counter() - start >= seconds:
                break
        doc["loop_s"] = time.perf_counter() - start
        doc["ops"] = ops
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        doc["probes"] = wl.probes() if hasattr(wl, "probes") else {}
    elif mode == "trace":
        doc.update(trace(wl, inputs, out_dir, seconds, work_dir))
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump(doc, fh)
    return 0


def trace(wl, inputs, out_dir: str, seconds: float, work_dir: str) -> dict:
    """Untraced and traced ops in pairs on the same inputs.

    The first traced op repeats input 0, which the warm-up also ran, so the
    traced op on input 0 inside the loop starts from the same cache state and
    must give the same counts.  Layer figures cover the first COUNTED_OPS
    traced ops of the loop; trace_overhead uses every pair.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    first = run_one(wl, inputs[0], out_dir, tracer.run_op)
    ops, untraced, traced, traced_ids = [first], [], [], []
    start = time.perf_counter()
    i = 0
    while i < COUNTED_OPS or time.perf_counter() - start < seconds:
        inp = inputs[i % len(inputs)]
        plain = run_one(wl, inp, out_dir)
        tr = run_one(wl, inp, out_dir, tracer.run_op)
        ops += [plain, tr]
        untraced.append(plain)
        traced.append(tr)
        traced_ids.append(tracer.op)
        i += 1
    counted = set(traced_ids[:COUNTED_OPS])
    tracer.dump(os.path.join(work_dir, "spans.jsonl"), counted | {0})
    written = sum(op["bytes"] for op in traced[:COUNTED_OPS])
    layers, table = layer_metrics(tracer, counted, written)
    repeat_a, _ = layer_metrics(tracer, {0}, 0)
    repeat_b, _ = layer_metrics(tracer, {traced_ids[0]}, 0)
    mismatch = {k: [repeat_a[k], repeat_b[k]] for k in COUNT_KEYS if repeat_a[k] != repeat_b[k]}

    def p50(rows):
        return statistics.median(r["latency"] for r in rows)

    counted_ops = traced[:COUNTED_OPS]
    return {
        "ops": ops,
        "layers": layers,
        "table": table,
        "op_s": statistics.mean(r["latency"] for r in counted_ops),
        "trace_overhead": p50(traced) / p50(untraced),
        "pairs": i,
        "repeat_mismatch": mismatch,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
