"""gdnls benchmark: four workloads in a closed loop, end-to-end or traced.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The package is imported from `src`; no
install is needed.  Each run starts fresh worker processes (bench/worker.py)
with single-threaded numpy: one client, one op at a time.

--trace 0 prints the end-to-end metrics (op_s_p50, ops_per_s, setup_s,
peak_rss_mb, fail_frac) with units and sample counts.  --trace 1 runs the
same ops with and without the span tracer and prints every per-layer metric,
a per-layer table and trace_overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when an output contradicts itself (an op failure counted in
fail_frac is not such a contradiction) and 2 when the package is missing.
Everything a run writes goes under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402  (no gdnls import at module level)

SETUPS = 3  # fresh-process set-ups per run; setup_s is their median
RUN_BUDGET_S = 170  # one workload's run must finish within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"op_s_p50": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_METRICS = (
    "core.fft_calls", "core.fft_s", "core.fft_per_step", "core.fft_per_record",
    "core.fft_per_iter", "core.fft_per_candidate", "evolve.steps", "evolve.s_per_step",
    "evolve.records", "evolve.diag_s", "evolve.invariance_s", "evolve.traj_bytes",
    "functionals.calls", "functionals.self_s", "variational.iterations", "variational.trials",
    "variational.accept_ratio", "variational.self_s", "variational.reference_s",
    "criterion.candidates", "criterion.self_s", "criterion.hit_ratio", "criterion.level_s",
    "waves.self_s", "cli.self_s", "cli.bytes_written",
)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name == "evolve.s_per_step":
        return "s"
    if name.endswith("_bytes") or name == "cli.bytes_written":
        return "bytes"
    if name.endswith(("_ratio", "_overhead")) or name.startswith("core.fft_per_"):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass



def worker(root: str, mode: str, name: str, seed: int, seconds: float, work_dir: str,
           deadline: float) -> tuple[dict, float]:
    """Run one fresh worker process; returns its result and its set-up seconds.

    The process is killed, and the run fails, if it is still running at the
    monotonic time `deadline`.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = dict(os.environ)
    env.pop("GDNLS_OUT", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                      env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), mode, name, str(seed), repr(seconds),
         work_dir],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(os.path.join(work_dir, "result.json")) as fh:
        doc = json.load(fh)
    return doc, doc["setup_done"] - t0


def provenance(root: str, name: str, seed: int, seconds: float, trace: int) -> dict:
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "gdnls")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "shape": WORKLOADS[name].shape,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {var: "1" for var in THREAD_VARS},
        "loop": "closed, one client, one process",
    }


def failure_summary(ops: list[dict]) -> str:
    kinds: dict[str, int] = {}
    for op in ops:
        if not op["ok"]:
            kinds[op["error"]] = kinds.get(op["error"], 0) + 1
    return ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items())) or "none"


def end_to_end(root: str, name: str, seed: int, seconds: float, work: str, deadline: float) -> dict:
    doc, setup_first = worker(root, "measure", name, seed, seconds, os.path.join(work, "measure"),
                              deadline)
    setups = [setup_first] + [
        worker(root, "setup", name, seed, 0, os.path.join(work, f"setup{i}"), deadline)[1]
        for i in range(1, SETUPS)
    ]
    ops = doc["ops"]
    passed = sum(op["ok"] for op in ops)
    # a failed op misses every latency limit
    latencies = [op["latency"] if op["ok"] else math.inf for op in ops]
    metrics = {
        "op_s_p50": statistics.median(latencies),
        "ops_per_s": passed / doc["loop_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    samples = {"op_s_p50": len(ops), "ops_per_s": len(ops), "setup_s": len(setups),
               "peak_rss_mb": 1}
    return {"ops": ops, "metrics": metrics, "samples": samples, "setups": setups,
            "fail_frac": (len(ops) - passed) / len(ops), "loop_s": doc["loop_s"],
            "probes": doc["probes"]}


def traced(root: str, name: str, seed: int, seconds: float, work: str, deadline: float) -> dict:
    doc, _ = worker(root, "trace", name, seed, seconds, os.path.join(work, "trace"), deadline)
    metrics = {k: doc["layers"][k] for k in LAYER_METRICS}
    metrics["trace_overhead"] = doc["trace_overhead"]
    return {"ops": doc["ops"], "metrics": metrics, "table": doc["table"], "op_s": doc["op_s"],
            "pairs": doc["pairs"], "repeat_mismatch": doc["repeat_mismatch"]}


def report_end_to_end(res: dict) -> None:
    m, n = res["metrics"], res["samples"]
    print(f"  {'metric':<14}{'value':>12}  {'unit':<6}{'samples':>8}")
    for key, unit in END_TO_END_UNITS.items():
        print(f"  {key:<14}{m[key]:>12.4f}  {unit:<6}{n[key]:>8}")
    print(f"  {'fail_frac':<14}{res['fail_frac']:>12.4f}  {'1':<6}{len(res['ops']):>8}"
          f"   failures: {failure_summary(res['ops'])}")
    for label, outcome in res["probes"].items():
        print(f"  known-defect probe (untimed, not an op): {label} -> {outcome}")


def report_traced(res: dict) -> None:
    for key, value in res["metrics"].items():
        print(f"  {key:<26}{value:>16.6g}  {unit_of(key)}")
    op_s = res["op_s"]
    print(f"  per op ({op_s:.3f} s traced; {res['pairs']} traced/untraced pairs):")
    print(f"  {'layer':<12}{'calls':>12}{'self s':>12}{'share':>9}")
    for layer, (calls, self_s) in res["table"].items():
        print(f"  {layer:<12}{calls:>12.1f}{self_s:>12.4f}{self_s / op_s:>9.1%}")
    if res["repeat_mismatch"]:
        print(f"  counts did not repeat on input 0: {res['repeat_mismatch']}")


def run_workload(root: str, name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    out_root = os.path.join(root, ".bench_out")
    work = os.path.join(out_root, f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    try:
        res = (traced if trace else end_to_end)(root, name, seed, seconds, work, deadline)
        if trace:
            shutil.copy(os.path.join(work, "trace", "spans.jsonl"),
                        os.path.join(out_root, f"spans-{name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [op["inconsistent"] for op in res["ops"] if op["inconsistent"]]
    if trace and res["repeat_mismatch"]:
        problems.append(f"counts did not repeat: {res['repeat_mismatch']}")
    res["problems"] = problems
    res["provenance"] = provenance(root, name, seed, seconds, trace)
    with open(os.path.join(out_root, f"result-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(res, fh, indent=1, default=float)

    p = res["provenance"]
    shape = " ".join(f"{k}={v}" for k, v in p["shape"].items())
    print(f"{name}  seed={seed}  {shape}")
    print(f"  python {p['python']}, numpy {p['numpy']}, scipy {p['scipy']}, nproc {p['nproc']}, "
          f"{p['cpu']}, commit {p['commit'][:12]}, src {p['src_sha256'][:12]}")
    (report_traced if trace else report_end_to_end)(res)
    for msg in problems:
        print(f"  WRONG OUTPUT: {msg}")
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gdnls", "__init__.py")):
        print(f"no gdnls package under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    # byte-compile once, so that set-up times the import and not the compiler
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = not any(res["problems"] for res in results.values())
    attempted = sum(len(res["ops"]) for res in results.values())
    failed = sum(not op["ok"] for res in results.values() for op in res["ops"])
    metrics = {key if len(results) == 1 else f"{name}/{key}": {"value": value, "unit": unit_of(key)}
               for name, res in results.items() for key, value in res["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
