"""Each benchmark workload runs its first seed-1 input through its own op and check, so a
change that breaks what the benchmark checks (trajectory length, candidates per miss,
the CLI's gate names) fails here, before a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass looks its module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_input_passes_the_workloads_check(name, tmp_path):
    wl = WORKLOADS[name]
    inp = wl.inputs(np.random.default_rng(1))[0]
    verdict = wl.check(inp, wl.op(inp, str(tmp_path)), str(tmp_path))
    assert verdict.ok, (verdict.error, verdict.inconsistent)
