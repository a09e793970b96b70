"""The benchmark's trace mode patches package names by string; every one must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.PATCHES
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, missing
    from gdnls import evolve

    assert callable(evolve._Stepper.advance)
