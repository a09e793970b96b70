"""The benchmark's trace mode patches package names by string; every one must still resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "gdnls"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _unpatched_dead_imports(source: str, module: str, patches) -> list[str]:
    """Names a `# noqa: F401` import brings into module that it never reads and the tracer never patches."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    patched = {attr for mod, attr, _ in patches if mod == module}
    dead = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.end_lineno - 1]:
            dead += [f"{module}.{name}" for alias in node.names
                     if (name := alias.asname or alias.name) not in read | patched]
    return dead


def test_every_traced_name_resolves():
    tracer = _tracer()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.PATCHES
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, missing
    from gdnls import evolve

    assert callable(evolve._Stepper.advance)


def test_every_unused_import_is_one_the_tracer_patches():
    # an import kept only for the tracer goes when its patch does
    patches = _tracer().PATCHES
    dead = [name for path in sorted(PACKAGE.glob("*.py"))
            for name in _unpatched_dead_imports(path.read_text(), f"gdnls.{path.stem}", patches)]
    assert not dead, dead
    source = "from .functionals import energy, mass  # noqa: F401\nx = mass\n"
    assert _unpatched_dead_imports(source, "gdnls.demo", patches) == ["gdnls.demo.energy"]
