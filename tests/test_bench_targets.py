"""The benchmark's tracer wraps functions named by (module, attribute path)
in ``bench/tracing.py``; a rename in ``src/`` must not leave one of them
pointing at nothing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TARGETS = [pytest.param(mod, path, id=name) for name, (mod, path) in tracing.TIMED.items()] + [
    pytest.param(mod, path, id=f"{name}:{path}")
    for name, (mod, paths) in tracing.COUNTED.items()
    for path in paths
]


@pytest.mark.parametrize("modname,path", TARGETS)
def test_trace_target_resolves(modname, path):
    obj = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{tracing.PACKAGE}.{modname} has no {path}"
        obj = getattr(obj, attr)
    assert callable(obj)
