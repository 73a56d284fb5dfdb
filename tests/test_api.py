"""Public names: every ``__all__`` entry resolves, and every name the
benchmark tracer wraps exists, so a deletion that leaves a stale export or
a stale trace target fails here."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import mekit

SUBMODULES = [importlib.import_module(f"mekit.{m.name}")
              for m in pkgutil.iter_modules(mekit.__path__)]


@pytest.mark.parametrize("module", [mekit] + SUBMODULES,
                         ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"


def test_bench_tracer_installs_on_current_source():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    expm = mekit.matfun.expm
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mekit.matfun.expm is not expm
    finally:
        tracer.uninstall()
    assert mekit.matfun.expm is expm
