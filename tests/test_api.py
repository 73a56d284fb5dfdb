"""Public names: every ``__all__`` entry resolves, and every name the
benchmark tracer wraps exists, so a deletion that leaves a stale export or
a stale trace target fails here."""

import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import mekit

from conftest import run_fresh

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
        assert mekit.expm is mekit.matfun.expm
    finally:
        tracer.uninstall()
    assert mekit.matfun.expm is expm and mekit.expm is expm


def test_bare_import_resolves_every_name():
    """After a bare ``import mekit`` every ``__all__`` name and every
    submodule resolves on first use, ``dir(mekit)`` lists them, and each
    name is the object its module defines."""
    code = ("import json, pkgutil, sys, mekit\n"
            "mods = [m.name for m in pkgutil.iter_modules(mekit.__path__)]\n"
            "out = {'mods': [getattr(mekit, m).__name__ for m in mods],\n"
            "       'same': [getattr(mekit, n) is getattr(\n"
            "                    sys.modules[getattr(mekit, n).__module__], n)\n"
            "                for n in mekit.__all__],\n"
            "       'dir': sorted(set(mekit.__all__ + mods) - set(dir(mekit)))}\n"
            "print(json.dumps(out))")
    out = json.loads(run_fresh(code))
    assert out["mods"] == [m.__name__ for m in SUBMODULES]
    assert all(out["same"]) and len(out["same"]) == len(mekit.__all__)
    assert out["dir"] == []


def test_medist_loads_without_the_algebra():
    """The closure assembler ``medist._chain`` lives below ``algebra``,
    which imports ``medist``: a fresh ``import mekit.medist`` loads no
    ``mekit.algebra``."""
    code = ("import sys, mekit.medist\n"
            "print(sorted(m for m in sys.modules if m.startswith('mekit')))")
    loaded = run_fresh(code)
    assert "'mekit.medist'" in loaded and "mekit.algebra" not in loaded
