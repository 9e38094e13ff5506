"""Public surface of the package: every module imports and every name it
exports in ``__all__`` resolves, so deleting code cannot leave a stale
export behind; every entry point the benchmark's tracer patches exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import levycdo

MODULES = sorted(m.name for m in pkgutil.iter_modules(levycdo.__path__))


def test_package_modules_are_found():
    assert {"engine", "hjm", "loss", "market", "mc", "pricing"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"levycdo.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"duplicate in {name}.__all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"levycdo.{name}.__all__ lists undefined {missing}"


def _load_tracing():
    """``perfbench/tracing.py``, loaded by path under a private name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_patch_points_exist():
    """Every (owner, attribute) the benchmark's tracer patches is defined
    on its owner, so a rename fails here rather than in traced runs; the
    tracer installs and puts every original back."""
    tracing = _load_tracing()
    points = ([(o, a) for o, a, _, _ in tracing.SPAN_POINTS]
              + [(o, a) for o, a, _ in tracing.COUNT_POINTS])
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in points
               if a not in vars(o)]
    assert not missing, f"the tracer patches undefined {missing}"
    before = [vars(o)[a] for o, a in points]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(o)[a] is not fn for (o, a), fn in zip(points, before))
    finally:
        tracer.uninstall()
    assert all(vars(o)[a] is fn for (o, a), fn in zip(points, before))
