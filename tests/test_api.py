"""Public surface of the package: every module imports and every name it
exports in ``__all__`` resolves, so deleting code cannot leave a stale
export behind."""

import importlib
import pkgutil

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
