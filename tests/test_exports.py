"""Every name that the package or one of its modules exports is defined there."""

import importlib
import pkgutil

import pytest

import expcomposite

# __main__ is the `python -m expcomposite` entry point and exports nothing
MODULES = ["expcomposite"] + [
    f"expcomposite.{info.name}"
    for info in pkgutil.iter_modules(expcomposite.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
