"""Every name a package lists in ``__all__`` resolves on that package."""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.brb",
    "repro.network",
    "repro.network.simulation",
    "repro.topology",
    "repro.paths",
    "repro.lint",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert exported, f"{name}.__all__ is empty"
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
