import doctest
import importlib
import pkgutil

import pytest

import splitbound

MODULES = sorted(
    ["splitbound"]
    + [f"splitbound.{m.name}" for m in pkgutil.iter_modules(splitbound.__path__)]
)


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name
    if name == "splitbound.finabel":  # the module example and _canonical_chain's
        assert result.attempted == 5
