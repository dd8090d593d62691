import importlib
import pkgutil

import pytest

import oscqgt

MODULES = ["oscqgt"] + [f"oscqgt.{info.name}" for info in pkgutil.iter_modules(oscqgt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name deleted from a module but left in its __all__ breaks `import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
