import importlib
import pkgutil

import pytest

import specalign

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(specalign.__path__, "specalign.") if name != "specalign.__main__"
)


@pytest.mark.parametrize("module_name", ["specalign", *MODULES])
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []
