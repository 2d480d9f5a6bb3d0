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


def test_package_exports_each_library_module_names_once():
    # experiments and cli are imported by path; every other module is re-exported
    modules = [importlib.import_module(name) for name in MODULES if name not in ("specalign.cli", "specalign.experiments")]
    joined = [name for module in modules for name in module.__all__]
    assert sorted(specalign.__all__) == sorted(joined)
    assert len(set(joined)) == len(joined)
    for module in modules:
        assert all(getattr(specalign, name) is getattr(module, name) for name in module.__all__)
