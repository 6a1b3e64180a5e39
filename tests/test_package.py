import importlib
import pkgutil

import medlink


def test_submodules_are_not_shadowed_by_package_exports():
    for info in pkgutil.iter_modules(medlink.__path__):
        module = importlib.import_module(f"medlink.{info.name}")
        assert getattr(medlink, info.name) is module, info.name
