"""Every name an otmlab module lists in its __all__ exists in that module, so
a rename or removal cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import otmlab

MODULES = ["otmlab"] + sorted(
    info.name for info in pkgutil.iter_modules(otmlab.__path__, "otmlab.")
)


def test_every_module_is_found():
    assert {"otmlab.machine", "otmlab.cli", "otmlab.reductions"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it does not define"
