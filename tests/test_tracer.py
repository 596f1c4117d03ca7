"""The benchmark's per-layer tracer still fits the package.

`perfbench/tracer.py` patches otmlab functions by name; a renamed or moved
function must fail here, not only under `perfbench/run.py --trace 1`.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402


def _patched_places():
    """(owner, attribute) of every place the tracer replaces."""
    for _, module_name, _ in tracer.TRACED:
        importlib.import_module(module_name)
    modules = [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "otmlab" or n.startswith("otmlab."))
    ]
    places = []
    for _, module_name, path in tracer.TRACED:
        home = sys.modules[module_name]
        if path.startswith("Relation."):
            field = path.split(".")[1]
            places += [(r, field) for r in home.PRINCIPLES.values()]
        elif "." in path:
            cls_name, attr = path.split(".")
            places.append((getattr(home, cls_name), attr))
        else:
            original = getattr(home, path)
            places += [
                (m, attr)
                for m in modules
                for attr, value in vars(m).items()
                if value is original
            ]
    return places


def test_install_wraps_every_target_and_restore_puts_it_back():
    places = _patched_places()
    before = [getattr(owner, attr) for owner, attr in places]
    t = tracer.Tracer()
    try:
        t.install()
        during = [getattr(owner, attr) for owner, attr in places]
    finally:
        t.restore()
    after = [getattr(owner, attr) for owner, attr in places]
    for (owner, attr), old, new in zip(places, before, during):
        assert new != old, f"{owner!r}.{attr} was not wrapped"
    assert after == before
