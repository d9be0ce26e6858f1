"""The public surface: every exported name resolves, and the package
re-exports every name a submodule exports."""

import importlib
import pkgutil

import updown


def test_every_exported_name_resolves():
    mods = [updown] + [importlib.import_module(f"updown.{m.name}")
                       for m in pkgutil.iter_modules(updown.__path__)]
    assert updown.__all__
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name} does not resolve"
            assert name in updown.__all__, f"{mod.__name__}.{name} is not re-exported"
