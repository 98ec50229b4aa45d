import importlib
import pkgutil

import seacurves


def test_every_export_resolves():
    """A name left in __all__ after its definition is deleted breaks
    ``from module import *``; every export must be an attribute."""
    names = ["seacurves"] + [m.name for m in pkgutil.walk_packages(seacurves.__path__,
                                                                   "seacurves.")]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            missing[name] = [a for a in module.__all__ if not hasattr(module, a)]
    assert {"seacurves.catalog", "seacurves.curves", "seacurves.cli"} <= missing.keys()
    assert all(not attrs for attrs in missing.values()), missing
