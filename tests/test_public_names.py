import importlib
import pkgutil

import chainscan
from chainscan import errors

ERROR_CLASSES = {"CapacityError", "ConvergenceError", "EstimationError", "ParseError"}


def _modules_with_all():
    names = [info.name for info in pkgutil.iter_modules(chainscan.__path__)
             if info.name != "__main__"]
    modules = [importlib.import_module(f"chainscan.{name}") for name in names]
    return [mod for mod in modules if hasattr(mod, "__all__")]


def test_public_names_resolve_and_package_exports_their_union():
    union = set()
    for mod in _modules_with_all():
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
        union.update(mod.__all__)
    assert ERROR_CLASSES <= set(vars(errors))
    assert len(chainscan.__all__) == len(set(chainscan.__all__))
    assert set(chainscan.__all__) == union | ERROR_CLASSES
    for name in chainscan.__all__:
        assert hasattr(chainscan, name), f"chainscan.__all__ names missing {name!r}"
