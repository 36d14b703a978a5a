"""Every ``functools`` cache of the package is bounded: it has a finite
``maxsize``, or it wraps a function of no parameters, which has one entry.

The test walks the package's modules and their classes and names the caches
it expects, so a new cache is seen here and an unbounded one fails.
"""

import importlib
import inspect
import pkgutil

import doubleline

EXPECTED = {"cli.build_parser", "cli._node_pool", "forms._monomial_table", "forms.line_frame"}


def _caches() -> dict[str, object]:
    found = {}
    for info in pkgutil.iter_modules(doubleline.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"doubleline.{info.name}")
        owners = [(info.name, module)]
        owners += [(f"{info.name}.{name}", cls) for name, cls in vars(module).items() if inspect.isclass(cls)]
        for prefix, owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                    found[f"{prefix}.{name}"] = obj
    return found


def test_every_cache_is_bounded():
    caches = _caches()
    assert caches.keys() == EXPECTED
    for name, cache in caches.items():
        maxsize = cache.cache_parameters()["maxsize"]
        params = inspect.signature(cache.__wrapped__).parameters
        assert maxsize is not None or not params, name
