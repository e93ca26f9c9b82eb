"""Test isolation between the suites under ``tests/`` and ``bench/tests``.

The benchmark tests count the calls of one cold CLI run, so a cache that an
earlier test filled in the same process hides work they expect to see.
"""

import sys
from pathlib import Path
from types import ModuleType

BENCH = Path(__file__).resolve().parent / "bench"


def pytest_runtest_setup(item):
    """Before each test under ``bench/``, clear the ``functools`` caches of loaded crflat modules.

    A lazily registered module that has not run yet is still an instance of
    a ``ModuleType`` subclass, and reading any of its attributes would run
    it, so only plain modules are searched, and no module is read through.
    """
    if not item.path.is_relative_to(BENCH):
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("crflat.") and type(module) is ModuleType:
            for obj in vars(module).values():
                if not isinstance(obj, ModuleType) and hasattr(obj, "cache_clear"):
                    obj.cache_clear()
