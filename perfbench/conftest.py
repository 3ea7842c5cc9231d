"""Test set-up for the benchmark's own tests (``python3 -m pytest perfbench``).

They import the benchmark's modules and the library from this checkout.
A collection that does not name this directory — the library's suite,
``python -m pytest`` from the repository root — skips them.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _named(config) -> bool:
    for arg in config.args:
        path = Path(config.invocation_params.dir, arg.split("::")[0]).resolve()
        if path == BENCH or BENCH in path.parents:
            return True
    return False


def pytest_configure(config):
    if _named(config):
        for path in (str(BENCH.parent / "src"), str(BENCH)):
            if path not in sys.path:
                sys.path.insert(0, path)


def pytest_ignore_collect(collection_path, config):
    if collection_path.parent == BENCH and not _named(config):
        return True
    return None
