"""The numpy gate of the ``shard`` engine (the optional ``[fleet]`` extra).

Lazy: importing this module never imports numpy.
"""
# Kept under this module path only because benchmarks/ledger/test_ledger.py,
# which this change may not touch, imports HAVE_NUMPY from here.

from __future__ import annotations

import importlib.util

from repro.errors import ConfigError

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def require_numpy():
    """Import and return numpy, or raise a ConfigError naming ``[fleet]``."""
    try:
        import numpy
    except ImportError:
        raise ConfigError(
            "the shard engine needs numpy, which is the optional [fleet] "
            "extra of this package — install it with `pip install "
            "'repro[fleet]'` (or `pip install numpy`), or run with "
            "engine=\"fast\" instead") from None
    return numpy
