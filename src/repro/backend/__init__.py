"""Fidelity-switchable communication backends (see :mod:`.base`).

>>> from repro.backend import resolve_backend
>>> resolve_backend("analytic").gsum_time(16)  # doctest: +SKIP
"""

from .analytic import AnalyticBackend
from .base import (
    BACKEND_NAMES,
    BACKENDS,
    CommBackend,
    register_backend,
    resolve_backend,
)
from .crossval import format_report, run_crossval
from .des import DESBackend
from .hybrid import HybridBackend
from .sweep import format_sweep, large_sweep, sweep_point

__all__ = [
    "AnalyticBackend",
    "BACKEND_NAMES",
    "BACKENDS",
    "CommBackend",
    "DESBackend",
    "HybridBackend",
    "format_report",
    "format_sweep",
    "large_sweep",
    "register_backend",
    "resolve_backend",
    "run_crossval",
    "sweep_point",
]
