"""Pluggable compute backends for the autodiff/engine hot kernels.

``repro.autodiff`` delegates its dense inner kernels -- the im2col
contraction (and backward scatter + gradient GEMMs) behind every
convolution, the ``Linear`` forward/backward matmuls, and batch-norm
statistics/normalization -- to the process-wide active backend:

- ``numpy`` (default): the exact op sequence the repo has always run --
  byte-identical to every golden snapshot and engine digest;
- ``fast``: overrides only the kernels where a fused float32 GEMM measured
  faster than the reference (see :mod:`repro.backend.fast`) -- only
  tolerance-equal, so it is opt-in and excluded from byte-identity tests.

Selection: the ``REPRO_BACKEND`` environment variable at first use (sweep
worker processes inherit it), or :func:`set_backend` programmatically.  The
CLI's ``--backend`` flag exports the environment variable so child
processes agree with the parent.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Type

from repro.backend.base import Backend
from repro.backend.fast import FastBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.errors import BackendError

__all__ = [
    "Backend",
    "BackendError",
    "FastBackend",
    "NumpyBackend",
    "available_backends",
    "backend_name",
    "current_backend",
    "reset_backend",
    "set_backend",
]

_REGISTRY: Dict[str, Type[Backend]] = {
    NumpyBackend.name: NumpyBackend,
    FastBackend.name: FastBackend,
}

_active: Optional[Backend] = None


def available_backends() -> List[str]:
    """Names accepted by :func:`set_backend` and ``REPRO_BACKEND``."""
    return sorted(_REGISTRY)


def set_backend(name: str) -> Backend:
    """Activate a backend by name process-wide."""
    global _active
    backend_cls = _REGISTRY.get(name)
    if backend_cls is None:
        raise BackendError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    _active = backend_cls()
    return _active


def current_backend() -> Backend:
    """The active backend, resolving ``REPRO_BACKEND`` on first use."""
    global _active
    if _active is None:
        set_backend(os.environ.get("REPRO_BACKEND", NumpyBackend.name))
    return _active


def backend_name() -> str:
    return current_backend().name


def reset_backend() -> None:
    """Drop the active backend so the next use re-reads ``REPRO_BACKEND``."""
    global _active
    _active = None
