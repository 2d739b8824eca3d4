"""Kernel backend selection.

One kernel serves every SVD in a process, so the two factorizations of a
pair and every norm read from them come from the same arithmetic.  The
compiled extension is preferred when built; the numpy twin is always
available.  ``PINVPERTURB_BACKEND`` (``compiled`` or ``python``) forces a
choice and is the only way to make one; any other value is rejected.  When
the extension fails to import, the error is kept in ``compiled_import_error``
and the numpy twin is used without a message.
"""

from __future__ import annotations

import importlib
import os

from . import _jacobi_py

try:
    # not ``from . import``: that reports a missing module as a circular import
    _jacobi_cy = importlib.import_module("._jacobi_cy", __package__)
except ImportError as exc:
    _jacobi_cy = None
    # kept so that a missing or broken build can say why it is unavailable
    compiled_import_error = exc
else:
    compiled_import_error = None


def available_backends():
    """Kernel names importable in this process, preferred first."""
    names = []
    if _jacobi_cy is not None:
        names.append("compiled")
    names.append("python")
    return names


def default_backend():
    """The process's backend: ``PINVPERTURB_BACKEND`` if set, else the preferred one."""
    forced = os.environ.get("PINVPERTURB_BACKEND")
    if forced:
        if forced not in ("compiled", "python"):
            raise ValueError(
                f"PINVPERTURB_BACKEND={forced!r} is not a backend, expected 'compiled' or 'python'"
            )
        return forced
    return "compiled" if _jacobi_cy is not None else "python"


def get_kernel(backend=None):
    """Resolve a backend name, by default the process's, to its kernel module."""
    name = backend if backend is not None else default_backend()
    if name == "compiled":
        if _jacobi_cy is None:
            raise RuntimeError(
                f"compiled kernel requested but the extension is not available: {compiled_import_error}"
            ) from compiled_import_error
        return _jacobi_cy
    if name == "python":
        return _jacobi_py
    raise ValueError(f"unknown backend {name!r}, expected 'compiled' or 'python'")
