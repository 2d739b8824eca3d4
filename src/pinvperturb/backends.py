"""Kernel backend selection.

One kernel serves every SVD in a process, so the two factorizations of a
pair and every norm read from them come from the same arithmetic.  The
compiled kernel, ``_jacobi.c`` built at install into ``_jacobi<EXT_SUFFIX>``
next to this module and opened with ctypes, is preferred when present;
nothing is compiled at import.  The numpy twin is always available.
``PINVPERTURB_BACKEND`` (``compiled`` or ``python``) forces a choice and is
the only way to make one; any other value is rejected.  When the library is
missing or fails to load, the error is kept in ``compiled_load_error`` and
the numpy twin is used without a message.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import os
import sys
import types
from pathlib import Path

import numpy as np

from . import _jacobi_py


def load_compiled(path):
    """Open a built ``_jacobi.c`` as a kernel module with ``orthogonalize_columns``."""
    fn = ctypes.CDLL(str(path)).orthogonalize_columns
    # a float64, C-ordered or read-only matrix is rejected before the C call
    matrix = np.ctypeslib.ndpointer(np.complex128, ndim=2, flags=("F_CONTIGUOUS", "WRITEABLE"))
    fn.argtypes = [matrix, matrix] + [ctypes.c_ssize_t] * 3 + [ctypes.c_double, ctypes.c_int]
    fn.restype = ctypes.c_int

    def orthogonalize_columns(w, v, eps, max_sweeps, counts=None):
        """The C loop of ``_jacobi_py.orthogonalize_columns``, run on each matrix of a stack."""
        if np.shape(v)[:-2] + np.shape(v)[-1:] != np.shape(w)[:-2] + np.shape(w)[-1:]:
            raise ValueError(f"rotation accumulator of shape {np.shape(v)} does not fit {np.shape(w)}")
        m, n = w.shape[-2:]
        pairs = zip(w, v) if w.ndim == 3 else [(w, v)]
        sweeps = np.array([fn(wi, vi, m, n, v.shape[-2], eps, max_sweeps) for wi, vi in pairs])
        return _jacobi_py.sweep_summary(sweeps, counts)

    kernel = types.ModuleType(f"{__package__}._jacobi")
    kernel.__file__ = str(path)
    kernel.orthogonalize_columns = orthogonalize_columns
    return kernel


# the EXT_SUFFIX setuptools builds with, read without importing sysconfig
_LIBRARY = Path(__file__).with_name("_jacobi" + importlib.machinery.EXTENSION_SUFFIXES[0])
try:
    _jacobi = load_compiled(_LIBRARY)
except (OSError, AttributeError) as exc:  # not built, or not a kernel library
    _jacobi = None
    # kept so that a missing or broken build can say why it is unavailable
    compiled_load_error = exc
else:
    compiled_load_error = None
    # listed like an imported module, so tools that walk sys.modules find the kernel
    sys.modules[_jacobi.__name__] = _jacobi


def available_backends():
    """Kernel names loadable in this process, preferred first."""
    return ["compiled", "python"] if _jacobi is not None else ["python"]


def default_backend():
    """The process's backend: ``PINVPERTURB_BACKEND`` if set, else the preferred one."""
    forced = os.environ.get("PINVPERTURB_BACKEND")
    if forced:
        if forced not in ("compiled", "python"):
            raise ValueError(
                f"PINVPERTURB_BACKEND={forced!r} is not a backend, expected 'compiled' or 'python'"
            )
        return forced
    return "compiled" if _jacobi is not None else "python"


def get_kernel(backend=None):
    """Resolve a backend name, by default the process's, to its kernel module."""
    name = backend if backend is not None else default_backend()
    if name == "compiled":
        if _jacobi is None:
            raise RuntimeError(
                f"compiled kernel requested but not available: {compiled_load_error}"
            ) from compiled_load_error
        return _jacobi
    if name == "python":
        return _jacobi_py
    raise ValueError(f"unknown backend {name!r}, expected 'compiled' or 'python'")
