"""Kernel backend selection.

One kernel serves every SVD in a process, so the two factorizations of a
pair and every norm read from them come from the same arithmetic.  The
spectral norms of e and b+ - a+ (``core.spectral_norm``) take no kernel,
so their bits do not depend on it.  The
compiled kernel, ``_jacobi.c`` built at install into ``_jacobi<EXT_SUFFIX>``
next to this module and opened with ctypes, is preferred when present;
nothing is compiled at import.  Both kernels take the same stack layout and
factor a whole stack in one call, of float64 or of complex128, the two
dtypes of ``core``'s one dtype rule: the numpy kernel by the dtype of its
arrays, and the C kernel through the variant of the library built for that
dtype, ``orthogonalize_rounds_real`` or ``orthogonalize_rounds_complex``.
A library without both does not load.  The numpy twin is always available.
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
    """Open a built ``_jacobi.c`` as a kernel module with ``orthogonalize_columns``.

    Its ``orthogonalize_columns`` runs the library's variant for the dtype of
    ``w``, float64 or complex128.
    """
    lib = ctypes.CDLL(str(path))
    indices = np.ctypeslib.ndpointer(np.intp, ndim=3, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.intc, flags=("C_CONTIGUOUS", "WRITEABLE"))
    variants = {}
    for field, dtype in (("real", np.float64), ("complex", np.complex128)):
        fn = getattr(lib, f"orthogonalize_rounds_{field}")
        # an array of another dtype, non-C-contiguous or read-only is rejected
        # before the C call; a matrix and a stack pass alike, so nothing is
        # reshaped into a copy that would take the rotations in place of the
        # caller's array
        stack = np.ctypeslib.ndpointer(dtype, flags=("C_CONTIGUOUS", "WRITEABLE"))
        fn.argtypes = [stack, stack] + [ctypes.c_ssize_t] * 6 + [indices, ctypes.c_double, ctypes.c_int, ints]
        fn.restype = None
        variants[np.dtype(dtype)] = fn

    def orthogonalize_columns(w, v, eps, max_sweeps, counts=None):
        """The C loop of ``_jacobi_py.orthogonalize_columns``, one call for a whole stack."""
        if np.shape(v)[:-1] != np.shape(w)[:-1]:
            raise ValueError(f"rotation accumulator of shape {np.shape(v)} does not fit {np.shape(w)}")
        # a w of any other dtype meets the complex variant's check
        fn = variants.get(w.dtype, variants[np.dtype(np.complex128)])
        n, m = w.shape[-2:]
        schedule = _jacobi_py.round_robin(n)
        rounds, _, pairs = schedule.shape
        sweeps = np.empty(w.shape[:-2], dtype=np.intc)
        fn(w, v, sweeps.size, m, n, v.shape[-1], rounds, pairs, schedule, eps, max_sweeps, sweeps)
        return _jacobi_py.sweep_summary(sweeps, counts)

    kernel = types.ModuleType(f"{__package__}._jacobi")
    kernel.__file__ = str(path)
    kernel.orthogonalize_columns = orthogonalize_columns
    return kernel


# the EXT_SUFFIX setuptools builds with, read without importing sysconfig
_LIBRARY = Path(__file__).with_name("_jacobi" + importlib.machinery.EXTENSION_SUFFIXES[0])
try:
    _jacobi = load_compiled(_LIBRARY)
except (OSError, AttributeError) as exc:  # not built, or without both entry points
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
