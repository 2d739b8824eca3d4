"""Kernel selection fixtures, shared by every test that runs on both kernels."""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

from pinvperturb import backends

from helpers import NO_COMPILED

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "pinvperturb" / "_jacobi.c"


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The built kernel, else ``_jacobi.c`` compiled here with ``cc``; None without either."""
    if backends._jacobi is not None or shutil.which("cc") is None:
        return backends._jacobi
    lib = tmp_path_factory.mktemp("kernel") / "_jacobi.so"
    cmd = ["cc", "-O3", "-shared", "-fPIC", "-std=c99", "-o", str(lib), str(KERNEL_SOURCE)]
    subprocess.run(cmd, check=True)
    return backends.load_compiled(lib)


@pytest.fixture
def kernels(monkeypatch, compiled_kernel):
    """Backend names loadable in the test, the compiled one from ``compiled_kernel``."""
    monkeypatch.setattr(backends, "_jacobi", compiled_kernel)
    return backends.available_backends()


@pytest.fixture
def backend(request, kernels, monkeypatch):
    """Select the kernel named by the (indirect) parameter for the whole test."""
    if request.param not in kernels:
        pytest.skip(NO_COMPILED)
    monkeypatch.setenv("PINVPERTURB_BACKEND", request.param)
    return request.param
