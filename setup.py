"""Build script for the optional compiled Jacobi kernel.

``_jacobi.c`` is plain C99 with no Python API; ``backends`` opens the built
library with ctypes.  Without it the numpy twin is used, so a failed build,
as with no C compiler, only costs speed.
"""

from setuptools import Extension, setup

kernel = Extension("pinvperturb._jacobi", ["src/pinvperturb/_jacobi.c"], extra_compile_args=["-O3"], optional=True)
setup(ext_modules=[kernel])
