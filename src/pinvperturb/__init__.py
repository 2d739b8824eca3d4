"""Moore-Penrose inverses via one-sided Jacobi SVD, plus a family of upper
and lower perturbation bounds on the squared Frobenius deviation between the
pseudoinverses of two matrices.

The SVD kernel has a C implementation, built at install and loaded with
ctypes, and a pure numpy one; one of them serves the whole process; see
``backends``.  ``geometry`` carries the exact
deviation identities, ``bounds`` the estimator family, ``suite`` the
randomized property harness, and ``sweeps`` two closed-form parameter
studies.

The records are ``typing.NamedTuple``s: ``SvdFactors``, ``ProductNorms``
(from the functional form, since its fields are built from a table),
``BoundValue``, ``Estimator``, ``BoundReport``, ``EnsembleSpec``,
``SweepSpec`` and ``SweepResult``.  They unpack and compare like tuples,
assigning to a field is an AttributeError, and ``_replace`` gives a changed
copy, checked as the constructor checks on ``EnsembleSpec`` and
``SweepSpec``.  ``PerturbationPair`` is a plain read-only class.  No module
imports ``dataclasses``, whose classes compile their methods at import, a
cost that every process would pay.
"""

from .backends import available_backends, default_backend
from .bounds import (
    BoundReport,
    BoundValue,
    envelope_ok,
    evaluate_all,
    full_report,
    norm_bounds_ok,
    report_csv,
    report_table,
)
from .core import (
    ShapeError,
    SvdFactors,
    as_matrix,
    default_cutoff,
    jacobi_svd,
    lstsq_min_norm,
    penrose_residuals,
    pinv,
    spectral_norm,
    svd_factors,
)
from .geometry import (
    PerturbationPair,
    ProductNorms,
    deviation_spectral,
    deviation_sq,
    make_pair,
    von_neumann_sum,
)
from .matrixio import MatrixFormatError, dumps, load, loads
from .randmat import EnsembleSpec, gen_fixed_rank, gen_pair, haar_frame, haar_unitary
from .suite import run_property_suite
from .sweeps import SweepSpec, sweep_csv, sweep_example

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundValue",
    "EnsembleSpec",
    "MatrixFormatError",
    "PerturbationPair",
    "ProductNorms",
    "ShapeError",
    "SvdFactors",
    "SweepSpec",
    "__version__",
    "as_matrix",
    "available_backends",
    "default_backend",
    "default_cutoff",
    "deviation_spectral",
    "deviation_sq",
    "dumps",
    "envelope_ok",
    "evaluate_all",
    "full_report",
    "gen_fixed_rank",
    "gen_pair",
    "haar_frame",
    "haar_unitary",
    "jacobi_svd",
    "load",
    "loads",
    "lstsq_min_norm",
    "make_pair",
    "norm_bounds_ok",
    "penrose_residuals",
    "pinv",
    "report_csv",
    "report_table",
    "run_property_suite",
    "spectral_norm",
    "svd_factors",
    "sweep_csv",
    "sweep_example",
    "von_neumann_sum",
]
