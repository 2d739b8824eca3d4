"""Parameter sweeps over two diagonal rank-jump cases with known closed forms.

Both cases live on the open parameter interval (1/10, 1/2).  Case 1 tracks
the upper estimators against an exact deviation of 4 t^2 + 1/t^2; case 2
tracks the lower estimators against 5 / (4 t^2).  Sweep output holds, per
estimator, the computed value, the closed-form value and their absolute
difference, so drift is visible in the file itself.  A sweep is one stack
of pairs, one per grid point, on which it evaluates only the rows it
writes: the exact deviation and each tracked estimator, not the whole
report.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bounds import ESTIMATOR_BY_NAME
from .core import check_integer, check_real
from .geometry import deviation_sq, make_pair
from .matrixio import format_floats

TAU_OPEN_MIN = 0.1
TAU_OPEN_MAX = 0.5
DEFAULT_TAU_MIN = 0.101
DEFAULT_TAU_MAX = 0.49
DEFAULT_STEPS = 401


class _SweepFields(NamedTuple):
    example: int
    tau_min: float = DEFAULT_TAU_MIN
    tau_max: float = DEFAULT_TAU_MAX
    steps: int = DEFAULT_STEPS


class SweepSpec(_SweepFields):
    """One case's grid of ``steps`` parameters, checked on every construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        check_integer("example", spec.example)
        if spec.example not in (1, 2):
            raise ValueError(f"example must be 1 or 2, got {spec.example}")
        check_real("tau_min", spec.tau_min)
        check_real("tau_max", spec.tau_max)
        if not (TAU_OPEN_MIN < spec.tau_min <= spec.tau_max < TAU_OPEN_MAX):
            raise ValueError(
                f"need {TAU_OPEN_MIN} < tau_min <= tau_max < {TAU_OPEN_MAX}, "
                f"got [{spec.tau_min}, {spec.tau_max}]"
            )
        check_integer("steps", spec.steps)
        if spec.steps < 1:
            raise ValueError(f"steps must be positive, got {spec.steps}")
        return spec

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, bypasses __new__
        return cls(*iterable)


def _diag(d0, d1):
    """2 x 2 diagonal matrices, one per entry of the broadcast d0 and d1."""
    d0, d1 = np.broadcast_arrays(d0, d1)
    out = np.zeros(d0.shape + (2, 2))
    out[..., 0, 0] = d0
    out[..., 1, 1] = d1
    return out


def case_matrices(example, tau):
    """The (a, b) pair of the given case at parameter tau; an array of taus gives stacks."""
    tau = np.asarray(tau, dtype=np.float64)
    if example == 1:
        b = _diag(1.0 / (1.0 + 2.0 * tau), tau)
    elif example == 2:
        b = _diag(tau / (1.0 + tau), 2.0 * tau)
    else:
        raise ValueError(f"example must be 1 or 2, got {example}")
    return _diag(np.ones_like(tau), 0.0), b


# the exact deviations of the two examples, which several estimators attain
def _exact_1(t):
    return 4.0 * t**2 + 1.0 / t**2


def _exact_2(t):
    return 5.0 / (4.0 * t**2)


CLOSED_FORMS = {
    1: {
        "exact": _exact_1,
        "li_refined": lambda t: _exact_1(t) + 4.0 / (t**2 * (1.0 + 2.0 * t) ** 2) - 4.0,
        "alpha_upper": _exact_1,
        "beta_upper": _exact_1,
        # an array power other than a square may take a SIMD pow(), so t^4 is a squared square
        "gamma_upper": lambda t: (
            _exact_1(t) + 4.0 * t**2 / (1.0 + 2.0 * t) ** 2 - 4.0 * (t**2) ** 2
        ),
        "delta_upper": _exact_1,
        "averaged_upper": _exact_1,
        "singular_value_lower": lambda t: (1.0 - 1.0 / t) ** 2 + (1.0 + 2.0 * t) ** 2,
        "singular_value_upper": lambda t: (1.0 + 1.0 / t) ** 2 + (1.0 + 2.0 * t) ** 2,
    },
    2: {
        "exact": _exact_2,
        "alpha_lower": _exact_2,
        "beta_lower": _exact_2,
        "gamma_lower": lambda t: _exact_2(t) + 1.0 / (1.0 + t) ** 2 - 4.0,
        "delta_lower": _exact_1,
        "singular_value_lower": _exact_2,
        "singular_value_upper": lambda t: (1.0 + 2.0 * t) ** 2 / t**2 + 1.0 / (4.0 * t**2),
    },
}


class SweepResult(NamedTuple):
    spec: SweepSpec
    taus: np.ndarray
    columns: dict  # name -> array, insertion-ordered


def sweep_example(spec):
    """Evaluate the case over the grid and pair every value with its closed form.

    Each column has the bits of the same row of the stack's ``full_report``.
    """
    forms = CLOSED_FORMS[spec.example]
    taus = np.linspace(spec.tau_min, spec.tau_max, spec.steps)
    p = make_pair(*case_matrices(spec.example, taus))
    cols = {}
    for name, form in forms.items():
        got = deviation_sq(p) if name == "exact" else ESTIMATOR_BY_NAME[name].evaluate(p).value
        want = form(taus)
        cols[name] = got
        cols[f"{name}_closed"] = want
        cols[f"{name}_diff"] = abs(got - want)
    return SweepResult(spec=spec, taus=taus, columns=cols)


def sweep_csv(result):
    names = list(result.columns)
    table = np.column_stack([result.taus, *result.columns.values()])
    # a list, so that the per-value strings are freed before the file is joined
    rows = list(map(",".join, format_floats(table)))
    return "\n".join([",".join(["tau"] + names), *rows, ""])
