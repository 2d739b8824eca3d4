"""Parameter sweeps over two diagonal rank-jump cases with known closed forms.

Both cases live on the open parameter interval (1/10, 1/2).  Case 1 tracks
the upper estimators against an exact deviation of 4 t^2 + 1/t^2; case 2
tracks the lower estimators against 5 / (4 t^2).  Sweep output holds, per
estimator, the computed value, the closed-form value and their absolute
difference, so drift is visible in the file itself.  A sweep is one stack
of pairs, one per grid point, and one report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import full_report
from .geometry import make_pair

TAU_OPEN_MIN = 0.1
TAU_OPEN_MAX = 0.5
DEFAULT_TAU_MIN = 0.101
DEFAULT_TAU_MAX = 0.49
DEFAULT_STEPS = 401


@dataclass(frozen=True)
class SweepSpec:
    example: int
    tau_min: float = DEFAULT_TAU_MIN
    tau_max: float = DEFAULT_TAU_MAX
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        if self.example not in (1, 2):
            raise ValueError(f"example must be 1 or 2, got {self.example}")
        if not (TAU_OPEN_MIN < self.tau_min <= self.tau_max < TAU_OPEN_MAX):
            raise ValueError(
                f"need {TAU_OPEN_MIN} < tau_min <= tau_max < {TAU_OPEN_MAX}, "
                f"got [{self.tau_min}, {self.tau_max}]"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")


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


CLOSED_FORMS = {
    1: {
        "exact": lambda t: 4.0 * t**2 + 1.0 / t**2,
        "li_refined": lambda t: 4.0 * t**2 + 1.0 / t**2 + 4.0 / (t**2 * (1.0 + 2.0 * t) ** 2) - 4.0,
        "alpha_upper": lambda t: 4.0 * t**2 + 1.0 / t**2,
        "beta_upper": lambda t: 4.0 * t**2 + 1.0 / t**2,
        # an array power other than a square may take a SIMD pow(), so t^4 is a squared square
        "gamma_upper": lambda t: (
            4.0 * t**2 + 1.0 / t**2 + 4.0 * t**2 / (1.0 + 2.0 * t) ** 2 - 4.0 * (t**2) ** 2
        ),
        "delta_upper": lambda t: 4.0 * t**2 + 1.0 / t**2,
        "averaged_upper": lambda t: 4.0 * t**2 + 1.0 / t**2,
        "singular_value_lower": lambda t: (1.0 - 1.0 / t) ** 2 + (1.0 + 2.0 * t) ** 2,
        "singular_value_upper": lambda t: (1.0 + 1.0 / t) ** 2 + (1.0 + 2.0 * t) ** 2,
    },
    2: {
        "exact": lambda t: 5.0 / (4.0 * t**2),
        "alpha_lower": lambda t: 5.0 / (4.0 * t**2),
        "beta_lower": lambda t: 5.0 / (4.0 * t**2),
        "gamma_lower": lambda t: 5.0 / (4.0 * t**2) + 1.0 / (1.0 + t) ** 2 - 4.0,
        "delta_lower": lambda t: 4.0 * t**2 + 1.0 / t**2,
        "singular_value_lower": lambda t: 5.0 / (4.0 * t**2),
        "singular_value_upper": lambda t: (1.0 + 2.0 * t) ** 2 / t**2 + 1.0 / (4.0 * t**2),
    },
}


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    taus: np.ndarray
    columns: dict  # name -> array, insertion-ordered


def sweep_example(spec):
    """Evaluate the case over the grid and pair every value with its closed form."""
    forms = CLOSED_FORMS[spec.example]
    taus = np.linspace(spec.tau_min, spec.tau_max, spec.steps)
    rep = full_report(make_pair(*case_matrices(spec.example, taus)))
    cols = {}
    for name, form in forms.items():
        got = rep.exact_sq if name == "exact" else rep.by_name(name).value
        want = form(taus)
        cols[name] = got
        cols[f"{name}_closed"] = want
        cols[f"{name}_diff"] = abs(got - want)
    return SweepResult(spec=spec, taus=taus, columns=cols)


def sweep_csv(result):
    names = list(result.columns)
    row = ",".join(["{:.17g}"] * (len(names) + 1))
    values = zip(result.taus.tolist(), *(result.columns[c].tolist() for c in names))
    return "\n".join([",".join(["tau"] + names), *(row.format(*v) for v in values)]) + "\n"
