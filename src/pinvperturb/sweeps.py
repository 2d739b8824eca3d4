"""Parameter sweeps over two diagonal rank-jump cases with known closed forms.

Both cases live on the open parameter interval (1/10, 1/2).  Case 1 tracks
the upper estimators against an exact deviation of 4 t^2 + 1/t^2; case 2
tracks the lower estimators against 5 / (4 t^2).  Sweep output holds, per
estimator, the computed value, the closed-form value and their absolute
difference, so drift is visible in the file itself.
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


def case_matrices(example, tau):
    """The (a, b) pair of the given case at parameter tau."""
    if example == 1:
        a = np.diag([1.0, 0.0])
        b = np.diag([1.0 / (1.0 + 2.0 * tau), tau])
    elif example == 2:
        a = np.diag([1.0, 0.0])
        b = np.diag([tau / (1.0 + tau), 2.0 * tau])
    else:
        raise ValueError(f"example must be 1 or 2, got {example}")
    return a, b


CLOSED_FORMS = {
    1: {
        "exact": lambda t: 4.0 * t**2 + 1.0 / t**2,
        "li_refined": lambda t: 4.0 * t**2 + 1.0 / t**2 + 4.0 / (t**2 * (1.0 + 2.0 * t) ** 2) - 4.0,
        "alpha_upper": lambda t: 4.0 * t**2 + 1.0 / t**2,
        "beta_upper": lambda t: 4.0 * t**2 + 1.0 / t**2,
        "gamma_upper": lambda t: 4.0 * t**2 + 1.0 / t**2 + 4.0 * t**2 / (1.0 + 2.0 * t) ** 2 - 4.0 * t**4,
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
    tracked = [name for name in forms if name != "exact"]
    cols = {"exact": [], "exact_closed": [], "exact_diff": []}
    for name in tracked:
        cols[name] = []
        cols[f"{name}_closed"] = []
        cols[f"{name}_diff"] = []
    for t in taus:
        a, b = case_matrices(spec.example, float(t))
        rep = full_report(make_pair(a, b))
        want = forms["exact"](float(t))
        cols["exact"].append(rep.exact_sq)
        cols["exact_closed"].append(want)
        cols["exact_diff"].append(abs(rep.exact_sq - want))
        for name in tracked:
            got = rep.by_name(name).value
            want = forms[name](float(t))
            cols[name].append(got)
            cols[f"{name}_closed"].append(want)
            cols[f"{name}_diff"].append(abs(got - want))
    return SweepResult(
        spec=spec, taus=taus, columns={k: np.asarray(v) for k, v in cols.items()}
    )


def worst_diffs(result):
    """Largest absolute computed-vs-closed-form gap per tracked name."""
    out = {}
    for name in result.columns:
        if name.endswith("_diff"):
            out[name[: -len("_diff")]] = float(np.max(result.columns[name]))
    return out


def sweep_csv(result):
    names = list(result.columns)
    lines = [",".join(["tau"] + names)]
    for i in range(result.taus.size):
        row = [f"{result.taus[i]:.17g}"]
        row += [f"{result.columns[c][i]:.17g}" for c in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
