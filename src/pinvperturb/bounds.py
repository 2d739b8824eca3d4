"""Upper and lower estimates for the squared Frobenius deviation of the
pseudoinverses of a matrix pair, plus the classical unsquared norm bounds.

The family is one table, ``ESTIMATORS``: each row names an estimator, what
it bounds, the hypotheses it needs and its formula.  The hypotheses come
from a closed set of requirements; a row whose requirement fails reports
itself as not applicable, with that requirement's reason.  ``full_report``
evaluates the whole table, forms the tightest envelope from the applicable
squared estimates, and can check it against the exact deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    PerturbationPair,
    deviation_fro,
    deviation_spectral,
    deviation_sq,
)

SQUARED = "squared_frobenius"
NORM = "norm"
UI = "unitarily_invariant"

# multiplier for the general-rank unsquared bound, by norm family
MU = {
    "spectral": (1.0 + math.sqrt(5.0)) / 2.0,
    "frobenius": math.sqrt(2.0),
    UI: 3.0,
}


def equal_rank_multiplier(m, n, r, norm):
    """Constant for the equal-rank unsquared bound, by how rank fills the shape."""
    if r == m == n:
        return 1.0
    if r == min(m, n) and m != n:
        return {"spectral": math.sqrt(2.0), "frobenius": 1.0, UI: 2.0}[norm]
    return MU[norm]


@dataclass(frozen=True)
class BoundValue:
    """One evaluated estimator.

    ``target`` is ``squared_frobenius`` for the squared-deviation estimates
    or ``norm`` for unsquared ones; ``norm_used`` names the norm the value
    refers to.  ``value`` is None when not applicable, with ``reason`` set.
    """

    name: str
    kind: str  # "upper" or "lower"; the rendered report adds "exact" and "envelope" rows
    target: str
    norm_used: str
    applicable: bool
    value: float | None
    reason: str = ""


def _d(t):
    """Clamp tiny negative roundoff in terms that are nonnegative exactly."""
    return t if t > 0.0 else 0.0


@dataclass(frozen=True)
class Requirement:
    """A hypothesis an estimator needs: when ``violated(p)``, ``reason(p)`` says why it is skipped."""

    violated: Callable[[PerturbationPair], bool]
    reason: Callable[[PerturbationPair], str]


# the closed set of requirements; each row checks its own in the order listed
_EQUAL_RANKS = Requirement(
    lambda p: p.rank_a != p.rank_b,
    lambda p: f"needs equal ranks, got {p.rank_a} and {p.rank_b}",
)
_PINV_NONZERO = Requirement(
    lambda p: p.norms.nai == 0.0 or p.norms.nbi == 0.0,
    lambda p: "needs both operands nonzero, a pseudoinverse norm is 0",
)
_SPECTRAL_NONZERO = Requirement(
    lambda p: p.norms.na == 0.0 or p.norms.nb == 0.0,
    lambda p: "needs both operands nonzero, a spectral norm is 0",
)
_ANY_NONZERO = Requirement(
    lambda p: max(p.norms.na, p.norms.nb) == 0.0,
    lambda p: "needs a nonzero operand, both spectral norms are 0",
)
_B_NONZERO = Requirement(
    lambda p: p.norms.nbi == 0.0,
    lambda p: "needs b nonzero, its pseudoinverse norm is 0",
)
_FULL_COLUMN_RANK_A = Requirement(
    lambda p: p.rank_a != p.shape[1],
    lambda p: f"needs full column rank of a, got rank {p.rank_a} of {p.shape[1]}",
)
_FULL_COLUMN_RANK_BOTH = Requirement(
    lambda p: p.rank_a != p.shape[1] or p.rank_b != p.shape[1],
    lambda p: f"needs both ranks equal to {p.shape[1]}, got {p.rank_a} and {p.rank_b}",
)


def _no_single_norm(constant):
    """Never met: the bound holds with ``constant(p)`` for every unitarily invariant norm."""
    return Requirement(
        lambda p: True,
        lambda p: f"constant {constant(p):g} holds for every unitarily invariant norm; "
        "no single norm to evaluate",
    )


@dataclass(frozen=True)
class Estimator:
    """One row of the family; ``formula(p.norms, p)`` runs only when every requirement holds."""

    name: str
    kind: str  # "upper" or "lower"
    formula: Callable | None
    requires: tuple[Requirement, ...] = ()
    target: str = SQUARED
    norm: str = "frobenius"

    def evaluate(self, p):
        for req in self.requires:
            if req.violated(p):
                return BoundValue(
                    self.name, self.kind, self.target, self.norm, False, None, req.reason(p)
                )
        try:
            value = self.formula(p.norms, p)
        except ArithmeticError as exc:
            # an overflow's own message is only "(34, 'Numerical result out of range')"
            detail = exc.args[-1] if exc.args else type(exc).__name__
            raise type(exc)(f"estimator {self.name} failed: {detail}") from exc
        if self.kind == "lower":
            value = max(value, 0.0)
        return BoundValue(self.name, self.kind, self.target, self.norm, True, float(value))


def _nu(p, norm):
    return equal_rank_multiplier(*p.shape, p.rank_a, norm)


def _li_refined(nm, p):
    """Worst-case energy minus the aligned cross mass."""
    ratio = max(nm.nai**2 / nm.nbi**2, nm.nbi**2 / nm.nai**2)
    return _d(max(nm.nai, nm.nbi) ** 4 * nm.e2 - 0.5 * (ratio - 1.0) * (nm.x + nm.y))


def _li_full_column_rank(nm, p):
    pref = nm.nai**2 * nm.nbi**2 / (nm.nai**2 + nm.nbi**2)
    return pref * (nm.ea + nm.eb + (p.shape[1] - p.rank_b) * nm.nai**2 / nm.nbi**2)


def _singular_value_bound(p, c):
    """total + c * aligned, from the two singular value lists only (c = +-2)."""
    ra = 1.0 / p.fa.sigma1
    rb = 1.0 / p.fb.sigma1
    total = float(np.sum(ra**2) + np.sum(rb**2))
    k = min(ra.size, rb.size)
    # largest reciprocal pairs with largest: the trace bound for the aligned part
    aligned = float(np.sum(np.sort(ra)[::-1][:k] * np.sort(rb)[::-1][:k]))
    return total + c * aligned


def _alpha_upper(nm, p):
    """Projected-residual route, minimum over the two."""
    a1 = nm.nai**2 * _d(nm.ae - nm.aebb) + nm.nbi**2 * _d(nm.eb - nm.aaeb)
    a2 = nm.nai**2 * _d(nm.ea - nm.bbea) + nm.nbi**2 * _d(nm.be - nm.beaa)
    return min(a1 + nm.x, a2 + nm.y)


def _beta_upper(nm, p):
    """Inverted products replaced by raw perturbation energy."""
    b1 = nm.nai**4 * _d(nm.e2 - nm.ebb) + nm.nbi**4 * _d(nm.e2 - nm.aae)
    b2 = nm.nai**4 * _d(nm.e2 - nm.bbe) + nm.nbi**4 * _d(nm.e2 - nm.eaa)
    return min(b1 + nm.x, b2 + nm.y)


def _gamma_upper(nm, p):
    """Cross mass scaled back through the inverse norms."""
    g1 = nm.nai**2 * _d(nm.ae - nm.y / nm.nbi**2) + nm.nbi**2 * _d(nm.eb - nm.y / nm.nai**2)
    g2 = nm.nai**2 * _d(nm.ea - nm.x / nm.nbi**2) + nm.nbi**2 * _d(nm.be - nm.x / nm.nai**2)
    return min(g1 + nm.x, g2 + nm.y)


def _delta_terms(nm):
    big = max(nm.nai, nm.nbi) ** 4
    d1 = big * _d(nm.e2 - max(nm.aaeb / nm.nbi**2, nm.aebb / nm.nai**2))
    d2 = big * _d(nm.e2 - max(nm.bbea / nm.nai**2, nm.beaa / nm.nbi**2))
    return d1, d2


def _delta_upper(nm, p):
    """Energy route with the aligned core subtracted before amplification."""
    d1, d2 = _delta_terms(nm)
    return min(d1 + nm.x, d2 + nm.y)


def _averaged_upper(nm, p):
    """Mean of the two delta routes; never below either minimum component."""
    d1, d2 = _delta_terms(nm)
    return 0.5 * (d1 + d2 + nm.x + nm.y)


def _epsilon_upper(nm, p):
    """Equal-rank sharpening of the energy route."""
    pref = nm.nai**2 * nm.nbi**2
    e1 = pref * _d(nm.e2 - max(nm.bbea / nm.nai**2, nm.beaa / nm.nbi**2))
    e2 = pref * _d(nm.e2 - max(nm.aaeb / nm.nbi**2, nm.aebb / nm.nai**2))
    return min(e1 + nm.x, e2 + nm.y)


def _alpha_lower(nm, p):
    """Lower counterpart of the projected-residual route, maximum of the two."""
    a1 = _d(nm.ae - nm.aebb) / nm.na**2 + _d(nm.eb - nm.aaeb) / nm.nb**2
    a2 = _d(nm.ea - nm.bbea) / nm.na**2 + _d(nm.be - nm.beaa) / nm.nb**2
    return max(a1 + nm.x, a2 + nm.y)


def _beta_lower(nm, p):
    """Lower counterpart of the raw-energy route."""
    b1 = _d(nm.e2 - nm.ebb) / nm.na**4 + _d(nm.e2 - nm.aae) / nm.nb**4
    b2 = _d(nm.e2 - nm.bbe) / nm.na**4 + _d(nm.e2 - nm.eaa) / nm.nb**4
    return max(b1 + nm.x, b2 + nm.y)


def _gamma_lower(nm, p):
    """Cross mass scaled up; terms may legitimately go negative."""
    g1 = (nm.ae - nm.nb**2 * nm.y) / nm.na**2 + (nm.eb - nm.na**2 * nm.y) / nm.nb**2
    g2 = (nm.ea - nm.nb**2 * nm.x) / nm.na**2 + (nm.be - nm.na**2 * nm.x) / nm.nb**2
    return max(g1 + nm.x, g2 + nm.y)


def _delta_lower(nm, p):
    """Lower energy route normalized by the larger spectral norm."""
    big = max(nm.na, nm.nb) ** 4
    d1 = (nm.e2 - min(nm.nb**2 * nm.aaeb, nm.na**2 * nm.aebb)) / big
    d2 = (nm.e2 - min(nm.na**2 * nm.bbea, nm.nb**2 * nm.beaa)) / big
    return max(d1 + nm.x, d2 + nm.y)


def _epsilon_lower(nm, p):
    """Equal-rank sharpening of the lower energy route."""
    pref = nm.na**2 * nm.nb**2
    e1 = (nm.e2 - min(nm.na**2 * nm.bbea, nm.nb**2 * nm.beaa)) / pref
    e2 = (nm.e2 - min(nm.nb**2 * nm.aaeb, nm.na**2 * nm.aebb)) / pref
    return max(e1 + nm.x, e2 + nm.y)


# The whole family in its fixed report order.  The unsquared rows are the
# general-rank bound mu * max(|a+|, |b+|)^2 * |e|, its equal-rank refinement
# nu * |a+| * |b+| * |e|, and both again with constant 1 in the Frobenius norm.
ESTIMATORS = (
    Estimator(
        "wedin_spectral", "upper",
        lambda nm, p: MU["spectral"] * max(nm.nai, nm.nbi) ** 2 * nm.es,
        target=NORM, norm="spectral",
    ),
    Estimator(
        "wedin_frobenius", "upper",
        lambda nm, p: MU["frobenius"] * max(nm.nai, nm.nbi) ** 2 * nm.ef,
        target=NORM,
    ),
    Estimator(
        "wedin_unitarily_invariant", "upper", None,
        (_no_single_norm(lambda p: MU[UI]),), target=NORM, norm=UI,
    ),
    Estimator(
        "wedin_equal_rank_spectral", "upper",
        lambda nm, p: _nu(p, "spectral") * nm.nai * nm.nbi * nm.es,
        (_EQUAL_RANKS,), target=NORM, norm="spectral",
    ),
    Estimator(
        "wedin_equal_rank_frobenius", "upper",
        lambda nm, p: _nu(p, "frobenius") * nm.nai * nm.nbi * nm.ef,
        (_EQUAL_RANKS,), target=NORM,
    ),
    Estimator(
        "wedin_equal_rank_unitarily_invariant", "upper", None,
        (_EQUAL_RANKS, _no_single_norm(lambda p: _nu(p, UI))), target=NORM, norm=UI,
    ),
    Estimator(
        "meng_zheng", "upper", lambda nm, p: max(nm.nai, nm.nbi) ** 2 * nm.ef, target=NORM
    ),
    Estimator(
        "meng_zheng_equal_rank", "upper", lambda nm, p: nm.nai * nm.nbi * nm.ef,
        (_EQUAL_RANKS,), target=NORM,
    ),
    Estimator("li_refined", "upper", _li_refined, (_PINV_NONZERO,)),
    Estimator(
        "li_full_column_rank", "upper", _li_full_column_rank,
        (_FULL_COLUMN_RANK_A, _B_NONZERO),
    ),
    Estimator(
        "li_full_rank_pair", "upper",
        lambda nm, p: min(nm.nbi**2 * nm.ea, nm.nai**2 * nm.eb),
        (_FULL_COLUMN_RANK_BOTH,),
    ),
    Estimator("singular_value_upper", "upper", lambda nm, p: _singular_value_bound(p, 2.0)),
    Estimator("alpha_upper", "upper", _alpha_upper),
    Estimator("beta_upper", "upper", _beta_upper),
    Estimator("gamma_upper", "upper", _gamma_upper, (_PINV_NONZERO,)),
    Estimator("delta_upper", "upper", _delta_upper, (_PINV_NONZERO,)),
    Estimator("epsilon_upper", "upper", _epsilon_upper, (_EQUAL_RANKS, _PINV_NONZERO)),
    Estimator("averaged_upper", "upper", _averaged_upper, (_PINV_NONZERO,)),
    Estimator("singular_value_lower", "lower", lambda nm, p: _singular_value_bound(p, -2.0)),
    Estimator("alpha_lower", "lower", _alpha_lower, (_SPECTRAL_NONZERO,)),
    Estimator("beta_lower", "lower", _beta_lower, (_SPECTRAL_NONZERO,)),
    Estimator("gamma_lower", "lower", _gamma_lower, (_SPECTRAL_NONZERO,)),
    Estimator("delta_lower", "lower", _delta_lower, (_ANY_NONZERO,)),
    Estimator("epsilon_lower", "lower", _epsilon_lower, (_EQUAL_RANKS, _SPECTRAL_NONZERO)),
)


def evaluate_all(p):
    """The whole family in a fixed, deterministic order."""
    return [row.evaluate(p) for row in ESTIMATORS]


@dataclass(frozen=True)
class BoundReport:
    """Exact deviation plus every estimator and the squared envelope."""

    exact_sq: float
    exact_fro: float
    exact_spectral: float
    values: tuple[BoundValue, ...]
    envelope: tuple[float, float]

    @property
    def uppers(self):
        return tuple(v for v in self.values if v.kind == "upper")

    @property
    def lowers(self):
        return tuple(v for v in self.values if v.kind == "lower")

    def by_name(self, name):
        for v in self.values:
            if v.name == name:
                return v
        raise KeyError(name)


def full_report(p):
    values = evaluate_all(p)
    lows = [v.value for v in values if v.applicable and v.kind == "lower" and v.target == SQUARED]
    ups = [v.value for v in values if v.applicable and v.kind == "upper" and v.target == SQUARED]
    # the singular-value pair is always applicable, so neither list is empty
    return BoundReport(
        exact_sq=deviation_sq(p),
        exact_fro=deviation_fro(p),
        exact_spectral=deviation_spectral(p),
        values=tuple(values),
        envelope=(max(lows), min(ups)),
    )


def envelope_ok(report, tol=1e-8):
    """Squared envelope brackets the exact squared deviation within slack."""
    lo, up = report.envelope
    slack = tol * (1.0 + report.exact_sq)
    return lo <= report.exact_sq + slack and up >= report.exact_sq - slack


def norm_bounds_ok(report, tol=1e-8):
    """Every applicable unsquared upper bound dominates its exact norm."""
    for v in report.uppers:
        if not v.applicable or v.target != NORM:
            continue
        exact = report.exact_spectral if v.norm_used == "spectral" else report.exact_fro
        if v.value < exact - tol * (1.0 + exact):
            return False
    return True


def _fmt(x):
    return f"{x:.17g}"


def _report_rows(report):
    """Every rendered row: the exact deviations, the estimators, the envelope."""

    def row(name, kind, target, norm, value):
        return BoundValue(name, kind, target, norm, True, value)

    lo, up = report.envelope
    return (
        row("exact_squared_frobenius", "exact", SQUARED, "frobenius", report.exact_sq),
        row("exact_frobenius", "exact", NORM, "frobenius", report.exact_fro),
        row("exact_spectral", "exact", NORM, "spectral", report.exact_spectral),
        *report.values,
        row("envelope_lower", "envelope", SQUARED, "frobenius", lo),
        row("envelope_upper", "envelope", SQUARED, "frobenius", up),
    )


def report_csv(report):
    """Machine-readable report: name, kind, target, norm, applicable, value."""
    lines = ["name,kind,target,norm,applicable,value"]
    for v in _report_rows(report):
        flag = "true" if v.applicable else "false"
        val = _fmt(v.value) if v.applicable else ""
        lines.append(f"{v.name},{v.kind},{v.target},{v.norm_used},{flag},{val}")
    return "\n".join(lines) + "\n"


def report_table(report):
    """Human-readable report with one row per estimator."""
    rows = [("name", "kind", "target", "norm", "value", "note")]
    for v in _report_rows(report):
        val = _fmt(v.value) if v.applicable else "-"
        rows.append((v.name, v.kind, v.target, v.norm_used, val, v.reason))
    widths = [max(len(r[c]) for r in rows) for c in range(6)]
    out = []
    for r in rows:
        out.append("  ".join(r[c].ljust(widths[c]) for c in range(6)).rstrip())
    return "\n".join(out) + "\n"
