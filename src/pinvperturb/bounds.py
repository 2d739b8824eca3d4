"""Upper and lower estimates for the squared Frobenius deviation of the
pseudoinverses of a matrix pair, plus the classical unsquared norm bounds.

The family is one table, ``ESTIMATORS``: each row names an estimator, what
it bounds, the hypotheses it needs and its formula.  The hypotheses come
from a closed set of requirements; a row whose requirement fails reports
itself as not applicable, with that requirement's reason.  ``full_report``
evaluates the whole table, forms the tightest envelope from the applicable
squared estimates, and can check it against the exact deviation.

The table is evaluated on arrays: for a stack of pairs, each value is an
array with one entry per pair, from the same arithmetic as one pair's.  A
requirement reads only the shape and the two ranks, which every pair of a
stack shares, so a row applies to all of its pairs or to none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import checked
from .geometry import deviation_spectral, deviation_sq
from .matrixio import format_float

SQUARED = "squared_frobenius"
NORM = "norm"
UI = "unitarily_invariant"

# relative slack of every check that a bound holds: the envelope, the norm
# bounds, and the suite's orderings
TOL_BOUND = 1e-8

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
    refers to.  ``value`` is None when not applicable, with ``reason`` set,
    and an array over the pairs of a stack.
    """

    name: str
    kind: str  # "upper" or "lower"; the rendered report adds "exact" and "envelope" rows
    target: str
    norm_used: str
    applicable: bool
    value: float | np.ndarray | None
    reason: str = ""


def _d(t):
    """Clamp tiny negative roundoff in terms that are nonnegative exactly."""
    return np.maximum(t, 0.0)


@dataclass(frozen=True)
class Requirement:
    """A hypothesis an estimator needs, on the shape m x n and the ranks ra and rb alone.

    When ``violated(m, n, ra, rb)``, ``reason(m, n, ra, rb)`` says why the row is skipped.
    """

    violated: Callable[[int, int, int, int], bool]
    reason: Callable[[int, int, int, int], str]


# the closed set of requirements; each row checks its own in the order listed.  A spectral
# norm and a pseudoinverse norm are 0 exactly at rank 0, so a reason may name either.
_EQUAL_RANKS = Requirement(
    lambda m, n, ra, rb: ra != rb,
    lambda m, n, ra, rb: f"needs equal ranks, got {ra} and {rb}",
)
_PINV_NONZERO = Requirement(
    lambda m, n, ra, rb: not (ra and rb),
    lambda m, n, ra, rb: "needs both operands nonzero, a pseudoinverse norm is 0",
)
_SPECTRAL_NONZERO = Requirement(
    lambda m, n, ra, rb: not (ra and rb),
    lambda m, n, ra, rb: "needs both operands nonzero, a spectral norm is 0",
)
_ANY_NONZERO = Requirement(
    lambda m, n, ra, rb: not (ra or rb),
    lambda m, n, ra, rb: "needs a nonzero operand, both spectral norms are 0",
)
_B_NONZERO = Requirement(
    lambda m, n, ra, rb: not rb,
    lambda m, n, ra, rb: "needs b nonzero, its pseudoinverse norm is 0",
)
_FULL_COLUMN_RANK_A = Requirement(
    lambda m, n, ra, rb: ra != n,
    lambda m, n, ra, rb: f"needs full column rank of a, got rank {ra} of {n}",
)
_FULL_COLUMN_RANK_BOTH = Requirement(
    lambda m, n, ra, rb: ra != n or rb != n,
    lambda m, n, ra, rb: f"needs both ranks equal to {n}, got {ra} and {rb}",
)


def _no_single_norm(constant):
    """Never met: the bound holds with ``constant`` for every unitarily invariant norm."""
    return Requirement(
        lambda m, n, ra, rb: True,
        lambda m, n, ra, rb: f"constant {constant(m, n, ra, rb):g} holds for every unitarily "
        "invariant norm; no single norm to evaluate",
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
        facts = (*p.shape, p.rank_a, p.rank_b)
        for req in self.requires:
            if req.violated(*facts):
                return BoundValue(
                    self.name, self.kind, self.target, self.norm, False, None, req.reason(*facts)
                )
        value = checked(f"estimator {self.name}", self.formula, p.norms, p)
        if self.kind == "lower":
            value = np.maximum(value, 0.0)
        return BoundValue(self.name, self.kind, self.target, self.norm, True, value)


def _nu(p, norm):
    return equal_rank_multiplier(*p.shape, p.rank_a, norm)


def _li_refined(nm, p):
    """Worst-case energy minus the aligned cross mass."""
    ratio = np.maximum(nm.nai2 / nm.nbi2, nm.nbi2 / nm.nai2)
    return _d(np.maximum(nm.nai4, nm.nbi4) * nm.e2 - 0.5 * (ratio - 1.0) * (nm.x + nm.y))


def _li_full_column_rank(nm, p):
    pref = nm.nai2 * nm.nbi2 / (nm.nai2 + nm.nbi2)
    return pref * (nm.ea + nm.eb + (p.shape[1] - p.rank_b) * nm.nai2 / nm.nbi2)


def _singular_value_bound(p, c):
    """sum_i (1/sa_i + c/sb_i)^2 over matched reciprocals, plus the unmatched ones squared (c = +-1).

    Largest reciprocal pairs with largest: the trace bound for the aligned
    part; sigma1 is decreasing, so its reciprocals reversed are sorted.  Each
    matched pair is combined before it is squared, so the lower row does not
    cancel when a and b are close.
    """
    ra = 1.0 / p.fa.sigma1[..., ::-1]
    rb = 1.0 / p.fb.sigma1[..., ::-1]
    k = min(p.rank_a, p.rank_b)
    terms = np.concatenate((ra[..., :k] + c * rb[..., :k], ra[..., k:], rb[..., k:]), axis=-1)
    return np.sum(terms * terms, axis=-1)


def _upper(route):
    """The tighter of a route and its a <-> b mirror."""
    return lambda nm, p: np.minimum(route(nm), route(nm.swapped))


def _lower(route):
    """The tighter of a lower route and its a <-> b mirror."""
    return lambda nm, p: np.maximum(route(nm), route(nm.swapped))


# Each route below is written once, for the orientation through (a, e); its
# mirror is the same route on ``nm.swapped``.


def _alpha_upper(nm):
    """Projected-residual route."""
    return nm.nai2 * nm.aebb_c + nm.nbi2 * nm.aaeb_c + nm.x


def _beta_upper(nm):
    """Inverted products replaced by raw perturbation energy."""
    return nm.nai4 * nm.ebb_c + nm.nbi4 * nm.aae_c + nm.x


def _gamma_upper(nm):
    """Cross mass scaled back through the inverse norms.

    ae - y / nbi2 = aebb_c + aebb_r and eb - y / nai2 = aaeb_c + aaeb_r,
    sums of non-negative terms, so the route is never below alpha_upper's.
    """
    return nm.nai2 * (nm.aebb_c + nm.aebb_r) + nm.nbi2 * (nm.aaeb_c + nm.aaeb_r) + nm.x


def _delta_term(nm):
    """Energy with the aligned core subtracted, then amplified."""
    big = np.maximum(nm.nai4, nm.nbi4)
    return big * _d(nm.e2 - np.maximum(nm.aaeb / nm.nbi2, nm.aebb / nm.nai2))


def _delta_upper(nm):
    """Energy route with the aligned core subtracted before amplification."""
    return _delta_term(nm) + nm.x


def _averaged_upper(nm, p):
    """Mean of the two delta routes; never below either minimum component."""
    return 0.5 * (_delta_term(nm) + _delta_term(nm.swapped) + nm.x + nm.y)


def _epsilon_upper(nm):
    """Equal-rank sharpening of the energy route."""
    pref = nm.nai2 * nm.nbi2
    return pref * _d(nm.e2 - np.maximum(nm.bbea / nm.nai2, nm.beaa / nm.nbi2)) + nm.x


def _alpha_lower(nm):
    """Lower counterpart of the projected-residual route."""
    return nm.aebb_c / nm.na2 + nm.aaeb_c / nm.nb2 + nm.x


def _beta_lower(nm):
    """Lower counterpart of the raw-energy route."""
    return nm.ebb_c / nm.na4 + nm.aae_c / nm.nb4 + nm.x


def _gamma_lower(nm):
    """Cross mass scaled up; terms may legitimately go negative.

    ae - nb2 y = aebb_c - aebb_1 and eb - na2 y = aaeb_c - aaeb_1, with
    non-negative sums subtracted, so the route is never above alpha_lower's.
    """
    return (nm.aebb_c - nm.aebb_1) / nm.na2 + (nm.aaeb_c - nm.aaeb_1) / nm.nb2 + nm.x


def _delta_lower(nm):
    """Lower energy route normalized by the larger spectral norm."""
    big = np.maximum(nm.na4, nm.nb4)
    return (nm.e2 - np.minimum(nm.nb2 * nm.aaeb, nm.na2 * nm.aebb)) / big + nm.x


def _epsilon_lower(nm):
    """Equal-rank sharpening of the lower energy route."""
    pref = nm.na2 * nm.nb2
    return (nm.e2 - np.minimum(nm.na2 * nm.bbea, nm.nb2 * nm.beaa)) / pref + nm.x


# The whole family in its fixed report order.  The unsquared rows are the
# general-rank bound mu * max(|a+|, |b+|)^2 * |e|, its equal-rank refinement
# nu * |a+| * |b+| * |e|, and both again with constant 1 in the Frobenius norm.
ESTIMATORS = (
    Estimator(
        "wedin_spectral", "upper",
        lambda nm, p: MU["spectral"] * np.maximum(nm.nai2, nm.nbi2) * nm.es,
        target=NORM, norm="spectral",
    ),
    Estimator(
        "wedin_frobenius", "upper",
        lambda nm, p: MU["frobenius"] * np.maximum(nm.nai2, nm.nbi2) * nm.ef,
        target=NORM,
    ),
    Estimator(
        "wedin_unitarily_invariant", "upper", None,
        (_no_single_norm(lambda m, n, ra, rb: MU[UI]),), target=NORM, norm=UI,
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
        (_EQUAL_RANKS, _no_single_norm(lambda m, n, ra, rb: equal_rank_multiplier(m, n, ra, UI))),
        target=NORM, norm=UI,
    ),
    Estimator(
        "meng_zheng", "upper", lambda nm, p: np.maximum(nm.nai2, nm.nbi2) * nm.ef, target=NORM
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
        _upper(lambda nm: nm.nbi2 * nm.ea),
        (_FULL_COLUMN_RANK_BOTH,),
    ),
    Estimator("singular_value_upper", "upper", lambda nm, p: _singular_value_bound(p, 1.0)),
    Estimator("alpha_upper", "upper", _upper(_alpha_upper)),
    Estimator("beta_upper", "upper", _upper(_beta_upper)),
    Estimator("gamma_upper", "upper", _upper(_gamma_upper), (_PINV_NONZERO,)),
    Estimator("delta_upper", "upper", _upper(_delta_upper), (_PINV_NONZERO,)),
    Estimator("epsilon_upper", "upper", _upper(_epsilon_upper), (_EQUAL_RANKS, _PINV_NONZERO)),
    Estimator("averaged_upper", "upper", _averaged_upper, (_PINV_NONZERO,)),
    Estimator("singular_value_lower", "lower", lambda nm, p: _singular_value_bound(p, -1.0)),
    Estimator("alpha_lower", "lower", _lower(_alpha_lower), (_SPECTRAL_NONZERO,)),
    Estimator("beta_lower", "lower", _lower(_beta_lower), (_SPECTRAL_NONZERO,)),
    Estimator("gamma_lower", "lower", _lower(_gamma_lower), (_SPECTRAL_NONZERO,)),
    Estimator("delta_lower", "lower", _lower(_delta_lower), (_ANY_NONZERO,)),
    Estimator("epsilon_lower", "lower", _lower(_epsilon_lower), (_EQUAL_RANKS, _SPECTRAL_NONZERO)),
)


def evaluate_all(p):
    """The whole family in a fixed, deterministic order.

    An overflow, a division by zero or an invalid operation in the product
    norms or in a row raises, naming where it happened, rather than
    passing on an inf or a nan.
    """
    return [row.evaluate(p) for row in ESTIMATORS]


@dataclass(frozen=True)
class BoundReport:
    """Exact deviation plus every estimator and the squared envelope.

    The report of a stack holds an array over its pairs wherever that of a
    pair holds a float; only the report of a pair renders as text.
    """

    exact_sq: float | np.ndarray
    exact_fro: float | np.ndarray
    exact_spectral: float | np.ndarray
    values: tuple[BoundValue, ...]
    envelope: tuple[float | np.ndarray, float | np.ndarray]

    def by_name(self, name):
        for v in self.values:
            if v.name == name:
                return v
        raise KeyError(name)


def full_report(p):
    values = evaluate_all(p)
    lows = [v.value for v in values if v.applicable and v.kind == "lower" and v.target == SQUARED]
    ups = [v.value for v in values if v.applicable and v.kind == "upper" and v.target == SQUARED]
    exact_sq = deviation_sq(p)
    # the singular-value pair is always applicable, so neither list is empty
    return BoundReport(
        exact_sq=exact_sq,
        exact_fro=np.sqrt(exact_sq),
        exact_spectral=deviation_spectral(p),
        values=tuple(values),
        envelope=(functools.reduce(np.maximum, lows), functools.reduce(np.minimum, ups)),
    )


def envelope_residual(report):
    """How far the squared envelope misses the exact squared deviation, relative to 1 + it.

    A nan anywhere in the envelope or the deviation makes it nan.
    """
    lo, up = report.envelope
    dev = report.exact_sq
    return np.maximum(np.maximum(dev - up, lo - dev), 0.0) / (1.0 + dev)


def norm_residual(report):
    """How far the worst unsquared bound falls below its exact norm, relative to 1 + it.

    A nan bound or exact norm makes it nan.
    """
    worst = 0.0
    for v in report.values:
        if v.applicable and v.target == NORM:
            exact = report.exact_spectral if v.norm_used == "spectral" else report.exact_fro
            worst = np.maximum((exact - v.value) / (1.0 + exact), worst)
    return worst


def envelope_ok(report):
    """Squared envelope brackets the exact squared deviation within ``TOL_BOUND``."""
    return envelope_residual(report) <= TOL_BOUND


def norm_bounds_ok(report):
    """Every applicable unsquared upper bound dominates its exact norm within ``TOL_BOUND``."""
    return norm_residual(report) <= TOL_BOUND


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
        val = format_float(v.value) if v.applicable else ""
        lines.append(f"{v.name},{v.kind},{v.target},{v.norm_used},{flag},{val}")
    return "\n".join(lines) + "\n"


def report_table(report):
    """Human-readable report with one row per estimator."""
    rows = [("name", "kind", "target", "norm", "value", "note")]
    for v in _report_rows(report):
        val = format_float(v.value) if v.applicable else "-"
        rows.append((v.name, v.kind, v.target, v.norm_used, val, v.reason))
    widths = [max(len(r[c]) for r in rows) for c in range(6)]
    out = []
    for r in rows:
        out.append("  ".join(r[c].ljust(widths[c]) for c in range(6)).rstrip())
    return "\n".join(out) + "\n"
