"""Seeded property suite.

Runs the factorization contract, the exact deviation identities, the bound
sandwich and ordering relations, scale covariance, and the trace inequality
over randomized ensembles.  Every trial derives its generator state from
(spec seed, trial index), so failures are reproducible from the reported
seed alone.  One property is a deliberately corrupted estimator that must be
caught; it passes only when violations are observed.

Residuals reduce with ``np.maximum``, which keeps a nan that Python's ``max``
may drop, so a nan fails its property; only the sentinel drops one.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .bounds import SQUARED, TOL_BOUND, envelope_residual, full_report, norm_residual
from .core import conj_transpose, penrose_residuals, pinv, svd_factors
from .geometry import (
    _ratio,
    angle_bounds,
    cross_term_blocks,
    deviation_sq,
    energy_terms,
    equal_rank_angle_gap,
    identity_terms,
    make_pair,
    proof_identity_u,
    proof_identity_v,
    trace_real,
    von_neumann_sum,
    aligning_unitaries,
)
from .randmat import EnsembleSpec, gaussian, gen_pair, haar_unitary

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 500
DEFAULT_VN_TRIALS = 200
SUITE_CONDITION_CAP = 1e4

TOL_UNITARY = 1e-12
TOL_RECON = 1e-12
TOL_PENROSE = 1e-10
TOL_IDENTITY = 1e-9


class Property(NamedTuple):
    """Registry entry: the residual tolerance, and whether violations are the goal."""

    tol: float
    expect_violation: bool = False


# every property in report order, with its tolerance; the sentinel passes
# only when it is violated somewhere
PROPERTIES = {
    "svd_unitarity": Property(TOL_UNITARY),
    "svd_reconstruction": Property(TOL_RECON),
    "penrose": Property(TOL_PENROSE),
    "pinv_involution": Property(TOL_IDENTITY),
    "pinv_spectral_reciprocal": Property(TOL_IDENTITY),
    "lstsq_residual_optimal": Property(TOL_IDENTITY),
    "lstsq_min_norm": Property(TOL_IDENTITY),
    "identity_sum_a": Property(TOL_IDENTITY),
    "identity_sum_b": Property(TOL_IDENTITY),
    "cross_term_blocks": Property(TOL_IDENTITY),
    "proof_identity_u": Property(TOL_IDENTITY),
    "proof_identity_v": Property(TOL_IDENTITY),
    "energy_split_a": Property(TOL_IDENTITY),
    "energy_split_b": Property(TOL_IDENTITY),
    "equal_rank_angles": Property(TOL_IDENTITY),
    "angle_sandwich": Property(TOL_IDENTITY),
    "bound_sandwich": Property(TOL_BOUND),
    "norm_bound_domination": Property(TOL_BOUND),
    "bound_orderings": Property(TOL_BOUND),
    "scale_covariance": Property(TOL_IDENTITY),
    "rank_jump_witness": Property(TOL_BOUND),
    "von_neumann_upper": Property(TOL_IDENTITY),
    "von_neumann_attainment": Property(TOL_IDENTITY),
    "mutation_sentinel": Property(TOL_BOUND, expect_violation=True),
}


class PropertyResult:
    """Aggregate of one property across all trials."""

    def __init__(self, name, tol, expect_violation=False):
        self.name = name
        self.tol = tol
        self.expect_violation = expect_violation
        self.trials = 0
        self.failures = 0
        self.worst = 0.0
        self.worst_seed = None

    def record(self, resid, seed):
        """Count one trial; a nan residual fails it and, from then on, is the worst value."""
        self.trials += 1
        if resid > self.worst or (np.isnan(resid) and not np.isnan(self.worst)):
            self.worst = resid
            self.worst_seed = seed
        if not resid <= self.tol:
            self.failures += 1

    @property
    def passed(self):
        if self.expect_violation:
            return self.trials == 0 or self.failures > 0
        return self.failures == 0


class SuiteResult:
    """Every property's ``PropertyResult``, in report order."""

    def __init__(self, results):
        self.results = results

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def format_lines(self):
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            extra = f" seed={r.worst_seed}" if not r.passed and r.worst_seed is not None else ""
            if r.expect_violation:
                detail = f"violations={r.failures}/{r.trials} (violations expected)"
            else:
                detail = f"failures={r.failures}/{r.trials} worst={r.worst:.3e} tol={r.tol:.1e}"
            lines.append(f"{status} {r.name:<26} {detail}{extra}")
        return lines


@functools.cache
def default_specs():
    """Shapes up to 8x8, both fields, all rank relations including rank 0; built once.

    Each spec's seed is the default; ``trial_pair`` stamps in each trial's own.
    """
    shapes = [
        (1, 1), (2, 2), (3, 2), (2, 3), (4, 4), (5, 3), (3, 5),
        (6, 6), (8, 5), (5, 8), (8, 8), (1, 4), (4, 1), (7, 2),
    ]
    specs = []
    for m, n in shapes:
        k = min(m, n)
        combos = sorted(
            {
                (k, k),
                (max(k - 1, 0), k),
                (k, max(k - 1, 0)),
                (min(1, k), k),
                (k, min(1, k)),
                (0, k),
                (k, 0),
                (0, 0),
                (k // 2, k),
            }
        )
        for rank_a, rank_b in combos:
            for fld in ("real", "complex"):
                specs.append(
                    EnsembleSpec(
                        m=m, n=n, rank_a=rank_a, rank_b=rank_b,
                        field=fld, condition_cap=SUITE_CONDITION_CAP,
                    )
                )
    return tuple(specs)


def identity_checks(p):
    """Residuals of every exact identity for a pair, or a stack of them, as (name, residual).

    Each is checked on ``p`` and on ``p.swapped``, the ``_a`` and ``_b``
    properties of a split.  A stack gives one residual per pair, with the
    bits of that pair's own.
    """
    out = []
    dev = deviation_sq(p)
    sdev = 1.0 + dev
    e2 = p.norms.e2
    both = (p, p.swapped)
    for name, q in zip(("identity_sum_a", "identity_sum_b"), both):
        out.append((name, abs(sum(identity_terms(q)) - dev) / sdev))
    cross = [abs(cross_term_blocks(q) - q.norms.x) / (1.0 + q.norms.x) for q in both]
    out.append(("cross_term_blocks", np.maximum(*cross)))
    for name, fn, product in (
        ("proof_identity_u", proof_identity_u, "eb"),
        ("proof_identity_v", proof_identity_v, "ae"),
    ):
        resid = 0.0
        for q in both:
            lhs, rhs = fn(q)
            # the rhs is projected off a potentially huge product, so the
            # roundoff budget scales with that product, not the result
            big = getattr(q.norms, product)
            resid = np.maximum(resid, abs(lhs - rhs) / (1.0 + lhs + big))
        out.append((name, resid))
    for name, q in zip(("energy_split_a", "energy_split_b"), both):
        out.append((name, abs(sum(energy_terms(q)) - e2) / (1.0 + e2)))
    if p.rank_a == p.rank_b:
        out.append(("equal_rank_angles", equal_rank_angle_gap(p)))
    sandwich = 0.0
    for lower, upper in map(angle_bounds, both):
        sandwich = np.maximum(np.maximum(sandwich, dev - upper), lower - dev)
    out.append(("angle_sandwich", sandwich / sdev))
    return out


def _factor_contract_residuals(f, a):
    """Orthonormality of u1 and v1, and a rebuilt from its kept rank; one value per matrix of a stack."""
    r = np.eye(f.rank)
    unit = np.maximum(
        *(np.abs(conj_transpose(q) @ q - r).max(axis=(-2, -1), initial=0.0) for q in (f.u1, f.v1))
    ) / max(f.shape)
    recon = np.abs(f.kept - a).max(axis=(-2, -1)) / (1.0 + f.norm2)
    return [("svd_unitarity", unit), ("svd_reconstruction", recon)]


def bound_checks(p, rep):
    """Sandwich, norm domination and ordering residuals for one pair, as (name, residual)."""
    return [
        ("bound_sandwich", envelope_residual(rep)),
        ("norm_bound_domination", norm_residual(rep)),
        ("bound_orderings", ordering_violation(rep, p)),
    ]


# The sharpness chains as (low, high) rows: low never exceeds high, so the
# sharper upper bound comes first and the sharper lower bound second.  A side
# is an estimator name or a closed-form cap on the norms: the worst-case
# energy li_refined sharpens, and the equal-rank one epsilon_upper sharpens.
# A row with an estimator that does not apply to the pair is skipped.
ORDERINGS = (
    ("averaged_upper", "li_refined"),
    ("li_refined", lambda nm: np.maximum(nm.nai4, nm.nbi4) * nm.e2),
    ("alpha_upper", "beta_upper"),
    ("alpha_upper", "gamma_upper"),
    ("epsilon_upper", lambda nm: nm.nai2 * nm.nbi2 * nm.e2),
    ("alpha_upper", "li_full_column_rank"),
    ("alpha_upper", "li_full_rank_pair"),
    ("beta_lower", "alpha_lower"),
    ("gamma_lower", "alpha_lower"),
)


def ordering_violation(rep, p):
    """Worst relative violation among the rows of ``ORDERINGS``."""
    values = {v.name: v.value for v in rep.values}  # None where not applicable

    def side(s):
        return s(p.norms) if callable(s) else values[s]

    viol = 0.0
    for low, high in ORDERINGS:
        lo, hi = side(low), side(high)
        if lo is not None and hi is not None:
            viol = np.maximum(viol, (lo - hi) / (1.0 + abs(hi)))
    return viol


def corrupted_alpha_upper(p):
    """Deliberately broken estimator: second terms sign-flipped in both routes.

    Exists to prove the harness can catch a wrong bound; it must violate the
    sandwich somewhere in any default ensemble run.  It is not mirror
    symmetric (both routes flip the nbi term), so both stay written out.
    """
    nm = p.norms
    a1 = nm.nai2 * nm.aebb_c - nm.nbi2 * nm.aaeb_c
    a2 = nm.nai2 * nm.bbea_c - nm.nbi2 * nm.beaa_c
    return min(a1 + nm.x, a2 + nm.y)


def rank_jump_witness(p):
    """Closed-form floor under the singular-value lower bound when rank grows.

    The unpaired reciprocals plus the extreme matched pair always sit below
    the bound; the floor diverges as b's smallest kept value sinks.
    """
    r, s = p.rank_a, p.rank_b
    jump = s - r
    witness = float(np.sum(1.0 / p.fb.sigma1[:jump] ** 2))
    if r >= 1:
        witness += (1.0 / p.fa.sigma1[-1] - 1.0 / p.fb.sigma1[-1]) ** 2
    return witness


def scale_covariance_residual(p, rep, c):
    """Rescaling both operands by c must move every value by the exact power of c.

    Squared estimators combine intermediates as large as the worst-case
    energy, so their roundoff budget is normalized by that magnitude.
    """
    pc = make_pair(c * p.a, c * p.b)
    repc = full_report(pc)
    nm = p.norms
    big = 1.0 + np.maximum(nm.nai4, nm.nbi4) * nm.e2
    resid = abs(repc.exact_sq * c * c - rep.exact_sq) / big
    for v, vc in zip(rep.values, repc.values):
        if v.applicable != vc.applicable:
            return 1.0
        if not v.applicable:
            continue
        if v.target == SQUARED:
            resid = np.maximum(resid, abs(vc.value * c * c - v.value) / big)
        else:
            resid = np.maximum(resid, abs(vc.value * c - v.value) / (1.0 + abs(v.value)))
    return resid


def _lstsq_residuals(p, rng):
    """The two conditions that make x0 = a+ b the minimum-norm least-squares solution.

    For one right-hand side b drawn from ``rng``: x0 is least-squares optimal
    exactly when a*(a x0 - b) = 0, the normal equations, and has minimum norm
    among the optima exactly when x0 lies in range(a*) = range(v1).  Each
    residual is divided by the size of its own terms, so a pair and 2^k times
    it read the same; 0/0 reads 0.
    """
    a, v1 = p.a, p.fa.v1
    fld = "complex" if np.any(a.imag != 0.0) else "real"
    b = gaussian(rng, a.shape[0], fld)
    x0 = p.pinv_a @ b
    x0n = np.linalg.norm(x0)
    na = p.fa.norm2
    normal = np.linalg.norm(conj_transpose(a) @ (a @ x0 - b))
    leak = np.linalg.norm(x0 - v1 @ (conj_transpose(v1) @ x0))
    return [
        ("lstsq_residual_optimal", _ratio(normal, na * (na * x0n + np.linalg.norm(b)))),
        ("lstsq_min_norm", _ratio(leak, x0n)),
    ]


def _trial_seed(seed, index):
    return int(np.random.SeedSequence([seed, 1, index]).generate_state(1, np.uint64)[0])


def trial_pair(seed, t):
    """Trial ``t`` of a run at ``seed``: its spec, holding the reported trial seed, and its pair."""
    specs = default_specs()
    spec = specs[t % len(specs)]._replace(seed=_trial_seed(seed, t))
    return spec, gen_pair(spec)


def trial_residuals(pair, aux):
    """Each per-pair residual, as (name, residual); ``aux`` feeds the solves, then the scale."""
    for q in (pair, pair.swapped):  # a's side, then b's
        yield from _factor_contract_residuals(q.fa, q.a)
        pr = np.maximum.reduce(penrose_residuals(q.a, q.pinv_a))
        yield "penrose", pr / (1.0 + q.fa.norm2 * q.fa.pinv_norm2)

    # independent route: factor the explicit pseudoinverse matrix, once for both checks
    fi = svd_factors(pair.pinv_a)
    yield "pinv_involution", float(np.abs(pinv(fi) - pair.a).max()) / (1.0 + pair.fa.norm2)

    if pair.rank_a >= 1:
        yield "pinv_spectral_reciprocal", abs(fi.sigma[0] * pair.fa.sigma1[-1] - 1.0)

    yield from _lstsq_residuals(pair, aux)
    yield from identity_checks(pair)

    rep = full_report(pair)
    yield from bound_checks(pair, rep)

    c = 10.0 ** aux.uniform(-1.0, 1.0)
    yield "scale_covariance", scale_covariance_residual(pair, rep, c)

    if pair.rank_b > pair.rank_a:
        sv = rep.by_name("singular_value_lower").value
        wit = rank_jump_witness(pair)
        yield "rank_jump_witness", np.maximum(0.0, wit - sv) / (1.0 + wit)

    # a trial where the corruption leaves alpha_upper unchanged cannot catch it
    corrupted = corrupted_alpha_upper(pair)
    if corrupted != rep.by_name("alpha_upper").value:
        dev = rep.exact_sq
        yield "mutation_sentinel", max(0.0, dev - corrupted) / (1.0 + dev)


def trace_residuals(seed, t):
    """The two trace-inequality residuals of trace trial ``t``, as (name, residual)."""
    rng = np.random.default_rng([seed, 2, t])
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 7))
    fld = "complex" if rng.integers(2) else "real"
    mm, nn = gaussian(rng, (2, m, n), fld)  # the real parts of both, then the imaginary
    vn = von_neumann_sum(mm, nn)
    u = haar_unitary(m, rng, fld)
    v = haar_unitary(n, rng, fld)
    yield "von_neumann_upper", np.maximum(0.0, trace_real(u @ mm @ v, nn) - vn) / (1.0 + vn)
    au, av = aligning_unitaries(mm, nn)
    yield "von_neumann_attainment", abs(trace_real(au @ mm @ av, nn) - vn) / (1.0 + vn)


def run_property_suite(trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, vn_trials=DEFAULT_VN_TRIALS):
    """Run every property over ``trials`` pairs drawn round-robin from ``default_specs()``.

    Pair trials are recorded under their trial seed (see ``trial_pair``),
    trace trials under their index.
    """
    props = {
        n: PropertyResult(name=n, tol=pr.tol, expect_violation=pr.expect_violation)
        for n, pr in PROPERTIES.items()
    }
    for t in range(trials):
        spec, pair = trial_pair(seed, t)
        aux = np.random.default_rng([spec.seed, 3])
        for name, resid in trial_residuals(pair, aux):
            props[name].record(resid, spec.seed)
    for t in range(vn_trials):
        for name, resid in trace_residuals(seed, t):
            props[name].record(resid, t)
    return SuiteResult(results=list(props.values()))
