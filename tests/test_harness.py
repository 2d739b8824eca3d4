"""Random ensembles, the property suite, and the parameter sweeps."""

from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pinvperturb import suite
from pinvperturb.bounds import ESTIMATORS, SQUARED, full_report
from pinvperturb.core import svd_factors
from pinvperturb.geometry import PerturbationPair, make_pair
from pinvperturb.randmat import (
    MAX_SIDE,
    EnsembleSpec,
    gen_fixed_rank,
    gaussian,
    gen_pair,
    haar_frame,
    haar_unitary,
)
from pinvperturb.bounds import TOL_BOUND
from pinvperturb.suite import (
    PropertyResult,
    _lstsq_residuals,
    _trial_seed,
    corrupted_alpha_upper,
    default_specs,
    ordering_violation,
    rank_jump_witness,
    run_property_suite,
    scale_covariance_residual,
    trace_residuals,
    trial_pair,
    trial_residuals,
)
from pinvperturb.sweeps import (
    SweepResult,
    SweepSpec,
    case_matrices,
    sweep_csv,
    sweep_example,
)

SUITE_PROPERTY_COUNT = 24


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=0, n=3, rank_a=0, rank_b=0),
        dict(m=3, n=MAX_SIDE + 1, rank_a=0, rank_b=0),
        dict(m=2, n=2, rank_a=3, rank_b=0),
        dict(m=2, n=2, rank_a=0, rank_b=-1),
        dict(m=2, n=2, rank_a=1, rank_b=1, field="quaternion"),
        dict(m=2, n=2, rank_a=1, rank_b=1, condition_cap=0.5),
        dict(m=2, n=2, rank_a=1, rank_b=1, condition_cap=float("inf")),
        dict(m=2.5, n=2, rank_a=1, rank_b=1),
        dict(m=2, n=2, rank_a=1.5, rank_b=1),
        dict(m=True, n=2, rank_a=1, rank_b=1),
        dict(m=2, n=2, rank_a=1, rank_b=1, condition_cap="x"),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        EnsembleSpec(**kwargs)
    # namedtuple's _replace builds through _make, which bypassed the checks
    with pytest.raises(ValueError):
        EnsembleSpec(m=2, n=2, rank_a=1, rank_b=1)._replace(**kwargs)


@pytest.mark.parametrize(
    "name,value",
    [("m", 2.5), ("n", 3.0), ("rank_a", 1.5), ("rank_b", "1"), ("m", True),
     ("rank_a", np.float64(1.0)), ("condition_cap", "x"), ("condition_cap", True),
     ("seed", 2.5), ("seed", "x"), ("seed", -1), ("seed", True), ("seed", None)],
)
def test_spec_error_names_a_value_of_the_wrong_type(name, value):
    # these passed the range checks, or failed them with a TypeError, and gen_pair raised TypeError;
    # a bad seed failed only in gen_pair, without naming the field, or (True, None) was taken
    kwargs = dict(m=3, n=3, rank_a=1, rank_b=1) | {name: value}
    message = rf"^{name} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        EnsembleSpec(**kwargs)
    with pytest.raises(ValueError, match=message):
        EnsembleSpec(m=3, n=3, rank_a=1, rank_b=1)._replace(**{name: value})


def test_spec_takes_numpy_integers():
    spec = EnsembleSpec(*np.array([4, 3, 2, 3]), seed=np.uint32(7), condition_cap=np.float64(1e4))
    assert gen_pair(spec).rank_a == 2
    assert_array_equal(gen_pair(spec).a, gen_pair(EnsembleSpec(4, 3, 2, 3, seed=7, condition_cap=1e4)).a)


def test_nan_condition_cap_rejected():
    # nan passed a `cap < 1` check and failed later inside rng.uniform
    with pytest.raises(ValueError, match="condition_cap must be at least 1"):
        EnsembleSpec(m=3, n=3, rank_a=2, rank_b=2, condition_cap=float("nan"), seed=1)


def test_gen_fixed_rank_rejects_rank_outside_the_shape():
    spec = EnsembleSpec(m=3, n=3, rank_a=2, rank_b=2)
    for rank in (5, -1):
        with pytest.raises(ValueError, match=rf"rank must be in 0\.\.3, got {rank}"):
            gen_fixed_rank(spec, rank=rank)
    # 1.5 failed in numpy with a TypeError, True ran as rank 1 into rng.uniform
    for rank in (1.5, True, "2"):
        with pytest.raises(ValueError, match=rf"rank must be an integer, got {rank!r}"):
            gen_fixed_rank(spec, rank=rank)
    assert_array_equal(gen_fixed_rank(spec, rank=np.int64(1)), gen_fixed_rank(spec, rank=1))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_haar_frame_orthonormal(field):
    rng = np.random.default_rng(7)
    q = haar_frame(6, 4, rng, field)
    assert q.shape == (6, 4)
    assert_allclose(q.conj().T @ q, np.eye(4), atol=1e-12)
    if field == "real":
        assert np.all(q.imag == 0.0)
    u = haar_unitary(5, rng, field)
    assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
    # past m columns, QR returned an m x m frame
    with pytest.raises(ValueError, match=r"m=3, k=4"):
        haar_frame(3, 4, rng, field)
    # numpy's own errors named neither argument
    with pytest.raises(ValueError, match=r"m=3, k=-1"):
        haar_frame(3, -1, rng, field)
    for m, k, message in (
        (3, 1.5, "k must be an integer, got 1.5"),
        (3, True, "k must be an integer, got True"),
        (2.0, 1, "m must be an integer, got 2.0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            haar_frame(m, k, rng, field)
    assert haar_frame(np.int64(3), np.int64(0), rng, field).shape == (3, 0)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(5,), (4, 3), (2, 3, 4)], ids=str)
def test_gaussian_is_the_per_call_stream(shape, field):
    # the draws the library made one matrix at a time: every real part in
    # turn, then every imaginary part; a (2, m, n) draw stands for two m x n ones
    mine, ref = np.random.default_rng(5), np.random.default_rng(5)
    g = gaussian(mine, shape, field)
    mats = [shape[1:]] * shape[0] if len(shape) == 3 else [shape]
    parts = [
        np.array([ref.standard_normal(s) for s in mats]).reshape(shape)
        for _ in range(1 + (field == "complex"))
    ]
    want = parts[0] if field == "real" else parts[0] + 1j * parts[1]
    assert g.dtype == want.dtype and g.shape == shape
    assert g.tobytes() == want.tobytes()
    assert mine.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


def test_haar_frame_deterministic():
    a = haar_frame(5, 3, np.random.default_rng(11), "complex")
    b = haar_frame(5, 3, np.random.default_rng(11), "complex")
    assert np.array_equal(a, b)


def test_gen_fixed_rank_properties():
    for m, n, r, field in [(5, 4, 3, "real"), (4, 6, 2, "complex"), (3, 3, 0, "real")]:
        sp = EnsembleSpec(m=m, n=n, rank_a=r, rank_b=r, field=field, seed=13)
        a = gen_fixed_rank(sp)
        assert a.shape == (m, n)
        f = svd_factors(a)
        assert f.rank == r
        if r >= 1:
            assert f.sigma1[0] == pytest.approx(1.0, rel=1e-12)
            assert f.sigma1[-1] >= 1.0 / sp.condition_cap * 0.999
        assert np.array_equal(a, gen_fixed_rank(sp))


def test_gen_fixed_rank_separation_guard():
    sp = EnsembleSpec(
        m=6, n=6, rank_a=6, rank_b=6, field="real", seed=0, condition_cap=1e15
    )
    with pytest.raises(ValueError, match="cutoff"):
        gen_fixed_rank(sp)


def test_gen_pair_ranks_and_determinism():
    sp = EnsembleSpec(m=6, n=5, rank_a=3, rank_b=4, field="complex", seed=17)
    p = gen_pair(sp)
    assert p.rank_a == 3
    assert p.rank_b == 4
    q = gen_pair(sp)
    assert np.array_equal(p.a, q.a)
    assert np.array_equal(p.b, q.b)


def test_default_specs_cover_rank_relations():
    specs = default_specs()
    assert all(isinstance(s, EnsembleSpec) for s in specs)
    rels = {(s.m, s.n, s.rank_a, s.rank_b) for s in specs}
    assert (8, 8, 8, 8) in {(s.m, s.n, s.rank_a, s.rank_b) for s in specs}
    assert any(ra == 0 and rb > 0 for (_, _, ra, rb) in rels)
    assert any(ra > 0 and rb == 0 for (_, _, ra, rb) in rels)
    assert any(ra == rb == 0 for (_, _, ra, rb) in rels)
    assert any(0 < ra < rb for (_, _, ra, rb) in rels)
    assert {s.field for s in specs} == {"real", "complex"}
    assert max(max(s.m, s.n) for s in specs) <= 8


def test_trial_seed_deterministic_and_distinct():
    seeds = [_trial_seed(1729, i) for i in range(10)]
    assert seeds == [_trial_seed(1729, i) for i in range(10)]
    assert len(set(seeds)) == 10
    assert seeds != [_trial_seed(1730, i) for i in range(10)]


def test_suite_short_run_passes():
    res = run_property_suite(trials=48, seed=1729, vn_trials=12)
    assert len(res.results) == SUITE_PROPERTY_COUNT
    assert res.passed
    lines = res.format_lines()
    assert len(lines) == SUITE_PROPERTY_COUNT
    assert all(ln.startswith("PASS") for ln in lines)
    sentinel = next(r for r in res.results if r.name == "mutation_sentinel")
    assert sentinel.expect_violation
    assert sentinel.failures > 0
    assert "violations expected" in lines[-1]


def test_suite_is_deterministic():
    a = run_property_suite(trials=24, seed=99, vn_trials=6)
    b = run_property_suite(trials=24, seed=99, vn_trials=6)
    assert a.format_lines() == b.format_lines()


@pytest.mark.parametrize(
    "seed, trial, shape, field",
    [(4, 305, (6, 6), "complex"), (5, 165, (8, 8), "complex"),
     (10, 164, (8, 8), "real"), (11, 165, (8, 8), "complex")],
)
def test_orderings_hold_on_ill_conditioned_full_rank_pairs(seed, trial, shape, field):
    # suite trials where alpha and beta both equal x exactly and |a+| is in
    # the thousands; differences of squared norms put them 2e-8 out of order
    sp, p = trial_pair(seed, trial)
    assert (p.shape, p.rank_a, p.rank_b, sp.field) == (shape, min(shape), min(shape), field)
    assert ordering_violation(full_report(p), p) <= TOL_BOUND


@pytest.mark.parametrize(
    "seed, trial, shape, ranks, field",
    [(5, 277, (3, 5), (1, 3), "complex"), (8, 186, (7, 2), (1, 2), "real"),
     (9, 187, (7, 2), (1, 2), "complex")],
)
def test_orderings_hold_on_worst_rank_deficient_pairs(seed, trial, shape, ranks, field):
    # the worst bound_orderings trials of their seeds: rank-deficient a with
    # |b+| in the thousands, where gamma_upper's differences of squared norms
    # put it 2e-9 to 8e-9 (relative, by kernel) below alpha_upper
    sp, p = trial_pair(seed, trial)
    assert (p.shape, (p.rank_a, p.rank_b), sp.field) == (shape, ranks, field)
    assert ordering_violation(full_report(p), p) <= TOL_BOUND


def test_sentinel_violates_on_rank_deficient_a():
    # zero a forces the corrupted estimator below the exact deviation
    p = make_pair(np.zeros((2, 2)), np.diag([1.0, 0.5]))
    rep = full_report(p)
    assert corrupted_alpha_upper(p) < rep.exact_sq - 1.0


def test_rank_jump_witness_spot_and_floor():
    t = 0.2
    p = make_pair(*case_matrices(1, t))
    assert rank_jump_witness(p) == pytest.approx(17.96, rel=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        k = min(m, n)
        ra = int(rng.integers(0, k))
        rb = int(rng.integers(ra + 1, k + 1))
        sp = EnsembleSpec(
            m=m, n=n, rank_a=ra, rank_b=rb, field="complex",
            seed=int(rng.integers(2**31)), condition_cap=1e3,
        )
        q = gen_pair(sp)
        wit = rank_jump_witness(q)
        sv = full_report(q).by_name("singular_value_lower").value
        assert wit <= sv + 1e-8 * (1.0 + wit)


def test_scale_covariance_small_on_random_pair():
    sp = EnsembleSpec(m=5, n=4, rank_a=3, rank_b=2, field="complex", seed=31)
    p = gen_pair(sp)
    rep = full_report(p)
    for c in (0.1, 3.0, 40.0):
        assert scale_covariance_residual(p, rep, c) < 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(example=3),
        dict(example=1, tau_min=0.05),
        dict(example=1, tau_max=0.5),
        dict(example=1, tau_min=0.4, tau_max=0.2),
        dict(example=2, steps=0),
        # these ran sweep 1, a 1-point sweep, or failed later with a TypeError
        dict(example=True),
        dict(example=1.0),
        dict(example=1, steps=True),
        dict(example=1, steps=2.5),
        dict(example=1, tau_min="0.2"),
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)
    # namedtuple's _replace builds through _make, which bypassed the checks
    with pytest.raises(ValueError):
        SweepSpec(example=2)._replace(**kwargs)


@pytest.mark.parametrize(
    "name,value",
    [("example", True), ("example", 1.0), ("steps", True), ("steps", 2.5),
     ("tau_min", "0.2"), ("tau_max", None)],
)
def test_sweep_spec_error_names_a_value_of_the_wrong_type(name, value):
    message = rf"^{name} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        SweepSpec(**{"example": 1, name: value})
    with pytest.raises(ValueError, match=message):
        SweepSpec(example=1)._replace(**{name: value})


def test_sweep_spec_takes_numpy_numbers():
    spec = SweepSpec(np.int64(1), np.float64(0.2), np.float64(0.3), steps=np.uint8(5))
    assert sweep_csv(sweep_example(spec)) == sweep_csv(sweep_example(SweepSpec(1, 0.2, 0.3, 5)))


def _records():
    """One instance of each read-only record, with its fields and cached values."""
    p = make_pair(np.eye(2), np.diag([2.0, 0.0]))
    rep = full_report(p)
    named = (
        p.fa, rep, rep.values[0], ESTIMATORS[0],
        EnsembleSpec(m=2, n=2, rank_a=1, rank_b=1), SweepSpec(example=1),
        sweep_example(SweepSpec(example=1, steps=3)),
    )
    yield from ((r, r._fields) for r in named)
    yield p.norms, p.norms._fields + ("na2", "ef", "swapped")
    yield p, ("a", "b", "e", "fa", "fb", "pinv_a", "pinv_b", "norms", "swapped")


def test_records_are_read_only():
    for record, fields in _records():
        for name in fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value, (type(record).__name__, name)


def test_case_matrices_values():
    a, b = case_matrices(1, 0.2)
    assert_allclose(a, np.diag([1.0, 0.0]))
    assert_allclose(b, np.diag([1.0 / 1.4, 0.2]))
    a, b = case_matrices(2, 0.25)
    assert_allclose(b, np.diag([0.2, 0.5]))
    with pytest.raises(ValueError):
        case_matrices(3, 0.2)


@pytest.mark.parametrize("example", [1, 2])
def test_sweep_matches_closed_forms(example):
    res = sweep_example(SweepSpec(example=example, steps=25))
    assert res.taus.shape == (25,)
    diffs = [name for name in res.columns if name.endswith("_diff")]
    assert diffs
    for name in diffs:
        diff = float(np.max(res.columns[name]))
        assert diff <= 1e-9, f"{name} off by {diff}"
    for name in res.columns:
        assert res.columns[name].shape == (25,)


def test_sweep_single_point():
    res = sweep_example(SweepSpec(example=1, tau_min=0.2, tau_max=0.2, steps=1))
    assert res.taus.tolist() == [0.2]
    assert res.columns["exact"][0] == pytest.approx(25.16, rel=1e-12)


def test_sweep_csv_layout_and_determinism():
    spec = SweepSpec(example=2, steps=7)
    text = sweep_csv(sweep_example(spec))
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[0] == "tau"
    assert "exact" in header and "exact_closed" in header and "exact_diff" in header
    assert "gamma_lower" in header and "delta_lower" in header
    assert len(lines) == 8
    assert all(len(ln.split(",")) == len(header) for ln in lines[1:])
    assert float(lines[1].split(",")[0]) == 0.101
    assert text == sweep_csv(sweep_example(spec))


def _sweep_csv_per_row(result):
    """Reference: one ``.17g`` template per row; ``sweep_csv`` matches it byte for byte."""
    names = list(result.columns)
    row = ",".join(["{:.17g}"] * (len(names) + 1))
    values = zip(result.taus.tolist(), *(result.columns[c].tolist() for c in names))
    return "\n".join([",".join(["tau"] + names), *(row.format(*v) for v in values)]) + "\n"


@pytest.mark.parametrize("example", [1, 2])
def test_sweep_csv_matches_per_row_rendering(example):
    res = sweep_example(SweepSpec(example=example))
    assert sweep_csv(res) == _sweep_csv_per_row(res)


def test_sweep_csv_keeps_negative_zero_and_equal_columns():
    taus = np.array([0.2, 0.3, 0.4])
    same = np.array([1.5, -0.0, 2.0**-1074])
    res = SweepResult(
        spec=SweepSpec(example=1, tau_min=0.2, tau_max=0.4, steps=3),
        taus=taus,
        columns={"x": same, "x_closed": same.copy(), "x_diff": np.array([0.0, -0.0, 0.0])},
    )
    text = sweep_csv(res)
    assert text == _sweep_csv_per_row(res)
    assert text.splitlines()[2] == "0.29999999999999999,-0,-0,-0"


def test_nan_residual_fails_and_stays_the_worst():
    r = PropertyResult(name="x", tol=1e-9)
    r.record(1e-12, 5)
    r.record(float("nan"), 7)
    r.record(1.0, 8)
    assert (r.trials, r.failures, r.worst_seed) == (3, 2, 7)
    assert np.isnan(r.worst) and not r.passed


def _with_nan(rep, name):
    """``rep`` with row ``name`` reading nan."""
    values = tuple(v._replace(value=np.float64("nan")) if v.name == name else v for v in rep.values)
    return rep._replace(values=values)


# Python's max(0.0, nan) is 0.0, so each residual below read a nan as no violation


def test_ordering_violation_keeps_a_nan():
    _, p = trial_pair(1729, 0)
    assert np.isnan(ordering_violation(_with_nan(full_report(p), "beta_upper"), p))


def test_scale_covariance_keeps_a_nan():
    _, p = trial_pair(1729, 0)
    rep = full_report(p)
    squared = next(v.name for v in rep.values if v.applicable and v.target == SQUARED)
    norm = next(v.name for v in rep.values if v.applicable and v.target != SQUARED)
    for name in (squared, norm):
        assert np.isnan(scale_covariance_residual(p, _with_nan(rep, name), 3.0)), name


def test_lstsq_residuals_keep_a_nan():
    _, p = trial_pair(1729, 0)
    q = PerturbationPair(p.a, p.b, p.e, p.fa, p.fb, np.full_like(p.pinv_a, np.nan), p.pinv_b)
    for name, resid in _lstsq_residuals(q, np.random.default_rng(0)):
        assert np.isnan(resid), name


def _lstsq(p):
    return dict(_lstsq_residuals(p, np.random.default_rng(0)))


def _with_pinv_a(p, pinv_a):
    return PerturbationPair(p.a, p.b, p.e, p.fa, p.fb, pinv_a, p.pinv_b)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_lstsq_conditions_see_a_relative_error_of_1e_8(field):
    # a+ scaled by 1 + 1e-8 breaks only the normal equations, and a 1e-8
    # null-space leak only x0's place in range(a*): each condition sees its own
    a = gen_fixed_rank(EnsembleSpec(4, 5, 3, 3, field, seed=0, condition_cap=10.0))
    p = make_pair(a, a)
    tol = suite.TOL_IDENTITY
    assert max(_lstsq(p).values()) < tol
    scaled = _lstsq(_with_pinv_a(p, p.pinv_a * (1.0 + 1e-8)))
    assert scaled["lstsq_residual_optimal"] > tol and scaled["lstsq_min_norm"] < tol
    rng = np.random.default_rng(1)
    g = gaussian(rng, 5, field)
    w = g - p.fa.v1 @ (p.fa.v1.conj().T @ g)  # in the null space of a
    z = gaussian(rng, 4, field).conj()
    leak = np.outer(w / np.linalg.norm(w), z / np.linalg.norm(z)) * np.linalg.norm(p.pinv_a, 2)
    leaked = _lstsq(_with_pinv_a(p, p.pinv_a + 1e-8 * leak))
    assert leaked["lstsq_min_norm"] > tol and leaked["lstsq_residual_optimal"] < tol


def test_lstsq_conditions_are_scale_free():
    # a pair and 2^k times it, with the same right-hand side, read the same bits
    nonzero = 0
    for t in range(100):
        _, p = trial_pair(1729, t)
        want = _lstsq(p)
        nonzero += sum(r != 0.0 for r in want.values())
        for k in (-400, -200, 200, 400):
            s = np.ldexp(1.0, k)
            assert _lstsq(make_pair(s * p.a, s * p.b)) == want, (t, k)
    assert nonzero > 100


def test_trial_and_trace_residuals_keep_a_nan(monkeypatch):
    monkeypatch.setattr(suite, "penrose_residuals", lambda a, x: (0.0, np.nan, 0.0, 0.0))
    monkeypatch.setattr(suite, "rank_jump_witness", lambda p: np.nan)
    p = make_pair(*case_matrices(1, 0.2))  # b's rank is a's plus one
    got = dict(trial_residuals(p, np.random.default_rng(0)))
    assert np.isnan(got["penrose"]) and np.isnan(got["rank_jump_witness"])
    monkeypatch.setattr(suite, "trace_real", lambda m, n: np.nan)
    got = dict(trace_residuals(1729, 0))
    assert np.isnan(got["von_neumann_upper"]) and np.isnan(got["von_neumann_attainment"])
