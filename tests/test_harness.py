"""Random ensembles, the property suite, and the parameter sweeps."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pinvperturb.bounds import full_report
from pinvperturb.core import svd_factors
from pinvperturb.geometry import make_pair
from pinvperturb.randmat import (
    MAX_SIDE,
    EnsembleSpec,
    gen_fixed_rank,
    gen_pair,
    haar_frame,
    haar_unitary,
)
from pinvperturb.bounds import TOL_BOUND
from pinvperturb.suite import (
    PropertyResult,
    _trial_seed,
    corrupted_alpha_upper,
    default_specs,
    ordering_violation,
    rank_jump_witness,
    run_property_suite,
    scale_covariance_residual,
    trial_pair,
)
from pinvperturb.sweeps import (
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
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        EnsembleSpec(**kwargs)


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
    specs = default_specs(seed=5)
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
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


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


def test_nan_residual_fails_and_stays_the_worst():
    r = PropertyResult(name="x", tol=1e-9)
    r.record(1e-12, 5)
    r.record(float("nan"), 7)
    r.record(1.0, 8)
    assert (r.trials, r.failures, r.worst_seed) == (3, 2, 7)
    assert np.isnan(r.worst) and not r.passed
