"""Exact deviation identities, angle sandwich, trace inequality."""

from __future__ import annotations

import itertools
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pinvperturb import geometry
from pinvperturb.bounds import full_report, report_csv
from pinvperturb.geometry import (
    PerturbationPair,
    ProductNorms,
    _product_norms,
    aligning_unitaries,
    angle_bounds,
    cross_term_blocks,
    deviation_spectral,
    deviation_sq,
    energy_terms,
    equal_rank_angle_gap,
    identity_terms,
    make_pair,
    proof_identity_u,
    proof_identity_v,
    subspace_angles,
    trace_real,
    von_neumann_sum,
)
from pinvperturb.core import ShapeError, jacobi_svd, lstsq_min_norm, penrose_residuals
from pinvperturb.suite import _factor_contract_residuals, identity_checks
from pinvperturb.sweeps import SweepSpec, sweep_example

from helpers import BACKENDS, lowrank

# estimators taken as the tighter of a route and its a <-> b mirror
TWO_ROUTE_ROWS = (
    "li_full_rank_pair",
    "alpha_upper",
    "beta_upper",
    "gamma_upper",
    "delta_upper",
    "epsilon_upper",
    "alpha_lower",
    "beta_lower",
    "gamma_lower",
    "delta_lower",
    "epsilon_lower",
)

# the ProductNorms values derived from its fields, and the fields they mirror to
DERIVED_NORMS = {
    "na2": "nb2", "nb2": "na2", "nai2": "nbi2", "nbi2": "nai2",
    "na4": "nb4", "nb4": "na4", "nai4": "nbi4", "nbi4": "nai4", "ef": "ef",
}


def _all_pairs():
    rng = np.random.default_rng(29)
    for m, n in [(2, 2), (3, 2), (2, 3), (4, 4), (5, 3), (6, 6)]:
        for ra in range(min(m, n) + 1):
            for rb in range(min(m, n) + 1):
                for cplx in (False, True):
                    yield make_pair(
                        lowrank(rng, m, n, ra, cplx), lowrank(rng, m, n, rb, cplx)
                    )


def test_make_pair_shape_check():
    with pytest.raises(ShapeError):
        make_pair(np.eye(2), np.eye(3))


@pytest.mark.filterwarnings("error")
def test_overflowing_perturbation_names_it():
    # finite a and b whose difference is not: this was a numpy warning, and
    # the product norms failed on the inf in e
    big = 1e308 * np.eye(3)
    for tol in (None, 0.0):
        with pytest.raises(ArithmeticError, match=r"^perturbation failed: overflow"):
            make_pair(big, -big, tol=tol)
    with pytest.raises(ArithmeticError, match=r"^perturbation failed: overflow"):
        make_pair(np.array([np.eye(3), big]), np.array([np.eye(3), -big]))


def _long_pairs(rng):
    """Strongly tall and wide pairs, full rank and rank-deficient, real and complex."""
    for m, n in [(48, 4), (4, 48)]:
        for ra, rb in [(4, 4), (3, 4), (4, 2), (0, 3)]:
            for cplx in (False, True):
                yield lowrank(rng, m, n, ra, cplx), lowrank(rng, m, n, rb, cplx)


def test_product_norms_match_their_definitions():
    # pins every field, mirror side included, to the value it names
    checked = set()
    long_pairs = itertools.starmap(make_pair, _long_pairs(np.random.default_rng(31)))
    for p in itertools.chain(_all_pairs(), long_pairs):
        a, b, e, pa, pb = p.a, p.b, p.e, p.pinv_a, p.pinv_b
        wants = {name: np.linalg.norm(x, 2) for name, x in [("na", a), ("nb", b), ("nai", pa), ("nbi", pb)]}
        wants["e2"] = np.linalg.norm(e) ** 2
        for name, want in wants.items():
            assert getattr(p.norms, name) == pytest.approx(want, rel=1e-12), name
            checked.add(name)
        m, n = p.shape
        # I - a a+, I - a+ a, I - b b+ and I - b+ b
        la, ra = np.eye(m) - a @ pa, np.eye(n) - pa @ a
        lb, rb = np.eye(m) - b @ pb, np.eye(n) - pb @ b
        products = {
            "ae": (pa, e), "ea": (e, pa), "be": (pb, e), "eb": (e, pb),
            "x": (pb, e, pa), "y": (pa, e, pb),
            "aaeb": (a, pa, e, pb), "aebb": (pa, e, pb, b),
            "bbea": (b, pb, e, pa), "beaa": (pb, e, pa, a),
            "aebb_c": (pa, e, rb), "aaeb_c": (la, e, pb),
            "beaa_c": (pb, e, ra), "bbea_c": (lb, e, pa),
            "ebb_c": (e, rb), "aae_c": (la, e), "eaa_c": (e, ra), "bbe_c": (lb, e),
        }
        for name, factors in products.items():
            scale = 1.0 + np.prod([np.linalg.norm(f) for f in factors]) ** 2
            wants[name] = np.linalg.norm(np.linalg.multi_dot(factors)) ** 2
            assert getattr(p.norms, name) == pytest.approx(wants[name], abs=1e-12 * scale), name
            checked.add(name)
        # the _r and _1 sums against the differences they stand for, through
        # the spectral norms of the side they weigh by; none at its rank 0
        for name, cross, side in [
            ("aebb", "y", "b"), ("aaeb", "y", "a"), ("beaa", "x", "a"), ("bbea", "x", "b")
        ]:
            if wants[f"n{side}i"] == 0.0:
                continue
            low, high = wants[cross] / wants[f"n{side}i"] ** 2, wants[cross] * wants["n" + side] ** 2
            for field, want in [(name + "_r", wants[name] - low), (name + "_1", high - wants[name])]:
                scale = 1.0 + wants[name] + high
                assert getattr(p.norms, field) == pytest.approx(want, abs=1e-12 * scale), field
                checked.add(field)
    assert checked == set(ProductNorms._fields)
    # the a <-> b renaming maps the fields onto themselves, and fixes e2 alone
    assert {name.translate(geometry._SWAP_AB) for name in checked} == checked
    assert {name for name in checked if name.translate(geometry._SWAP_AB) == name} == {"e2"}
    # a stack gives each of its pairs the norms that pair gets alone
    rng = np.random.default_rng(37)
    for m, n, ra, rb in [(48, 4, 3, 4), (4, 48, 4, 2), (5, 5, 4, 5)]:
        a = np.array([lowrank(rng, m, n, ra, True) for _ in range(4)])
        b = np.array([lowrank(rng, m, n, rb, True) for _ in range(4)])
        stacked = make_pair(a, b).norms
        for i, alone in enumerate(make_pair(x, y).norms for x, y in zip(a, b)):
            for name in ProductNorms._fields + tuple(DERIVED_NORMS):
                want = getattr(alone, name)
                got = getattr(stacked, name)[i]
                assert got == pytest.approx(want, rel=4 * np.finfo(float).eps), name


@pytest.mark.xfail(
    os.environ.get("OPENBLAS_CORETYPE") == "Prescott",
    reason="the products of _oriented call OpenBLAS ddot or dgemv on a side of 1, and the SSE2 "
    "kernels of its Prescott core sum a row that is not 16-byte aligned in another order",
    strict=True,
)
def test_stacks_with_a_side_of_one_give_each_pair_its_bits():
    # real stacks of 2, 3 and 5 single-row or single-column pairs, whose
    # matrices sit at every 8-byte alignment
    rng = np.random.default_rng(43)
    for (m, n), count in itertools.product([(1, 3), (1, 5), (1, 7), (3, 1), (5, 1), (7, 1)], (2, 3, 5)):
        a, b = rng.standard_normal((2, count, m, n))
        stacked = make_pair(a, b).norms
        for i, alone in enumerate(make_pair(x, y).norms for x, y in zip(a, b)):
            for name in ProductNorms._fields:
                got, want = getattr(stacked, name)[i], getattr(alone, name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (m, n, count, i, name)


def test_product_norms_form_no_whole_size_product():
    # one 2000 x 2000 complex product, such as e b+, would take 64 MB
    rng = np.random.default_rng(41)
    p = make_pair(lowrank(rng, 2000, 4, 4, True), lowrank(rng, 2000, 4, 3, True))
    tracemalloc.start()
    try:
        p.norms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_pair_takes_a_weak_reference():
    # a benchmark's tracer keeps every pair it sees in a WeakValueDictionary
    p = make_pair(np.eye(2), 2.0 * np.eye(2))
    assert weakref.ref(p)() is p
    assert weakref.ref(p.swapped)() is p.swapped


def test_swapped_norms_equal_fresh_swapped_pair():
    for p in _all_pairs():
        fresh = PerturbationPair(
            a=p.b, b=p.a, e=-p.e, fa=p.fb, fb=p.fa, pinv_a=p.pinv_b, pinv_b=p.pinv_a
        )
        assert p.norms.swapped == _product_norms(fresh)
        assert p.swapped.norms is p.norms.swapped
        # the derived values follow their fields through the mirror, bit for bit
        for name, mirror in DERIVED_NORMS.items():
            got = getattr(p.norms.swapped, name)
            assert np.asarray(got).tobytes() == np.asarray(getattr(p.norms, mirror)).tobytes()


def test_two_route_rows_equal_on_swapped_pair():
    for p in _all_pairs():
        rep = full_report(p)
        rep_q = full_report(p.swapped)
        for name in TWO_ROUTE_ROWS:
            v, vq = rep.by_name(name), rep_q.by_name(name)
            assert (vq.applicable, vq.value) == (v.applicable, v.value), name
        # the mean of both delta routes keeps its summation order, which the
        # swap permutes: four nonnegative terms, so it agrees to a few ulps
        v, vq = rep.by_name("averaged_upper"), rep_q.by_name("averaged_upper")
        assert vq.applicable == v.applicable
        if v.applicable:
            assert vq.value == pytest.approx(v.value, rel=1e-14)


def test_identity_sums_equal_deviation():
    for p in _all_pairs():
        dev = deviation_sq(p)
        for q in (p, p.swapped):
            assert sum(identity_terms(q)) == pytest.approx(dev, abs=1e-9 * (1 + dev))


def test_cross_term_block_forms_agree():
    for p in _all_pairs():
        for q in (p, p.swapped):
            x_alt = cross_term_blocks(q)
            assert x_alt == pytest.approx(q.norms.x, abs=1e-9 * (1 + q.norms.x))


def test_proof_identities_both_orientations():
    for p in _all_pairs():
        for q in (p, p.swapped):
            lhs, rhs = proof_identity_u(q)
            assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + lhs + q.norms.eb))
            lhs, rhs = proof_identity_v(q)
            assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + lhs + q.norms.ae))


def test_energy_splits_equal_perturbation_energy():
    for p in _all_pairs():
        e2 = p.norms.e2
        for q in (p, p.swapped):
            assert sum(energy_terms(q)) == pytest.approx(e2, abs=1e-9 * (1 + e2))


def test_equal_rank_cross_masses_match():
    rng = np.random.default_rng(31)
    for m, n, r in [(3, 3, 2), (4, 3, 3), (3, 4, 1), (5, 5, 5)]:
        p = make_pair(lowrank(rng, m, n, r, True), lowrank(rng, m, n, r, True))
        assert p.rank_a == p.rank_b == r
        assert equal_rank_angle_gap(p) <= 1e-9


def test_angle_sandwich():
    for p in _all_pairs():
        dev = deviation_sq(p)
        slack = 1e-9 * (1 + dev)
        for q in (p, p.swapped):
            lower, upper = angle_bounds(q)
            assert dev <= upper + slack
            assert lower <= dev + slack


def test_known_split_for_diagonal_jump_case():
    # a = diag(1, 0) against b = diag(1/(1+2t), t) at t = 0.2:
    # route a splits as (1/t^2, 0, 4 t^2), route b as (0, 1/t^2, 4 t^2)
    t = 0.2
    p = make_pair(np.diag([1.0, 0.0]), np.diag([1.0 / (1.0 + 2.0 * t), t]))
    assert deviation_sq(p) == pytest.approx(4 * t**2 + 1 / t**2, rel=1e-12)
    t1, t2, x = identity_terms(p)
    assert (t1, t2, x) == pytest.approx((25.0, 0.0, 0.16), abs=1e-12)
    t1, t2, y = identity_terms(p.swapped)
    assert (t1, t2, y) == pytest.approx((0.0, 25.0, 0.16), abs=1e-12)
    u12, v21 = subspace_angles(p)
    assert u12 == pytest.approx(1.0, abs=1e-12)
    assert v21 == pytest.approx(0.0, abs=1e-12)


def test_deviation_norm_variants_consistent():
    rng = np.random.default_rng(37)
    p = make_pair(lowrank(rng, 5, 4, 3, True), lowrank(rng, 5, 4, 2, True))
    assert np.sqrt(deviation_sq(p)) ** 2 == pytest.approx(deviation_sq(p), rel=1e-12)
    assert deviation_spectral(p) <= np.sqrt(deviation_sq(p)) + 1e-12


def test_trace_real_basics():
    a = np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0 - 1.0j]])
    # Re tr(a b*) = Re((1+1j) + 2(1+1j)) = 3
    assert trace_real(a, b) == pytest.approx(3.0)
    with pytest.raises(ShapeError):
        trace_real(np.eye(2), np.eye(3))


def _check_von_neumann(mm, nn, rng):
    m, n = mm.shape
    vn = von_neumann_sum(mm, nn)
    qm = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    qn = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    assert trace_real(qm @ mm @ qn, nn) <= vn + 1e-9 * (1 + vn)
    u, v = aligning_unitaries(mm, nn)
    assert_allclose(u.conj().T @ u, np.eye(m), atol=1e-12)
    assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12)
    assert trace_real(u @ mm @ v, nn) == pytest.approx(vn, abs=1e-9 * (1 + vn))


def test_von_neumann_bound_and_attainment():
    rng = np.random.default_rng(41)
    for t in range(40):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        mm = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        nn = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        _check_von_neumann(mm, nn, rng)
    # rank-deficient and zero operands: their thin factors can have fewer columns
    # than the unitaries, so aligning_unitaries has to complete the bases
    for m, n in [(4, 3), (3, 5), (4, 4)]:
        for ra, rb in [(1, 2), (2, 1), (0, 2), (2, 0), (0, 0)]:
            _check_von_neumann(
                lowrank(rng, m, n, ra, True), lowrank(rng, m, n, rb, True), rng
            )
    # exact zero rows and columns leave exactly zero singular values
    mm = np.zeros((4, 3), dtype=complex)
    mm[:2, :2] = rng.standard_normal((2, 2))
    nn = np.zeros((4, 3), dtype=complex)
    nn[1:, 2] = rng.standard_normal(3)
    assert jacobi_svd(mm)[0].shape == (4, 2) and jacobi_svd(nn)[0].shape == (4, 1)
    _check_von_neumann(mm, nn, rng)
    _check_von_neumann(nn, mm, rng)


def test_report_and_solve_complete_no_basis(monkeypatch):
    # thin factors serve every report and solve: the preconditioning QR of
    # jacobi_svd is reduced, and only aligning_unitaries
    # completes a basis, with a Q wider than min(m, n)
    widths = []  # (columns of Q, or 0 without a Q, and min(m, n)) per QR call
    qr = np.linalg.qr

    def counting_qr(x, mode="reduced"):
        out = qr(x, mode=mode)
        widths.append((0 if mode == "r" else out[0].shape[-1], min(x.shape[-2:])))
        return out

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    rng = np.random.default_rng(47)
    a = lowrank(rng, 7, 4, 2, True)
    b = lowrank(rng, 7, 4, 3, True)
    full_report(make_pair(a, b))
    lstsq_min_norm(a, rng.standard_normal(7))
    # a and b factored in one stacked call and one solve, both
    # preconditioned; the spectral norms take no QR
    assert len(widths) == 2
    assert all(q <= k for q, k in widths)
    del widths[:]
    aligning_unitaries(a, b)
    assert any(q > k for q, k in widths)


def _aligning_unitaries_one_call_each(m_, n_):
    """The aligning unitaries from a factorization of each matrix alone."""
    um, _, vm = jacobi_svd(m_)
    un, _, vn = jacobi_svd(n_)
    um, vm, un, vn = map(geometry._complete, (um, vm, un, vn))
    return un @ um.conj().T, vm @ vn.conj().T


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_stacked_aligning_unitaries_equal_those_of_each_matrix_alone(backend):
    # the stack (m, n) cuts each matrix at its own count of nonzero singular
    # values: rank-deficient against full rank, tall and wide, real and
    # complex, and a zero matrix
    rng = np.random.default_rng(83)
    for (m, n), ranks in [((4, 3), (1, 3)), ((3, 5), (3, 2)), ((4, 4), (0, 4)), ((2, 6), (2, 0))]:
        for cplx in (False, True):
            mm, nn = (lowrank(rng, m, n, r, cplx) for r in ranks)
            for x, y in ((mm, nn), (nn, mm)):
                u, v = aligning_unitaries(x, y)
                ref_u, ref_v = _aligning_unitaries_one_call_each(x, y)
                assert u.tobytes() == ref_u.tobytes() and v.tobytes() == ref_v.tobytes()
                vn = von_neumann_sum(x, y)
                assert trace_real(u @ x @ v, y) == pytest.approx(vn, abs=1e-12 * (1 + vn))


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_real_matrix_with_a_complex_one_is_the_complex_pair(backend):
    # one dtype rule for the whole call: a real a with a complex b gives
    # every bit of the pair with a taken as complex, on either side
    rng = np.random.default_rng(89)
    for m, n, ra, rb in [(4, 3, 3, 2), (3, 5, 2, 3), (4, 4, 0, 4)]:
        a = lowrank(rng, m, n, ra, False)
        b = lowrank(rng, m, n, rb, True)
        for x, y in ((a, b), (b, a)):
            mixed, pure = make_pair(x, y), make_pair(x.astype(complex), y.astype(complex))
            for f in ("a", "b", "e", "pinv_a", "pinv_b"):
                assert getattr(mixed, f).dtype == np.complex128
                assert getattr(mixed, f).tobytes() == getattr(pure, f).tobytes(), f
            assert report_csv(full_report(mixed)) == report_csv(full_report(pure))
            assert identity_checks(mixed) == identity_checks(pure)
            assert von_neumann_sum(x, y) == von_neumann_sum(x.astype(complex), y)
            for got, want in zip(aligning_unitaries(x, y), aligning_unitaries(x.astype(complex), y)):
                assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()


def test_trace_helpers_reject_mismatched_shapes():
    for helper in (von_neumann_sum, aligning_unitaries):
        with pytest.raises(ShapeError, match=r"equal shapes, got \(3, 2\) and \(3, 4\)"):
            helper(np.ones((3, 2)), np.ones((3, 4)))


def test_von_neumann_diagonal_case():
    # diagonal matrices with decreasing entries align with the identity
    mm = np.diag([3.0, 1.0])
    nn = np.diag([2.0, 0.5])
    assert von_neumann_sum(mm, nn) == pytest.approx(6.5)
    assert trace_real(mm, nn) == pytest.approx(6.5)


def test_swap_pair_flips_roles():
    rng = np.random.default_rng(43)
    p = make_pair(lowrank(rng, 4, 3, 2, True), lowrank(rng, 4, 3, 3, True))
    q = p.swapped
    assert q.rank_a == p.rank_b
    assert_allclose(q.e, -p.e, atol=0.0)
    assert deviation_sq(q) == pytest.approx(deviation_sq(p), rel=1e-12)
    assert q.norms.x == pytest.approx(p.norms.y, rel=1e-12)


def test_identity_checks_form_each_leak_block_once(monkeypatch):
    # two leak blocks per orientation, cached on the pair and on its mirror
    rng = np.random.default_rng(47)
    calls = []
    outside = geometry._outside
    monkeypatch.setattr(geometry, "_outside", lambda q, p: calls.append(1) or outside(q, p))
    for ra, rb in [(3, 3), (2, 3)]:
        p = make_pair(lowrank(rng, 5, 4, ra, True), lowrank(rng, 5, 4, rb, True))
        del calls[:]
        identity_checks(p)
        assert len(calls) == 4, (ra, rb)
        assert p.swapped.swapped is p
        assert p.swapped.norms is p.norms.swapped
        # the mirror read first; then a fresh pair read before its mirror: the same bits
        q = make_pair(p.a, p.b)
        for first, then in ((p.swapped, p), (q, q.swapped)):
            assert (
                np.asarray(first.spectral_norms).tobytes()
                == np.asarray(then.spectral_norms).tobytes()
            )


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_spectral_norms_are_computed_only_when_read(backend, monkeypatch):
    # the identities, the mirror and a sweep read no spectral norm
    def refuse(x):
        raise AssertionError("spectral_norm called")

    monkeypatch.setattr(geometry, "spectral_norm", refuse)
    rng = np.random.default_rng(53)
    for ra, rb, count in [(3, 3, 1), (2, 3, 1), (3, 2, 4)]:
        a = np.array([lowrank(rng, 5, 4, ra, True) for _ in range(count)])
        b = np.array([lowrank(rng, 5, 4, rb, True) for _ in range(count)])
        p = make_pair(a, b)
        identity_checks(p)
        identity_checks(p.swapped)
        with pytest.raises(AssertionError, match="spectral_norm called"):
            deviation_spectral(p)
    for example in (1, 2):
        sweep_example(SweepSpec(example=example))


class _CountedSubtractions(np.ndarray):
    """An array that counts the subtractions it takes part in, in ``counts``."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.subtract:
            self.counts.append(1)
        plain = [np.asarray(x) if isinstance(x, _CountedSubtractions) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize(
    "m, n, ra, rb, stacked",
    [(4, 4, 3, 4, False), (6, 3, 3, 2, False), (3, 6, 2, 2, False), (5, 4, 3, 2, True)],
    ids=["square", "tall", "wide", "stacked"],
)
def test_deviation_is_formed_once_per_pair(m, n, ra, rb, stacked):
    rng = np.random.default_rng(53)
    a, b = (np.array([lowrank(rng, m, n, r, True) for _ in range(3)]) for r in (ra, rb))
    p = make_pair(a, b) if stacked else make_pair(a[0], b[0])
    want = p.pinv_b - p.pinv_a
    assert p.deviation.shape == want.shape and p.deviation.tobytes() == want.tobytes()
    # a report plus the identity checks subtract the pseudoinverses once
    counts = []
    pa, pb = (x.view(_CountedSubtractions) for x in (p.pinv_a, p.pinv_b))
    pa.counts = pb.counts = counts
    q = PerturbationPair(p.a, p.b, p.e, p.fa, p.fb, pa, pb)
    full_report(q)
    identity_checks(q)
    assert len(counts) == 1


IDENTITY_HELPERS = (
    identity_terms,
    cross_term_blocks,
    proof_identity_u,
    proof_identity_v,
    energy_terms,
    subspace_angles,
    equal_rank_angle_gap,
    angle_bounds,
    identity_checks,
    lambda p: p.leaks,
    lambda p: _factor_contract_residuals(p.fa, p.a),
    lambda p: penrose_residuals(p.a, p.pinv_a),
)


def _numbers(out):
    """Every array or number a helper returns, in order; the names of ``identity_checks`` dropped."""
    if isinstance(out, (tuple, list)):
        return [x for o in out for x in _numbers(o)]
    return [] if isinstance(out, str) else [np.asarray(out)]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_identity_helpers_take_a_stack(backend):
    # tall, wide, rank 0 on one side or both, unequal and equal ranks, real and complex
    rng = np.random.default_rng(53)
    cases = [
        (6, 3, 3, 2, True), (3, 6, 2, 3, False), (4, 4, 0, 2, True), (4, 4, 2, 0, False),
        (4, 3, 0, 0, False), (5, 5, 3, 3, True), (5, 4, 4, 4, False),
    ]
    for m, n, ra, rb, cplx in cases:
        a = np.array([lowrank(rng, m, n, ra, cplx) for _ in range(3)])
        b = np.array([lowrank(rng, m, n, rb, cplx) for _ in range(3)])
        stack = make_pair(a, b)
        assert (stack.rank_a, stack.rank_b) == (ra, rb)
        for i, alone in enumerate(map(make_pair, a, b)):
            for helper in IDENTITY_HELPERS:
                for q, sq in ((alone, stack), (alone.swapped, stack.swapped)):
                    want, got = _numbers(helper(q)), _numbers(helper(sq))
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert g[i].tobytes() == w.tobytes(), (m, n, ra, rb, cplx, helper)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_angle_sandwich_reads_the_proof_identity_masses(backend):
    # the sandwich's squared angle masses are the proof identities' left sides, bit for bit
    rng = np.random.default_rng(59)
    for m, n, ra, rb, cplx in [(6, 3, 3, 2, True), (3, 6, 2, 3, False), (4, 4, 0, 2, True),
                               (5, 5, 3, 3, True), (5, 4, 4, 4, False)]:
        a = np.array([lowrank(rng, m, n, ra, cplx) for _ in range(3)])
        b = np.array([lowrank(rng, m, n, rb, cplx) for _ in range(3)])
        for p in (make_pair(a, b), make_pair(a[0], b[0])):
            for q in (p, p.swapped):
                want = geometry._sandwich(proof_identity_u(q)[0], proof_identity_v(q)[0], q.norms)
                for g, w in zip(angle_bounds(q), want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), (m, n, ra, rb)
