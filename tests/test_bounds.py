"""Estimator family against hand-derived closed forms and mutual orderings."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from pinvperturb import bounds
from pinvperturb.bounds import (
    MU,
    BoundReport,
    Estimator,
    Requirement,
    envelope_ok,
    envelope_residual,
    equal_rank_multiplier,
    evaluate_all,
    full_report,
    norm_bounds_ok,
    norm_residual,
    report_csv,
    report_table,
)
from pinvperturb.geometry import make_pair

from helpers import lowrank

EXPECTED_ORDER = [
    "wedin_spectral",
    "wedin_frobenius",
    "wedin_unitarily_invariant",
    "wedin_equal_rank_spectral",
    "wedin_equal_rank_frobenius",
    "wedin_equal_rank_unitarily_invariant",
    "meng_zheng",
    "meng_zheng_equal_rank",
    "li_refined",
    "li_full_column_rank",
    "li_full_rank_pair",
    "singular_value_upper",
    "alpha_upper",
    "beta_upper",
    "gamma_upper",
    "delta_upper",
    "epsilon_upper",
    "averaged_upper",
    "singular_value_lower",
    "alpha_lower",
    "beta_lower",
    "gamma_lower",
    "delta_lower",
    "epsilon_lower",
]


def _rank_drop_pair(t):
    return make_pair(np.diag([1.0, 0.0]), np.diag([1.0 / (1.0 + 2.0 * t), t]))


def _rank_swap_pair(t):
    return make_pair(np.diag([1.0, 0.0]), np.diag([t / (1.0 + t), 2.0 * t]))


@pytest.mark.parametrize("t", [0.15, 0.2, 0.3, 0.45])
def test_rank_drop_closed_forms(t):
    rep = full_report(_rank_drop_pair(t))
    exact = 4.0 * t**2 + 1.0 / t**2
    assert rep.exact_sq == pytest.approx(exact, rel=1e-10)
    assert rep.by_name("li_refined").value == pytest.approx(
        exact + 4.0 / (t**2 * (1.0 + 2.0 * t) ** 2) - 4.0, abs=1e-9
    )
    for name in ("alpha_upper", "beta_upper", "delta_upper"):
        assert rep.by_name(name).value == pytest.approx(exact, abs=1e-9)
    assert rep.by_name("gamma_upper").value == pytest.approx(
        exact + 4.0 * t**2 / (1.0 + 2.0 * t) ** 2 - 4.0 * t**4, abs=1e-9
    )
    total = 1.0 + (1.0 + 2.0 * t) ** 2 + 1.0 / t**2
    assert rep.by_name("singular_value_lower").value == pytest.approx(
        total - 2.0 / t, abs=1e-9
    )
    assert rep.by_name("singular_value_upper").value == pytest.approx(
        total + 2.0 / t, abs=1e-9
    )


def test_rank_drop_envelope_spot():
    rep = full_report(_rank_drop_pair(0.2))
    assert rep.exact_sq == pytest.approx(25.16, rel=1e-12)
    assert rep.envelope[0] == pytest.approx(17.96, abs=1e-9)
    assert rep.envelope[1] == pytest.approx(25.16, abs=1e-9)
    assert envelope_ok(rep)
    assert norm_bounds_ok(rep)


@pytest.mark.parametrize("t", [0.15, 0.25, 0.45])
def test_rank_swap_closed_forms(t):
    rep = full_report(_rank_swap_pair(t))
    exact = 5.0 / (4.0 * t**2)
    assert rep.exact_sq == pytest.approx(exact, rel=1e-10)
    assert rep.by_name("alpha_lower").value == pytest.approx(exact, abs=1e-9)
    assert rep.by_name("gamma_lower").value == pytest.approx(
        exact + 1.0 / (1.0 + t) ** 2 - 4.0, abs=1e-9
    )
    assert rep.by_name("delta_lower").value == pytest.approx(
        4.0 * t**2 + 1.0 / t**2, abs=1e-9
    )
    total = 1.0 + (1.0 + t) ** 2 / t**2 + 1.0 / (4.0 * t**2)
    aligned = (1.0 + t) / t
    assert rep.by_name("singular_value_lower").value == pytest.approx(
        total - 2.0 * aligned, abs=1e-9
    )
    assert envelope_ok(rep)


def test_multiplier_table():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    assert MU["spectral"] == pytest.approx(phi)
    assert MU["frobenius"] == pytest.approx(np.sqrt(2.0))
    assert MU["unitarily_invariant"] == 3.0
    # full square rank
    for norm in MU:
        assert equal_rank_multiplier(3, 3, 3, norm) == 1.0
    # full rank, rectangular
    assert equal_rank_multiplier(4, 3, 3, "spectral") == pytest.approx(np.sqrt(2.0))
    assert equal_rank_multiplier(4, 3, 3, "frobenius") == 1.0
    assert equal_rank_multiplier(4, 3, 3, "unitarily_invariant") == 2.0
    # genuinely rank deficient, square or not
    for m, n in [(4, 3), (3, 3)]:
        assert equal_rank_multiplier(m, n, 2, "spectral") == pytest.approx(phi)
        assert equal_rank_multiplier(m, n, 2, "frobenius") == pytest.approx(np.sqrt(2.0))
        assert equal_rank_multiplier(m, n, 2, "unitarily_invariant") == 3.0


def test_attainment_for_aligned_diagonal():
    # a = I, b = 2I: the equal-rank unsquared bounds and the full-rank
    # squared bound all collapse onto the exact deviation
    rep = full_report(make_pair(np.eye(2), 2.0 * np.eye(2)))
    assert rep.exact_sq == pytest.approx(0.5, rel=1e-12)
    assert rep.by_name("wedin_equal_rank_frobenius").value == pytest.approx(
        rep.exact_fro, rel=1e-12
    )
    assert rep.by_name("wedin_equal_rank_spectral").value == pytest.approx(
        rep.exact_spectral, rel=1e-12
    )
    assert rep.by_name("meng_zheng_equal_rank").value == pytest.approx(
        rep.exact_fro, rel=1e-12
    )
    assert rep.by_name("li_full_rank_pair").value == pytest.approx(0.5, rel=1e-12)


def test_skip_reasons_unequal_ranks():
    rep = full_report(make_pair(np.diag([1.0, 0.0]), np.eye(2)))
    for name in (
        "wedin_equal_rank_spectral",
        "wedin_equal_rank_frobenius",
        "meng_zheng_equal_rank",
        "epsilon_upper",
        "epsilon_lower",
    ):
        v = rep.by_name(name)
        assert not v.applicable
        assert v.value is None
        assert "equal ranks" in v.reason
    # a has full column rank but b-side variant needs both
    assert rep.by_name("li_full_column_rank").applicable is False
    assert rep.by_name("li_full_rank_pair").applicable is False


def test_unitarily_invariant_rows_declared_only():
    rep = full_report(make_pair(np.eye(2), 2.0 * np.eye(2)))
    for name in ("wedin_unitarily_invariant", "wedin_equal_rank_unitarily_invariant"):
        v = rep.by_name(name)
        assert not v.applicable
        assert "unitarily invariant" in v.reason
    # equal-rank full-square case quotes its constant 1
    assert "constant 1" in rep.by_name("wedin_equal_rank_unitarily_invariant").reason
    assert "constant 3" in rep.by_name("wedin_unitarily_invariant").reason


def _ui_reason(constant):
    return f"constant {constant} holds for every unitarily invariant norm; no single norm to evaluate"


PINV_ZERO = "needs both operands nonzero, a pseudoinverse norm is 0"
SPECTRAL_ZERO = "needs both operands nonzero, a spectral norm is 0"


# reasons depend only on ranks and exact zero tests, so they are exact on any BLAS
@pytest.mark.parametrize(
    "a, b, reasons",
    [
        (
            np.zeros((3, 2)),
            np.zeros((3, 2)),
            {
                "wedin_unitarily_invariant": _ui_reason(3),
                "wedin_equal_rank_unitarily_invariant": _ui_reason(3),
                "li_refined": PINV_ZERO,
                "li_full_column_rank": "needs full column rank of a, got rank 0 of 2",
                "li_full_rank_pair": "needs both ranks equal to 2, got 0 and 0",
                "gamma_upper": PINV_ZERO,
                "delta_upper": PINV_ZERO,
                "epsilon_upper": PINV_ZERO,
                "averaged_upper": PINV_ZERO,
                "alpha_lower": SPECTRAL_ZERO,
                "beta_lower": SPECTRAL_ZERO,
                "gamma_lower": SPECTRAL_ZERO,
                "delta_lower": "needs a nonzero operand, both spectral norms are 0",
                "epsilon_lower": SPECTRAL_ZERO,
            },
        ),
        (
            np.diag([1.0, 0.0]),
            np.eye(2),
            {
                "wedin_unitarily_invariant": _ui_reason(3),
                "wedin_equal_rank_spectral": "needs equal ranks, got 1 and 2",
                "wedin_equal_rank_frobenius": "needs equal ranks, got 1 and 2",
                "wedin_equal_rank_unitarily_invariant": "needs equal ranks, got 1 and 2",
                "meng_zheng_equal_rank": "needs equal ranks, got 1 and 2",
                "li_full_column_rank": "needs full column rank of a, got rank 1 of 2",
                "li_full_rank_pair": "needs both ranks equal to 2, got 1 and 2",
                "epsilon_upper": "needs equal ranks, got 1 and 2",
                "epsilon_lower": "needs equal ranks, got 1 and 2",
            },
        ),
        (
            np.eye(3)[:, :2],
            np.zeros((3, 2)),
            {
                "wedin_unitarily_invariant": _ui_reason(3),
                "wedin_equal_rank_spectral": "needs equal ranks, got 2 and 0",
                "wedin_equal_rank_frobenius": "needs equal ranks, got 2 and 0",
                "wedin_equal_rank_unitarily_invariant": "needs equal ranks, got 2 and 0",
                "meng_zheng_equal_rank": "needs equal ranks, got 2 and 0",
                "li_refined": PINV_ZERO,
                "li_full_column_rank": "needs b nonzero, its pseudoinverse norm is 0",
                "li_full_rank_pair": "needs both ranks equal to 2, got 2 and 0",
                "gamma_upper": PINV_ZERO,
                "delta_upper": PINV_ZERO,
                "epsilon_upper": "needs equal ranks, got 2 and 0",
                "averaged_upper": PINV_ZERO,
                "alpha_lower": SPECTRAL_ZERO,
                "beta_lower": SPECTRAL_ZERO,
                "gamma_lower": SPECTRAL_ZERO,
                "epsilon_lower": "needs equal ranks, got 2 and 0",
            },
        ),
        (
            np.eye(2),
            2.0 * np.eye(2),
            {
                "wedin_unitarily_invariant": _ui_reason(3),
                "wedin_equal_rank_unitarily_invariant": _ui_reason(1),
            },
        ),
        (
            np.eye(3)[:, :2],
            2.0 * np.eye(3)[:, :2],
            {
                "wedin_unitarily_invariant": _ui_reason(3),
                "wedin_equal_rank_unitarily_invariant": _ui_reason(2),
            },
        ),
        (
            np.diag([1.0, 0.0, 0.0]),
            np.diag([2.0, 0.0, 0.0]),
            {
                "wedin_unitarily_invariant": _ui_reason(3),
                "wedin_equal_rank_unitarily_invariant": _ui_reason(3),
                "li_full_column_rank": "needs full column rank of a, got rank 1 of 3",
                "li_full_rank_pair": "needs both ranks equal to 3, got 1 and 1",
            },
        ),
    ],
    ids=["zero", "rank_one_vs_identity", "b_zero", "nu1_square", "nu2_rectangular", "nu3_deficient"],
)
def test_inapplicable_reasons_exact(a, b, reasons):
    values = evaluate_all(make_pair(a, b))
    assert {v.name: v.reason for v in values if not v.applicable} == reasons
    assert all(v.value is None for v in values if not v.applicable)
    assert all(v.reason == "" for v in values if v.applicable)


def test_zero_pair_degenerates_cleanly():
    rep = full_report(make_pair(np.zeros((3, 2)), np.zeros((3, 2))))
    assert rep.exact_sq == 0.0
    assert rep.by_name("singular_value_lower").value == 0.0
    assert rep.by_name("singular_value_upper").value == 0.0
    assert rep.envelope == (0.0, 0.0)
    assert envelope_ok(rep)
    for name in ("li_refined", "gamma_upper", "delta_upper", "averaged_upper"):
        assert not rep.by_name(name).applicable
    for name in ("alpha_lower", "beta_lower", "gamma_lower", "delta_lower"):
        assert not rep.by_name(name).applicable


def test_evaluate_all_order_is_stable():
    p = make_pair(np.eye(2), 2.0 * np.eye(2))
    assert [v.name for v in evaluate_all(p)] == EXPECTED_ORDER


def test_by_name_unknown_raises():
    rep = full_report(make_pair(np.eye(2), 2.0 * np.eye(2)))
    with pytest.raises(KeyError):
        rep.by_name("no_such_estimator")


def _random_reports(count=40):
    rng = np.random.default_rng(47)
    for _ in range(count):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        ra = int(rng.integers(0, min(m, n) + 1))
        rb = int(rng.integers(0, min(m, n) + 1))
        cplx = bool(rng.integers(0, 2))
        p = make_pair(lowrank(rng, m, n, ra, cplx), lowrank(rng, m, n, rb, cplx))
        yield p, full_report(p)


def test_envelope_and_norm_domination_random():
    for _, rep in _random_reports():
        assert envelope_ok(rep)
        assert norm_bounds_ok(rep)


def test_sharpness_orderings_random():
    def val(rep, name):
        v = rep.by_name(name)
        return v.value if v.applicable else None

    for p, rep in _random_reports():
        li = val(rep, "li_refined")
        mz = val(rep, "meng_zheng")
        av = val(rep, "averaged_upper")
        al = val(rep, "alpha_upper")
        slack = 1e-9 * (1.0 + rep.exact_sq)
        if li is not None:
            assert li <= mz**2 + slack * (1.0 + mz**2)
        if av is not None and li is not None:
            assert av <= li + slack * (1.0 + li)
        for other in ("beta_upper", "gamma_upper", "li_full_column_rank", "li_full_rank_pair"):
            ov = val(rep, other)
            if ov is not None:
                assert al <= ov + slack * (1.0 + ov)
        eps_up = val(rep, "epsilon_upper")
        if eps_up is not None:
            nm = p.norms
            assert eps_up <= nm.nai**2 * nm.nbi**2 * nm.e2 + slack
        alo = val(rep, "alpha_lower")
        if alo is not None:
            for other in ("beta_lower", "gamma_lower"):
                ov = val(rep, other)
                if ov is not None:
                    assert ov <= alo + slack * (1.0 + alo)


def test_report_csv_layout():
    rep = full_report(_rank_drop_pair(0.2))
    lines = report_csv(rep).splitlines()
    assert lines[0] == "name,kind,target,norm,applicable,value"
    # 3 exact rows, 24 estimator rows, 2 envelope rows
    assert len(lines) == 30
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert float(rows["exact_squared_frobenius"][5]) == rep.exact_sq
    assert float(rows["envelope_lower"][5]) == rep.envelope[0]
    assert float(rows["envelope_upper"][5]) == rep.envelope[1]
    assert rows["li_refined"][4] == "true"
    assert float(rows["li_refined"][5]) == rep.by_name("li_refined").value
    # inapplicable rows keep the slot but leave the value empty
    assert rows["wedin_unitarily_invariant"][4] == "false"
    assert rows["wedin_unitarily_invariant"][5] == ""
    for ln in lines[1:]:
        assert len(ln.split(",")) == 6


def test_report_table_layout():
    rep = full_report(_rank_drop_pair(0.2))
    text = report_table(rep)
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["name", "kind"]
    assert len(lines) == 30
    body = "\n".join(lines)
    assert "li_refined" in body
    assert "envelope_upper" in body
    # skipped estimators render a dash and carry their reason
    ui_line = next(ln for ln in lines if ln.startswith("wedin_unitarily_invariant "))
    assert " - " in ui_line or ui_line.rstrip().endswith("-") or "-  " in ui_line
    assert "unitarily invariant" in ui_line


def test_report_is_deterministic():
    a = _rank_drop_pair(0.3)
    assert report_csv(full_report(a)) == report_csv(full_report(a))


def test_bound_report_type():
    rep = full_report(_rank_drop_pair(0.2))
    assert isinstance(rep, BoundReport)
    assert len([v for v in rep.values if v.kind in ("upper", "lower")]) == 24


def test_estimator_arithmetic_error_names_its_row():
    probe = Estimator("probe_overflow", "upper", lambda nm, p: 10.0**400)
    with pytest.raises(OverflowError) as err:
        probe.evaluate(make_pair(np.eye(2), 2.0 * np.eye(2)))
    msg = str(err.value)
    assert "probe_overflow" in msg
    assert "\n" not in msg
    assert isinstance(err.value.__cause__, OverflowError)


def test_stack_with_mixed_ranks_names_both():
    a = np.array([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
    b = np.array([np.diag([0.5, 0.2]), np.diag([0.5, 0.0])])
    with pytest.raises(ValueError, match=r"got 1, 2"):
        make_pair(a, b)


def test_requirement_split_across_a_stack_rejected():
    # every requirement of the table depends on the ranks, which a stack shares,
    # so this one is made up: it holds for the first pair only
    split = Requirement(lambda p: np.array([False, True]), lambda p: "needs the first pair")
    probe = Estimator("probe_split", "upper", lambda nm, p: nm.e2, (split,))
    p = make_pair(np.array([np.eye(2), np.eye(2)]), np.array([2.0 * np.eye(2), 3.0 * np.eye(2)]))
    with pytest.raises(ValueError, match="probe_split applies to some pairs of the stack but not"):
        probe.evaluate(p)


def _report_with(value, exact=1.0):
    rep = full_report(make_pair(np.eye(2), 2.0 * np.eye(2)))
    values = tuple(
        dataclasses.replace(v, value=value) if v.name == "wedin_frobenius" else v
        for v in rep.values
    )
    return dataclasses.replace(rep, values=values, exact_sq=exact)


def test_residuals_keep_a_nan():
    assert np.isnan(norm_residual(_report_with(float("nan"))))
    assert not norm_bounds_ok(_report_with(float("nan")))
    rep = _report_with(10.0, exact=float("nan"))
    assert np.isnan(envelope_residual(rep))
    assert not envelope_ok(rep)
    nan_envelope = dataclasses.replace(rep, exact_sq=1.0, envelope=(float("nan"), 2.0))
    assert np.isnan(envelope_residual(nan_envelope))


def test_overflow_in_a_row_is_an_error_not_an_inf():
    # numpy values overflow to inf silently; the table raises instead
    probe = Estimator("probe_product", "upper", lambda nm, p: nm.na * 1e308 * 10.0)
    p = make_pair(np.eye(2), 2.0 * np.eye(2))
    with pytest.raises(FloatingPointError, match="estimator probe_product failed: overflow"):
        bounds.strict_arithmetic(probe.evaluate)(p)


def test_frobenius_values_are_square_roots_of_the_squared_ones():
    # one float64 arithmetic: |x|_F is sqrt(|x|_F^2) bit for bit, on a stack and on its pairs
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 4, 3)) + 1j * rng.standard_normal((30, 4, 3))
    b = a + 0.3 * rng.standard_normal((30, 4, 3))
    for p in (make_pair(a, b), *map(make_pair, a, b)):
        rep = full_report(p)
        np.testing.assert_array_equal(rep.exact_fro, np.sqrt(rep.exact_sq))
        np.testing.assert_array_equal(p.norms.ef, np.sqrt(p.norms.e2))
