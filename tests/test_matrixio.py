"""Matrix text format: roundtrips, comments, line-numbered errors and the number writer."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pinvperturb.matrixio import MatrixFormatError, dumps, format_floats, load, loads

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_real_roundtrip_simple():
    a = np.array([[1.0, -2.5], [0.0, 3.0e-17]])
    m = loads(dumps(a))
    assert m.dtype == np.float64
    assert_allclose(m, a, atol=0.0)


def test_complex_detection_and_roundtrip():
    a = np.array([[1.0 + 2.0j, 0.0], [0.0, -1.0]])
    text = dumps(a)
    assert text.splitlines()[0] == "2 2 complex"
    m = loads(text)
    assert m.dtype == np.complex128
    assert_allclose(m, a, atol=0.0)


def test_real_file_loads_as_float64_and_round_trips_bit_for_bit():
    # a real file is a real matrix, so it is factored in real arithmetic
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 4)) * np.logspace(-300, 300, 4)
    a[0, 0], a[1, 1], a[2, 2] = -0.0, 5e-324, -2.2250738585072014e-308
    text = dumps(a)
    m = loads(text)
    assert m.dtype == np.float64 and m.shape == (3, 4)
    assert m.tobytes() == a.tobytes() and dumps(m) == text
    z = loads(dumps(a + 0.5j * a))
    assert z.dtype == np.complex128
    assert z.tobytes() == (a + 0.5j * a).tobytes()


def test_comments_and_blank_lines_skipped():
    text = "# leading comment\n\n  # indented comment\n2 1 real\n4\n\n# mid comment\n5\n"
    m = loads(text)
    assert_allclose(m, [[4.0], [5.0]], atol=0.0)


def test_comment_parameter_keeps_file_valid():
    a = np.array([[1.5]])
    text = dumps(a, comments=["rank 1", "sigma 1.5"])
    assert text.startswith("# rank 1\n# sigma 1.5\n1 1 real\n")
    m = loads(text)
    assert_allclose(m, a, atol=0.0)


@pytest.mark.parametrize(
    "comment,lines",
    [
        ("two\nlines", ["two", "lines"]),
        ("cr\rx", ["cr", "x"]),
        ("crlf\r\nx", ["crlf", "x"]),
        ("sep\u2028x", ["sep", "x"]),
        ("", [""]),
    ],
    ids=repr,
)
def test_comment_with_a_line_break_round_trips(comment, lines):
    # one '# ' line per line of the comment, or loads read a piece of it as the header
    a = np.array([[1.5, -2.0]])
    text = dumps(a, comments=[comment, "last"])
    assert text.splitlines()[: len(lines) + 1] == [f"# {line}" for line in [*lines, "last"]]
    m = loads(text)
    assert m.dtype == np.float64
    assert_allclose(m, a, atol=0.0)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("# only comments\n", 1),
        ("2 x real\n1\n2\n", 1),
        ("1 1 rational\n1\n", 1),
        ("0 2 real\n", 1),
        ("1 2 real\n1 2 3\n", 2),
        ("1 2 real\n1 oops\n", 2),
        ("# pad\n1 2 real\n# pad\n1\n", 4),
        ("1 1 real\n1\n2\n", 3),
        ("2 1 real\n1\n", 3),
        ("1 1 real\ninf\n", 2),
        ("1 1 complex\n1 nan\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(MatrixFormatError) as err:
        loads(text)
    assert err.value.lineno == lineno
    assert f"line {lineno}:" in str(err.value)


def test_load_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("# pad\n1 2 real\n1 oops\n", encoding="utf-8")
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(str(path))}: line 3: bad number 'oops'$") as err:
        load(path)
    assert err.value.lineno == 3
    # a byte that is not UTF-8 is counted on its own line, after a byte-order mark too
    for data, lineno in [(b"\xe9", 1), (b"\xef\xbb\xbf1 1 real\r\n\xe9\n", 2), (b"1 1 real\n\n\xff", 3)]:
        path.write_bytes(data)
        with pytest.raises(MatrixFormatError, match=f": line {lineno}: not UTF-8 text") as err:
            load(path)
        assert err.value.lineno == lineno


def test_file_roundtrip(tmp_path):
    a = np.array([[1.0 + 1.0j, 2.0], [0.0, -3.25]])
    path = tmp_path / "m.txt"
    path.write_text(dumps(a), encoding="utf-8")
    m = load(path)
    assert m.dtype == np.complex128
    assert_allclose(m, a, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    data=st.data(),
    cplx=st.booleans(),
)
def test_roundtrip_bit_exact(rows, cols, data, cplx):
    re = data.draw(
        st.lists(finite, min_size=rows * cols, max_size=rows * cols).map(np.array)
    ).reshape(rows, cols)
    if cplx:
        im = data.draw(
            st.lists(finite, min_size=rows * cols, max_size=rows * cols).map(np.array)
        ).reshape(rows, cols)
        a = re + 1j * im
    else:
        a = re.astype(complex)
    m = loads(dumps(a))
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(m, a)


# edge values of the double range, drawn often so that arrays repeat them
EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    float("nan"),
    -float("nan"),
    1.0,
    0.1,
]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    data=st.data(),
)
def test_format_floats_is_per_entry_17g(rows, cols, data):
    values = st.sampled_from(EDGES) | st.floats(width=64)
    x = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))
    assert format_floats(x) == [f"{v:.17g}" for v in x.tolist()]
    table = x.reshape(rows, cols)
    assert format_floats(table) == [[f"{v:.17g}" for v in row] for row in table.tolist()]


def _dumps_per_entry(a, field, comments=()):
    """Reference: one ``.17g`` format per entry; ``dumps`` matches it byte for byte."""
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    lines = [f"# {c}" for c in comments]
    lines.append(f"{m} {n} {field}")
    for i in range(m):
        if field == "real":
            lines.append(" ".join(f"{a[i, j].real:.17g}" for j in range(n)))
        else:
            lines.append(
                " ".join(f"{a[i, j].real:.17g} {a[i, j].imag:.17g}" for j in range(n))
            )
    return "\n".join(lines) + "\n"


_rng = np.random.default_rng(5)


@pytest.mark.parametrize(
    "a,field",
    [
        (np.array([[1.0, -0.0], [0.1, 3.0e-17]]), "real"),
        (np.array([[1.0 + 2.0j, -0.0], [0.5 - 0.25j, 1.0 + 2.0j]]), "complex"),
        (np.array([[complex(1.0, -0.0), complex(-0.0, 0.0)]]), "real"),
        (np.array([[complex(2.0, -0.0), 1.0j]]), "complex"),
        (np.array([[-0.0]]), "real"),
        (np.array([[7.0 - 7.0j]]), "complex"),
        (np.round(_rng.standard_normal((2, 300)), 2), "real"),
        (_rng.standard_normal((3, 200)) + 1j * _rng.standard_normal((3, 200)), "complex"),
    ],
)
def test_dumps_matches_per_entry_rendering(a, field):
    assert dumps(a, comments=["rank 1", "sigma 2"]) == _dumps_per_entry(
        a, field, comments=["rank 1", "sigma 2"]
    )
