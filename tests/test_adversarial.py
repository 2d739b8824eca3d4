"""Adversarial inputs through the commands: every finite input exits cleanly.

Drives ``cli.main`` in-process on matrix files written with
``matrixio.dumps``.  The input classes are sides 1 to 6, real and complex
fields, Gaussian entries at one uniform scale 10^u with |u| <= 300, and
subnormal entries (Gaussian times 1e-310).  The contract: the command exits
0, or exits 2 or 3 with exactly one ``error:`` line, which names an
overflow; it never raises, never emits a warning and never reports "no
convergence".

Two classes stay out until their fixes land, each with its own class:
column- and row-graded inputs, which the Jacobi kernel does not yet handle
across the exponent range, and rank-k pairs moved by an ulp, whose exact
rows lose their accuracy to cancellation.  Neither is here as skipped or
expected to fail.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pinvperturb.cli as cli
from pinvperturb.matrixio import dumps

COMMANDS = ["pinv", "bounds", "verify-identities"]

# one scale per pair: 10^u for uniform u, or 1e-310, which makes every entry subnormal
scales = st.floats(-300.0, 300.0).map(lambda u: 10.0**u) | st.just(1e-310)


def _matrix(rng, m, n, field, scale):
    g = rng.standard_normal((m, n))
    if field == "complex":
        g = g + 1j * rng.standard_normal((m, n))
    return g * scale


def _run(argv):
    """``cli.main(argv)`` with its output captured: (exit code, stdout, stderr, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("command", COMMANDS)
@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    # the files are rewritten for every example, so one tmp_path serves them all
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    field=st.sampled_from(["real", "complex"]),
    scale=scales,
    seed=st.integers(0, 2**32 - 1),
)
def test_command_exits_cleanly(tmp_path, command, m, n, field, scale, seed):
    rng = np.random.default_rng(seed)
    paths = []
    for name in ("a.mat", "b.mat")[: 1 if command == "pinv" else 2]:
        path = tmp_path / name
        path.write_text(dumps(_matrix(rng, m, n, field, scale)), encoding="utf-8")
        paths.append(str(path))
    code, out, err, caught = _run([command, *paths])
    assert not caught, [str(w.message) for w in caught]
    assert "no convergence" not in out + err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 0:
        assert not errors, err
    else:
        assert code in (2, 3), (code, err)
        assert len(errors) == 1, err
        # a finite input fails only where a quantity leaves the double range
        assert "overflow" in errors[0], err
