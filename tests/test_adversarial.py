"""Adversarial inputs through the commands: every finite input exits cleanly.

Drives ``cli.main`` in-process on matrix files written with
``matrixio.dumps``.  The input classes are sides 1 to 6, real and complex
fields, Gaussian entries at one uniform scale 10^u with |u| <= 300, and
subnormal entries (Gaussian times 1e-310).  The contract: the command exits
0, or exits 2 or 3 with exactly one ``error:`` line, which names an
overflow; it never raises, never emits a warning and never reports "no
convergence".

Graded inputs, a Gaussian with its rows or its columns times 2^j for j
from -s to s, s <= 1000, are in for ``pinv`` and ``bounds``, and only for
their exit codes: the kernel does not yet get their smallest singular
values right (ROADMAP item 12), so their sigma oracle waits on that fix.
``verify-identities`` stays out of the graded class: a kept singular value
at the default rank cutoff is known only to about 1/8, and the identity
checks then fail (ROADMAP items 10 and 14).  Rank-k pairs moved by an ulp,
whose exact rows lose their accuracy to cancellation, stay out until their
fix lands.  Neither is here as skipped or expected to fail.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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


SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    # the files are rewritten for every example, so one tmp_path serves them all
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _graded(rng, m, n, field, spread, axis):
    """``_matrix`` at unit scale with its rows (axis 0) or columns (axis 1) times 2^j, j from -spread to spread."""
    g = _matrix(rng, m, n, field, 1.0)
    j = np.round(np.linspace(-spread, spread, g.shape[axis])).astype(int)
    return g * np.ldexp(1.0, j[:, None] if axis == 0 else j)


def _check_exits_cleanly(tmp_path, command, draw):
    """Run ``command`` on files of ``draw()`` (one for ``pinv``, else two) and check the contract."""
    paths = []
    for name in ("a.mat", "b.mat")[: 1 if command == "pinv" else 2]:
        path = tmp_path / name
        path.write_text(dumps(draw()), encoding="utf-8")
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


@pytest.mark.parametrize("command", COMMANDS)
@SETTINGS
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    field=st.sampled_from(["real", "complex"]),
    scale=scales,
    seed=st.integers(0, 2**32 - 1),
)
def test_command_exits_cleanly(tmp_path, command, m, n, field, scale, seed):
    rng = np.random.default_rng(seed)
    _check_exits_cleanly(tmp_path, command, lambda: _matrix(rng, m, n, field, scale))


@pytest.mark.parametrize("command", ["pinv", "bounds"])
@SETTINGS
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    field=st.sampled_from(["real", "complex"]),
    spread=st.integers(0, 1000),
    axis=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
# complex rows from 2^-520 to 2^520: a subnormal row norm overflowed 1/norm in v, with a warning
@example(m=4, n=4, field="complex", spread=520, axis=0, seed=0)
def test_graded_input_exits_cleanly(tmp_path, command, m, n, field, spread, axis, seed):
    rng = np.random.default_rng(seed)
    _check_exits_cleanly(tmp_path, command, lambda: _graded(rng, m, n, field, spread, axis))
