"""Whitespace text format for matrices.

Line 1 is a header ``m n field`` with field ``real`` or ``complex``; then m
data rows follow.  A real row holds n numbers; a complex row holds 2n
numbers as re/im pairs.  Lines whose first non-blank character is ``#`` are
comments; blank lines are skipped.  Files are UTF-8 and numbers round-trip
at full double precision.  A ``real`` file reads as a float64 matrix and a
``complex`` one as complex128, the two dtypes of ``core``'s dtype rule.

Every number the package writes at full precision goes through
``format_float`` or ``format_floats``: ``%.17g``, which reads back bit for
bit.  That is every number of a matrix file, a report, a sweep and the
``pinv`` and ``verify-identities`` commands; the suite's summary lines print
three digits.
"""

from __future__ import annotations

import codecs
import math
from pathlib import Path

import numpy as np

from .core import as_matrix


class MatrixFormatError(ValueError):
    """Parse failure with the 1-based physical line number, and the file when read from one."""

    def __init__(self, lineno, message, path=None):
        where = f"line {lineno}" if path is None else f"{path}: line {lineno}"
        super().__init__(f"{where}: {message}")
        self.lineno = lineno
        self.reason = message


def loads(text):
    """Parse a matrix from text: float64 for a ``real`` file, complex128 for a ``complex`` one.

    The dtype is the file's field, so a real file is factored in real
    arithmetic (``core._field``).
    """
    lines = text.splitlines()
    # every line that is neither blank nor a comment, stripped, with its line number
    content = [
        (lineno, line)
        for lineno, raw in enumerate(lines, start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    if not content:
        raise MatrixFormatError(max(len(lines), 1), "missing 'm n field' header")
    (lineno, line), *data = content
    parts = line.split()
    if len(parts) != 3:
        raise MatrixFormatError(lineno, "header must be 'm n field'")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFormatError(
            lineno, f"dimensions must be integers, got {parts[0]!r} {parts[1]!r}"
        ) from None
    if m < 1 or n < 1:
        raise MatrixFormatError(lineno, f"dimensions must be positive, got {m} {n}")
    field = parts[2]
    if field not in ("real", "complex"):
        raise MatrixFormatError(lineno, f"field must be 'real' or 'complex', got {field!r}")
    need = n if field == "real" else 2 * n
    rows = []
    for lineno, line in data[:m]:
        parts = line.split()
        if len(parts) != need:
            raise MatrixFormatError(
                lineno, f"expected {need} numbers in data row, got {len(parts)}"
            )
        try:
            nums = [float(t) for t in parts]
        except ValueError:
            bad = next(t for t in parts if not _is_number(t))
            raise MatrixFormatError(lineno, f"bad number {bad!r}") from None
        if not all(math.isfinite(x) for x in nums):
            raise MatrixFormatError(lineno, "entries must be finite")
        rows.append(nums)
    if len(data) > m:
        raise MatrixFormatError(data[m][0], f"expected {m} data rows, found extra data")
    if len(rows) != m:
        raise MatrixFormatError(len(lines) + 1, f"expected {m} data rows, got {len(rows)}")
    table = np.array(rows, dtype=np.float64)
    # a complex row's re/im pairs are the parts of its n entries, in place
    return table.view(np.complex128) if field == "complex" else table


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def format_float(x):
    """One number as ``%.17g``."""
    return f"{x:.17g}"


def format_floats(x):
    """``format_float`` of every entry of a float64 array, nested as ``x.tolist()``.

    Each distinct value is formatted once: tables repeat values (exact
    zeros, a closed form shared by several columns), and formatting is most
    of the cost of writing one.  Values are told apart by their bits, so
    ``-0.0`` keeps its own ``-0``.
    """
    x = np.asarray(x, dtype=np.float64)
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    text = ("\n".join(["%.17g"] * len(bits)) % tuple(bits.view(np.float64).tolist())).split("\n")
    # the shape of ``inverse`` differs between numpy 2.0.0 and 2.0.1
    return np.array(text, dtype=object)[inverse.reshape(x.shape)].tolist()


def dumps(a, comments=()):
    """Render a matrix, with field ``complex`` only when an imaginary part is nonzero.

    ``comments`` are emitted first, one ``#`` line per line of each, split as
    ``loads`` splits the text, so the output is still a valid matrix file.
    """
    a = as_matrix(a)
    m, n = a.shape
    if np.any(a.imag != 0.0):
        field = "complex"
        # a complex row interleaves re/im pairs
        parts = np.stack([a.real, a.imag], axis=-1).reshape(m, 2 * n)
    else:
        field, parts = "real", a.real
    rows = list(map(" ".join, format_floats(parts)))
    notes = [f"# {line}" for c in comments for line in c.splitlines() or [""]]
    return "\n".join([*notes, f"{m} {n} {field}", *rows, ""])


def load(path):
    """Read a matrix file as ``loads`` reads text, skipping a leading UTF-8 byte-order mark.

    A parse error, or a byte that is not UTF-8, names the file and the line.
    """
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; its last line, even an empty one, holds the byte
        lineno = len((raw[: exc.start].decode("utf-8") + ".").splitlines())
        reason = f"not UTF-8 text (byte 0x{raw[exc.start]:02x})"
        raise MatrixFormatError(lineno, reason, path) from None
    try:
        return loads(text)
    except MatrixFormatError as exc:
        raise MatrixFormatError(exc.lineno, exc.reason, path) from None

