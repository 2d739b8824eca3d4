"""The README's library examples run and print what their comments say."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks():
    """The ``python`` code blocks of the README's "Library" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_library_examples_run_as_documented():
    first, stack = _library_blocks()
    namespace = {}
    exec(first, namespace)
    rep = namespace["rep"]
    # the values the comments state, to the digits shown
    assert round(float(rep.exact_sq), 2) == 25.16
    assert tuple(round(float(x), 2) for x in rep.envelope) == (17.96, 25.16)
    # the stack example runs in the same namespace, on the first block's imports
    exec(stack, namespace)
    assert namespace["rep"].exact_sq.shape == (401,)
