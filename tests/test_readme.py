"""The README's examples run and show what they say."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np

from pinvperturb import cli, matrixio

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(title):
    """The text of the README's ``## title`` section."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(title, lang=""):
    """The code blocks of a section tagged ``lang`` (untagged by default), in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", _section(title), flags=re.MULTILINE | re.DOTALL)


def _in_shown_files(tmp_path, monkeypatch):
    """Work in ``tmp_path``, which holds each matrix file that "Command line" shows.

    A shown file is a caption ending in `name`: and the block after it.
    """
    pattern = r"`([\w.]+\.mat)`:\n\n```\n(.*?)^```$"
    files = re.findall(pattern, _section("Command line"), flags=re.MULTILINE | re.DOTALL)
    assert files, "the Command line section shows no matrix file"
    for name, text in files:
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_library_examples_run_as_documented():
    first, stack = _blocks("Library", "python")
    namespace = {}
    exec(first, namespace)
    rep = namespace["rep"]
    # the values the comments state, to the digits shown
    assert round(float(rep.exact_sq), 2) == 25.16
    assert tuple(round(float(x), 2) for x in rep.envelope) == (17.96, 25.16)
    # the stack example runs in the same namespace, on the first block's imports
    exec(stack, namespace)
    assert namespace["rep"].exact_sq.shape == (401,)


def test_pinv_example_prints_the_shown_output(tmp_path, monkeypatch, capsys):
    # the caption names the command line, and the block after it is its output
    caption = r"`pinvperturb (pinv [\w.]+)`[^`]*?:\n\n```\n(.*?)^```$"
    found = re.search(caption, _section("Command line"), flags=re.MULTILINE | re.DOTALL)
    assert found, "no pinv example with its output"
    argv, shown = found.groups()
    _in_shown_files(tmp_path, monkeypatch)
    assert cli.main(shlex.split(argv)) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (shown, "")


def test_every_shown_command_exits_0(tmp_path, monkeypatch, capsys):
    (commands,) = _blocks("Command line", "sh")
    lines = [shlex.split(line, comments=True) for line in commands.splitlines()]
    assert lines and all(words[0] == "pinvperturb" for words in lines), commands
    _in_shown_files(tmp_path, monkeypatch)
    for words in lines:
        assert cli.main(words[1:]) == 0, words
        assert capsys.readouterr().err == "", words


def test_matrix_file_example_loads_to_the_shown_matrix():
    (example,) = _blocks("Matrix files")
    a = matrixio.loads(example)
    assert a.dtype == np.complex128
    np.testing.assert_array_equal(a, [[1, -1j, 0.5], [2j, 3, 0]])
    # the sentence after the block states the same matrix
    assert "`[[1, -1j, 0.5], [2j, 3, 0]]`" in _section("Matrix files")


def test_layout_names_exactly_the_package_files():
    (layout,) = _blocks("Layout")
    # the indented lines under src/pinvperturb/, up to the next top-level entry
    package = re.search(r"^src/pinvperturb/\n((?:  .*\n)+)", layout, flags=re.MULTILINE)
    named = {line.split()[0] for line in package.group(1).splitlines()}
    source = ROOT / "src" / "pinvperturb"
    assert named == {f.name for f in source.iterdir() if f.suffix in (".py", ".c")}
