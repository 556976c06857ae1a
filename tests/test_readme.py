"""Every `germforge` command in the README's command-line block runs and
exits 0."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from germforge import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    block = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("germforge ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda a: a[0])
def test_readme_command_exits_0(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()
