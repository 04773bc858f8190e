"""Every complete `$ slnfusion ...` example of README.md prints exactly what
the README shows.  Blocks that elide output with `...` are skipped."""

import re
import shlex
from pathlib import Path

import pytest

from slnfusion.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```\n(\$ slnfusion .*?)^```$", README.read_text(), re.M | re.S)
EXAMPLES = [block for block in BLOCKS if "..." not in block]


def test_readme_has_examples():
    commands = {block.split()[2] for block in EXAMPLES}
    assert {"lr", "points", "hw-candidates", "case", "fusion", "poset", "weyl"} <= commands


@pytest.mark.parametrize("block", EXAMPLES, ids=[b.splitlines()[0][2:] for b in EXAMPLES])
def test_readme_example_output(capsys, block):
    command, expected = block.split("\n", 1)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == expected
