"""Every complete `$ slnfusion ...` example of README.md prints exactly what
the README shows.  Blocks that elide output with `...` are skipped.  The
library quickstart runs as written, and each `# value` line after an
expression is that expression's repr (a note after two spaces is ignored)."""

import re
import shlex
from pathlib import Path

import pytest

from slnfusion.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```\n(\$ slnfusion .*?)^```$", README, re.M | re.S)
EXAMPLES = [block for block in BLOCKS if "..." not in block]
QUICKSTART = re.search(
    r"^## Library quickstart\n\n```python\n(.*?)^```$", README, re.M | re.S
).group(1)


def test_readme_has_examples():
    commands = {block.split()[2] for block in EXAMPLES}
    assert {"lr", "points", "hw-candidates", "case", "fusion", "poset", "weyl"} <= commands


@pytest.mark.parametrize("block", EXAMPLES, ids=[b.splitlines()[0][2:] for b in EXAMPLES])
def test_readme_example_output(capsys, block):
    command, expected = block.split("\n", 1)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == expected


def test_readme_quickstart_values():
    namespace: dict = {}
    pending: list[str] = []
    checked = 0
    for line in QUICKSTART.splitlines():
        if not line.startswith("# "):
            pending.append(line)
            continue
        expression = pending.pop()
        exec("\n".join(pending), namespace)
        pending = []
        expected = re.split(r"\s{2,}", line[2:])[0]
        assert repr(eval(expression, namespace)) == expected, expression
        checked += 1
    exec("\n".join(pending), namespace)
    assert checked == 5
