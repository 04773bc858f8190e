"""The runtime is stdlib-only: no module of the package imports a third-party
package, whatever the environment the tests run in has installed."""

import ast
import sys
from pathlib import Path

import slnfusion

SOURCES = sorted(Path(slnfusion.__file__).parent.glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib():
    assert len(SOURCES) >= 10
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not outside
