"""The runtime stays stdlib-only: every absolute import in the `epiplan`
package names a standard-library module (tests and the benchmark may use
more)."""

import ast
import sys
from pathlib import Path

import epiplan

PACKAGE = Path(epiplan.__file__).resolve().parent


def _absolute_imports(path: Path):
    """(line, top-level module) for each absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {(path.name, line, module)
             for path in sources for line, module in _absolute_imports(path)}
    assert found
    outside = sorted(entry for entry in found if entry[2] not in sys.stdlib_module_names)
    assert not outside, f"non-stdlib imports (file, line, module): {outside}"
