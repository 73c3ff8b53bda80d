#!/usr/bin/env python3
"""Count the lines that hold code in Python files, per file and in total.

    python3 tools/code_lines.py src/epiplan
    python3 tools/code_lines.py src/epiplan/core.py src/epiplan/semantics.py

A line holds code when a token starts on it or runs across it, other than a
comment, a line break, an indentation change or a docstring (a string that
is the first statement of a module, class or function). So blank lines,
comment lines and docstring lines do not count. A directory stands for the
`*.py` files below it. Each file's count is printed, then the total. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Set, Tuple

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

Position = Tuple[int, int]


def _docstrings(tree: ast.AST) -> Iterator[Tuple[Position, Position]]:
    """The (start, end) positions of the docstrings in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc = first.value
                yield (doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)


def code_lines(source: str) -> int:
    """How many lines of `source` hold code."""
    docstrings = list(_docstrings(ast.parse(source)))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and any(
                start <= token.start and token.end <= end for start, end in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths: List[Path]) -> List[Path]:
    """`paths`, each directory replaced by the `*.py` files below it."""
    found: List[Path] = []
    for path in paths:
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path, help="Python files or directories")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
