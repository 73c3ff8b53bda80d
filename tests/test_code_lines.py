"""The count of tools/code_lines.py on a synthetic module."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

import os   # a comment after code counts as code

# a comment line


class Box:
    """One line."""

    size = 1

    def area(self):
        """Two
        lines."""
        text = """a string that is
        not a docstring"""
        return (self.size
                * 2)


def bare():
    pass
'''


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, class, size, def area, the string's two lines, the return's
    # two lines, def bare, pass
    assert _code_lines().code_lines(MODULE) == 10


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "one.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "two.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert _code_lines().main([str(tmp_path / "pkg")]) == 0
    counts = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert counts == [["10", str(tmp_path / "pkg" / "one.py")],
                      ["1", str(tmp_path / "pkg" / "two.py")],
                      ["11", "total"]]
