"""The code-line count of ``benchmarks/code_lines.py`` on fixed sources."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "benchmarks", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code


def f(a,
      b):
    """One-line docstring."""
    # a comment line
    text = """a string that is
not a docstring"""
    return (a +
            b)


class C:
    """A class docstring."""

    x = 1
'''


def test_counts_lines_with_a_token_outside_comments_and_docstrings():
    # import, "def f(a," and "b):", the two lines of ``text``, the two of
    # the return, "class C:" and "x = 1"
    assert code_lines.code_lines(SOURCE) == 9


def test_blank_comment_and_docstring_lines_count_nothing():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# note\n') == 0
    assert code_lines.code_lines("") == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "2", "b.py", "1",
                                               "total", "3"]
